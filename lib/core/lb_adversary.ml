type config = {
  gamma : float;
  min_active : int;
  desperate : bool;
  stall : bool;
  per_round_cap : int option;
}

let default_config =
  {
    gamma = 0.45;
    min_active = 8;
    desperate = false;
    stall = true;
    per_round_cap = None;
  }

let voting_config = { default_config with desperate = true; stall = false }

(* ------------------------------------------------------------------ *)
(* Band control                                                        *)
(* ------------------------------------------------------------------ *)

let cdiv a b = (a + b - 1) / b

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: rest -> x :: take (k - 1) rest

(* Receivers that will still be around to act on this round's messages. *)
let receivers view =
  Sim.Adversary.active_pids view

let partition_senders view ~bit_of_msg =
  let ones = ref [] and zeros = ref [] in
  Sim.Adversary.iter_pending view (fun i m ->
      if bit_of_msg m = 1 then ones := i :: !ones else zeros := i :: !zeros);
  (List.rev !ones, List.rev !zeros)

type tracker = {
  mutable nprev : int array;  (* per-receiver delivered count, last round *)
  mutable initialized : bool;
  mutable last_burst : int;  (* round of the last stability-breaking burst *)
}

let band_control ?(config = default_config) ?(sink = Obs.Sink.null) ~rules
    ~bit_of_msg () =
  Onesided.validate rules;
  let emit_on = Obs.Sink.enabled sink in
  let tr = { nprev = [||]; initialized = false; last_burst = -10 } in
  let plan view rng =
    let n = view.Sim.Adversary.n in
    let round = view.Sim.Adversary.round in
    let budget = view.Sim.Adversary.budget_left in
    if round = 1 || not tr.initialized then begin
      tr.nprev <- Array.make n n;
      tr.initialized <- true;
      tr.last_burst <- -10
    end;
    let recv = receivers view in
    let q = List.length recv in
    let ones, zeros = partition_senders view ~bit_of_msg in
    let o = List.length ones and z = List.length zeros in
    let nprev_of j = tr.nprev.(j) in
    (* (min, max) of nprev over [js]; [None] iff [js] is empty — no
       sentinel, so no wrapping arithmetic downstream. *)
    let nprev_bounds js =
      List.fold_left
        (fun acc j ->
          let v = nprev_of j in
          match acc with
          | None -> Some (v, v)
          | Some (mn, mx) -> Some (Stdlib.min mn v, Stdlib.max mx v))
        None js
    in
    (* Band position for this round's event; stays 0 on rounds that bail
       out before the band is computed. *)
    let ev_flip_lo = ref 0 and ev_flip_hi = ref 0 and ev_margin = ref 0 in
    (* Record deliveries, emit the Band event and return the plan.
       [extra.(j)] counts killed senders whose message still reaches j. *)
    let finish ~action kills =
      let extra = Array.make n 0 in
      List.iter
        (fun { Sim.Adversary.victim = _; deliver_to } ->
          List.iter
            (fun j -> if j >= 0 && j < n then extra.(j) <- extra.(j) + 1)
            deliver_to)
        kills;
      let base = q - List.length kills in
      List.iter (fun j -> tr.nprev.(j) <- base + extra.(j)) recv;
      if emit_on then
        Obs.Sink.emit sink
          (Obs.Event.Band
             {
               round;
               ones = o;
               zeros = z;
               flip_lo = !ev_flip_lo;
               flip_hi = !ev_flip_hi;
               margin = !ev_margin;
               action;
               kills = List.length kills;
             });
      kills
    in
    let give_up action = finish ~action [] in
    let cap kills =
      let limit =
        match config.per_round_cap with
        | None -> budget
        | Some c -> Stdlib.min c budget
      in
      take limit kills
    in
    (* [q = 0] (reachable with [min_active = 0]) must bail out here: the
       min-folds below are over the receiver set and have no value on an
       empty one — the old [max_int] sentinel wrapped in the band arithmetic
       and misreported such rounds as "in-band". *)
    if q = 0 || q < config.min_active || budget = 0 then give_up "idle"
    else begin
      let nmin, nmax =
        match nprev_bounds recv with
        | Some b -> b
        | None -> assert false (* q > 0: the receiver set is non-empty *)
      in
      (* Stability breaking (Lemma 4.1's remark: to keep decided processes
         from stopping, the adversary must fail a tenth of the population
         every few rounds). A burst of nmax/10 + 2 silent kills makes
         N^(r-3) - N^r exceed N^(r-2)/10 for the next three stop checks.
         When the budget can no longer sustain bursts, the endgame move
         pushes the population below sqrt(n / log n), forcing the
         deterministic stage's extra switching + flooding rounds. *)
      let stall_move () =
        if not config.stall then give_up "idle"
        else begin
          let thresh = sqrt (float_of_int n /. log (float_of_int n)) in
          let det_pop = Stdlib.max 1 (int_of_float (Float.ceil thresh) - 1) in
          let burst_size = Stdlib.min (q - 1) ((nmax / 10) + 2) in
          let endgame_cost = q - det_pop in
          let kill_first k =
            take k recv |> List.map Sim.Adversary.kill_silent
          in
          if
            endgame_cost > 0 && budget >= endgame_cost
            && budget < endgame_cost + burst_size
            && endgame_cost <= 2 * burst_size
          then begin
            tr.last_burst <- round;
            finish ~action:"endgame" (cap (kill_first endgame_cost))
          end
          else if
            burst_size > 0 && budget >= burst_size
            && round - tr.last_burst >= 3
          then begin
            tr.last_burst <- round;
            finish ~action:"burst" (cap (kill_first burst_size))
          end
          else give_up "idle"
        end
      in
      (* Flip band: delivered 1-count keeping every receiver off both
         deterministic branches. *)
      let flip_lo = cdiv (rules.Onesided.propose_lo * nmax) 10 in
      let flip_hi = rules.Onesided.propose_hi * nmin / 10 in
      let fq = float_of_int q in
      let margin =
        Stdlib.max 1
          (int_of_float (Float.round (config.gamma *. sqrt (fq *. log fq))))
      in
      ev_flip_lo := flip_lo;
      ev_flip_hi := flip_hi;
      ev_margin := margin;
      if o = 0 || z = 0 then
        (* Unanimous proposals: the band is lost (with no zeros the zero
           rule forces 1-proposals regardless of trimming); all that is
           left is delaying the stops. *)
        stall_move ()
      else if flip_lo > flip_hi then stall_move ()
      else if o > flip_hi then begin
        (* Surplus: trim 1-votes into the band; promote a subset S so that
           the expected next-round 1-count sits [margin] above flip_hi. *)
        let s_count =
          Stdlib.min (q - 1)
            (Stdlib.max 0 ((2 * (flip_hi + margin)) - q))
        in
        (* Promote the receivers with the smallest thresholds. *)
        let sorted =
          List.sort (fun a b -> Int.compare (nprev_of a) (nprev_of b)) recv
        in
        let s = take s_count sorted in
        let need, promotable =
          match nprev_bounds s with
          | None -> (0, false)
          | Some (s_nmin, s_nmax) ->
              let need =
                (rules.Onesided.propose_hi * s_nmax / 10) + 1 - flip_hi
              in
              let decide_cap = rules.Onesided.decide_hi * s_nmin / 10 in
              (* flip_hi + need <= decide_cap, written subtraction-side to
                 stay safe however large the operands get. *)
              ( need,
                need >= 0 && need <= decide_cap - flip_hi && o - flip_hi >= 1
              )
        in
        let kill_count = o - flip_hi in
        if kill_count > budget then
          (* Cannot hold the band; save the budget for stop-delaying. *)
          stall_move ()
        else begin
          let victims = take kill_count ones in
          let deliver_needed =
            if promotable then Stdlib.min need kill_count else 0
          in
          let kills =
            List.mapi
              (fun idx pid ->
                if idx < deliver_needed then
                  Sim.Adversary.kill_after_send pid ~recipients:s
                else Sim.Adversary.kill_silent pid)
              victims
          in
          finish ~action:"trim" (cap kills)
        end
      end
      else if o >= flip_lo then
        (* In-band: every receiver flips; nothing to do this round. *)
        give_up "in-band"
      else if
        config.desperate && z > 0
        (* The p/2 rescue only pays when enough budget remains to exploit
           the rebuilt 1-majority afterwards; otherwise stop-delaying
           bursts are the better use of a thin budget. *)
        && budget >= z + (q / 3)
        && o >= 2
        && q >= 2 * config.min_active
      then begin
        (* Deficit: the Lemma 4.6 "fail p/2" rescue. Kill every 0-sender,
           still delivering their messages to the non-promoted receivers;
           the promoted S (a subset of the surviving 1-senders) sees no 0
           and must propose 1 by the zero rule. *)
        let s_size = Stdlib.max 1 ((6 * o / 10) + 1) in
        let s_size = Stdlib.min s_size (o - 1) in
        let s =
          let arr = Array.of_list ones in
          Prng.Sample.shuffle rng arr;
          Array.to_list (Array.sub arr 0 s_size)
        in
        let s_mask = Array.make n false in
        List.iter (fun j -> s_mask.(j) <- true) s;
        let non_s = List.filter (fun j -> not s_mask.(j)) recv in
        let kills =
          List.map
            (fun pid -> Sim.Adversary.kill_after_send pid ~recipients:non_s)
            zeros
        in
        finish ~action:"rescue" (cap kills)
      end
      else
        (* Deficit without an affordable rescue: delay the coming stops. *)
        stall_move ()
    end
  in
  {
    Sim.Adversary.name =
      Printf.sprintf "band-control[g=%.2f%s%s]" config.gamma
        (if config.desperate then ",desperate" else "")
        (match config.per_round_cap with
        | None -> ""
        | Some c -> Printf.sprintf ",cap=%d" c);
    plan;
  }

(* ------------------------------------------------------------------ *)
(* Monte-Carlo valency adversary                                       *)
(* ------------------------------------------------------------------ *)

type mc_config = {
  samples : int;
  horizon : int;
  round_cap : int;
  keep_margin : float;
}

let default_mc_config =
  { samples = 40; horizon = 40; round_cap = 3; keep_margin = 0.15 }

(* One-shot adversary: applies [plan] on its first activation, nothing
   afterwards. *)
let one_shot plan =
  let fired = ref false in
  {
    Sim.Adversary.name = "one-shot";
    plan =
      (fun _view _rng ->
        if !fired then []
        else begin
          fired := true;
          plan
        end);
  }

(* Score a candidate plan by simulating continuations with fresh coins:
   returns (estimated Pr[decide 1], estimated total rounds). The probability
   is the r(alpha) proxy of Section 3.2; the rounds estimate is the quantity
   Theorem 1's adversary ultimately maximizes. Continuations run under a
   minimal sustained-pressure policy (one kill per round) rather than the
   null adversary: a kill's stop-delaying value only materializes when the
   following rounds keep the population shrinking, so null continuations
   would systematically undervalue every candidate. *)
let estimate exec plan ~config ~rng =
  let decided_one = ref 0 and decided = ref 0 in
  let rounds_total = ref 0.0 in
  for _ = 1 to config.samples do
    let c = Sim.Engine.snapshot exec in
    (* Apply the candidate with the *current* coins (the plan was chosen in
       view of them), then resample the future. *)
    (match Sim.Engine.step c (one_shot plan) with
    | `Continue -> ()
    | `Quiescent -> ());
    Sim.Engine.reseed c rng;
    Sim.Engine.run_until c
      (Baselines.Adversaries.drip ~per_round:1)
      ~max_rounds:(Sim.Engine.round exec + config.horizon);
    let o = Sim.Engine.outcome c in
    (match o.Sim.Engine.rounds_to_decide with
    | Some r ->
        incr decided;
        rounds_total := !rounds_total +. float_of_int r;
        let one = Array.exists (fun d -> d = Some 1) o.Sim.Engine.decisions in
        if one then incr decided_one
    | None ->
        (* Ran past the horizon: at least that long. *)
        rounds_total := !rounds_total +. float_of_int o.Sim.Engine.rounds_executed)
  done;
  let p1 =
    if !decided = 0 then 0.5
    else float_of_int !decided_one /. float_of_int !decided
  in
  (p1, !rounds_total /. float_of_int config.samples)

let force_long_execution ?(config = default_mc_config) ?(max_rounds = 10_000)
    ?(sink = Obs.Sink.null) protocol ~inputs ~t ~rng =
  let exec = Sim.Engine.start protocol ~inputs ~t ~rng in
  let est_rng = Prng.Rng.split rng in
  let pick_rng = Prng.Rng.split rng in
  let rec drive () =
    if Sim.Engine.round exec >= max_rounds then ()
    else begin
      let active = Sim.Engine.active_mask exec in
      let candidates_pool =
        let acc = ref [] in
        Array.iteri (fun i a -> if a then acc := i :: !acc) active;
        !acc
      in
      (* Greedily grow a kill set that maximizes the estimated expected
         total rounds; ties broken toward keeping Pr[decide 1] near 1/2
         (bivalence). *)
      let budget = t - Sim.Engine.kills_used exec in
      let score_of (p1, rounds) = rounds -. Float.abs (p1 -. 0.5) in
      let rec grow plan score tries =
        if List.length plan >= Stdlib.min config.round_cap budget || tries = 0
        then plan
        else begin
          let in_plan pid =
            List.exists (fun k -> k.Sim.Adversary.victim = pid) plan
          in
          let options =
            candidates_pool |> List.filter (fun pid -> not (in_plan pid))
          in
          (* Score a few random single-kill extensions. *)
          let sample_opts =
            let arr = Array.of_list options in
            Prng.Sample.shuffle pick_rng arr;
            Array.to_list (Array.sub arr 0 (Stdlib.min 6 (Array.length arr)))
          in
          let scored =
            List.map
              (fun pid ->
                let cand = Sim.Adversary.kill_silent pid :: plan in
                (cand, score_of (estimate exec cand ~config ~rng:est_rng)))
              sample_opts
          in
          let best =
            List.fold_left
              (fun acc (cand, s) ->
                match acc with
                | Some (_, s') when s' >= s -> acc
                | Some _ | None -> Some (cand, s))
              None scored
          in
          match best with
          | Some (cand, s) when s > score +. config.keep_margin ->
              grow cand s (tries - 1)
          | Some _ | None -> plan
        end
      in
      let base_est = estimate exec [] ~config ~rng:est_rng in
      (if Obs.Sink.enabled sink then
         let pr_one, expected_rounds = base_est in
         Obs.Sink.emit sink
           (Obs.Event.Valency_probe
              (* The probe scores the round about to execute. *)
              { round = Sim.Engine.round exec + 1; pr_one; expected_rounds }));
      let base_score = score_of base_est in
      let plan = grow [] base_score config.round_cap in
      match Sim.Engine.step exec (one_shot plan) with
      | `Quiescent -> ()
      | `Continue -> drive ()
    end
  in
  drive ();
  Sim.Engine.outcome exec

(* ------------------------------------------------------------------ *)
(* Leader killer                                                       *)
(* ------------------------------------------------------------------ *)

let leader_killer ?(config = default_config) ~rules ~bit_of_msg ~prio_of_msg ()
    =
  Onesided.validate rules;
  (* Conservative per-round delivered-count estimates (min and max over
     receivers); exact per-receiver tracking is unnecessary because the
     attack only needs the flip band's rough position. *)
  let np_min = ref max_int and np_max = ref max_int in
  let plan view rng =
    let n = view.Sim.Adversary.n in
    if view.Sim.Adversary.round = 1 then begin
      np_min := n;
      np_max := n
    end;
    let recv = receivers view in
    let q = List.length recv in
    let senders =
      List.filter_map
        (fun pid ->
          match view.Sim.Adversary.pending pid with
          | Some m -> Some (pid, bit_of_msg m, prio_of_msg m)
          | None -> None)
        recv
    in
    let o = List.fold_left (fun acc (_, b, _) -> acc + b) 0 senders in
    let budget = view.Sim.Adversary.budget_left in
    let update_np kills =
      np_max := q - (kills / 2);
      (* non-protected receivers miss all killed leaders *)
      np_min := q - kills;
      if kills = 0 then begin
        np_min := q;
        np_max := q
      end
    in
    if q < config.min_active || budget = 0 then begin
      update_np 0;
      []
    end
    else begin
      let flip_lo = cdiv (rules.Onesided.propose_lo * !np_max) 10 in
      let flip_hi = rules.Onesided.propose_hi * !np_min / 10 in
      if o < flip_lo || o > flip_hi then begin
        (* Band lost; this specialist does not stall. *)
        update_np 0;
        []
      end
      else begin
        (* Everyone flips, i.e. adopts its view's leader bit. Kill the
           priority prefix down to the first dissenting bit and deliver the
           victims' messages to a protected set S sized so that next
           round's 1-count lands mid-band: S adopts the top leader's bit,
           everyone else adopts the first survivor's. *)
        let sorted =
          List.sort
            (fun (p1, _, r1) (p2, _, r2) ->
              let c = Int.compare r2 r1 in
              if c <> 0 then c else Int.compare p2 p1)
            senders
        in
        match sorted with
        | [] | [ _ ] ->
            update_np 0;
            []
        | (top_pid, top_bit, _) :: rest ->
            let rec prefix acc = function
              | [] -> None
              | (_, b, _) :: _ when b <> top_bit -> Some (List.rev acc)
              | (pid, _, _) :: tl -> prefix (pid :: acc) tl
            in
            (match prefix [ top_pid ] rest with
            | None ->
                (* Unanimous proposals: nothing to split. *)
                update_np 0;
                []
            | Some victims when List.length victims > budget ->
                update_np 0;
                []
            | Some victims ->
                let target_ones = 11 * q / 20 in
                let s_size =
                  if top_bit = 1 then target_ones else q - target_ones
                in
                let s_size = Stdlib.max 1 (Stdlib.min (q - 1) s_size) in
                let shuffled = Array.of_list recv in
                Prng.Sample.shuffle rng shuffled;
                let s = Array.to_list (Array.sub shuffled 0 s_size) in
                update_np (List.length victims);
                List.map
                  (fun pid -> Sim.Adversary.kill_after_send pid ~recipients:s)
                  victims)
      end
    end
  in
  { Sim.Adversary.name = "leader-killer"; plan }
