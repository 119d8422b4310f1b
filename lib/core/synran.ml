type stage = Probabilistic | Switching | Deterministic of { left : int }

type coin = Local_flip | Leader_priority | Shared_oracle of int

type msg = { bit : int; prio : int; det : (bool * bool) option }

type state = {
  rules : Onesided.rules;
  coin_mode : coin;

  threshold : float;
  det_rounds : int;
  b : int;
  coin : int;
  decided_flag : bool;
  output : int option;
  halted : bool;
  stage : stage;
  (* Value set W for the deterministic stage. *)
  has_zero : bool;
  has_one : bool;
  (* Receive-count history: N^(r-1), N^(r-2), N^(r-3), seeded with n
     (the paper's N^-1 = N^0 = n convention). All three registers are
     load-bearing: the stopping rule must bound the kills of the three
     rounds r-2, r-1, r, which requires comparing N^r against N^(r-3).
     See the stability check in [step_probabilistic]. *)
  n1 : int;
  n2 : int;
  n3 : int;
}

let switch_threshold ~n =
  if n < 1 then invalid_arg "Synran.switch_threshold";
  if n = 1 then 1.0 else sqrt (float_of_int n /. log (float_of_int n))

let det_stage_rounds ~n =
  Stdlib.max 1 (int_of_float (Float.ceil (switch_threshold ~n)))

let bit_of_msg m = m.bit

let prio_of_msg m = m.prio

let msg_is_one m = m.bit = 1

let stage_name s =
  match s.stage with
  | Probabilistic -> "probabilistic"
  | Switching -> "switching"
  | Deterministic _ -> "deterministic"

let current_b s = s.b

let decided_flag s = s.decided_flag

(* Everything SynRan needs from a round's messages, as a commutative fold:
   the vote tally, the max-(prio, pid) leader (the argmax is unique because
   pids are distinct, so absorption order cannot matter), and the OR of the
   broadcast values/value-sets. This is the engine's aggregate: receivers
   never see a materialized array. *)
type acc = {
  a_ones : int;
  a_nrecv : int;
  a_best_prio : int;
  a_best_pid : int;  (* -1 = no message absorbed yet *)
  a_best_bit : int;
  a_saw_zero : bool;
  a_saw_one : bool;
}

let acc_init () =
  {
    a_ones = 0;
    a_nrecv = 0;
    a_best_prio = min_int;
    a_best_pid = -1;
    a_best_bit = -1;
    a_saw_zero = false;
    a_saw_one = false;
  }

let acc_absorb acc ~pid m =
  (* The leader comparator is lexicographic (prio, pid) on ints — the
     Section 1.2 "dictator" tie-break, spelled out with int comparisons. *)
  let better =
    m.prio > acc.a_best_prio || (m.prio = acc.a_best_prio && pid > acc.a_best_pid)
  in
  let det_zero, det_one =
    match m.det with None -> (false, false) | Some (z, o) -> (z, o)
  in
  {
    a_ones = acc.a_ones + m.bit;
    a_nrecv = acc.a_nrecv + 1;
    a_best_prio = (if better then m.prio else acc.a_best_prio);
    a_best_pid = (if better then pid else acc.a_best_pid);
    a_best_bit = (if better then m.bit else acc.a_best_bit);
    a_saw_zero = acc.a_saw_zero || m.bit = 0 || det_zero;
    a_saw_one = acc.a_saw_one || m.bit = 1 || det_one;
  }

(* The leader coin: the bit of the highest-(priority, pid) message received
   this round. Received sets are never empty (own message always arrives). *)
let leader_bit acc =
  if acc.a_best_pid < 0 then assert false else acc.a_best_bit

(* End of the deterministic stage: the surviving-value rule of Lemma 4.3 —
   the unique value if one survived, otherwise the default 0. *)
let det_decision ~has_zero ~has_one =
  match (has_zero, has_one) with
  | false, true -> 1
  | true, false | true, true -> 0
  | false, false -> assert false (* own value is always in W *)

(* The shared-oracle coin of the weakened-adversary models ([Rab83]-style
   trusted dealer): all processes derive the same round-r bit from a seed
   the adversary is assumed unable to read. This models the paper's remark
   that O(1)-round protocols exist under "reasonable bounds on the power of
   the adversary" — here, denying it the coin before the kills. *)
let oracle_bit ~seed ~round =
  Int64.to_int
    (Prng.Splitmix64.mix (Int64.of_int ((seed * 1_000_003) + round)))
  land 1

let step_probabilistic s ~round ~acc =
  let ones = acc.a_ones and nrecv = acc.a_nrecv in
  let zeros = nrecv - ones in
  let flip_value () =
    match s.coin_mode with
    | Local_flip -> s.coin
    | Leader_priority -> leader_bit acc
    | Shared_oracle seed -> oracle_bit ~seed ~round
  in
  if float_of_int nrecv < s.threshold then
    (* Too few survivors: freeze b, run the one-round delay, then flood. *)
    { s with stage = Switching; n1 = nrecv; n2 = s.n1; n3 = s.n2 }
  else if s.decided_flag && 10 * (s.n3 - nrecv) <= s.n2 then
    (* Stable population for three rounds: stop, outputting b.
       The window deliberately reaches back to N^(r-3): it bounds the kills
       of rounds r-2..r by N^(r-2)/10, which is exactly the slack between
       the decide threshold (7/10) and the propose threshold (6/10). If p
       decided b=1 at round r-1 it saw ones > 0.7*N^(r-2); any survivor q
       saw ones_q >= ones_p - k_{r-1} over N_q <= N^(r-2) + k_{r-2}
       processes, so k_{r-1} + 0.6*k_{r-2} <= 0.1*N^(r-2) guarantees q at
       least proposed 1 before p stops — agreement with probability 1.
       A shorter window over only N^(r-2), N^(r-1) bounds k_{r-1} alone and
       is unsound: under the band voting attack at n=192 it yields real
       agreement violations (see the trial-30 regression in test_synran). *)
    { s with output = Some s.b; halted = true; n1 = nrecv; n2 = s.n1; n3 = s.n2 }
  else begin
    let b, decided_flag =
      match Onesided.classify s.rules ~ones ~zeros ~n_prev:s.n1 with
      | Onesided.Decide v -> (v, true)
      | Onesided.Propose v -> (v, false)
      | Onesided.Flip -> (flip_value (), false)
    in
    {
      s with
      b;
      decided_flag;
      has_zero = b = 0;
      has_one = b = 1;
      n1 = nrecv;
      n2 = s.n1;
      n3 = s.n2;
    }
  end

(* Merge the round's broadcast values and value-sets into W (Lemma 4.3's
   FloodSet union). *)
let merged_values s ~acc =
  (s.has_zero || acc.a_saw_zero, s.has_one || acc.a_saw_one)

let step_switching s ~acc =
  let has_zero, has_one = merged_values s ~acc in
  { s with stage = Deterministic { left = s.det_rounds }; has_zero; has_one }

let step_deterministic s ~left ~acc =
  let has_zero, has_one = merged_values s ~acc in
  let left = left - 1 in
  if left = 0 then
    let v = det_decision ~has_zero ~has_one in
    {
      s with
      stage = Deterministic { left };
      has_zero;
      has_one;
      b = v;
      output = Some v;
      halted = true;
    }
  else { s with stage = Deterministic { left }; has_zero; has_one }

(* ------------------------------------------------------------------ *)
(* Bit-plane operations                                                *)
(* ------------------------------------------------------------------ *)

(* Register layout: bit 0 = b, bit 1 = coin, bit 2 = has_zero, bit 3 =
   has_one; everything else is template-uniform across active processes.
   Two invariants carry the reconstruction:
   - an active process's [output] is [None] or [Some b] — output is only
     assigned at the two halt points, each time from b — so [bo_unpack]
     rebuilds the value from the b register and the template's is-Some;
   - own messages are always delivered, so a process's own has_zero /
     has_one is subsumed by the round's sender tallies and the merged
     value set of Lemma 4.3 is the same for every receiver — which is
     what makes the Switching/Deterministic transitions uniform [Fill]s. *)

let bo_pack s =
  s.b lor (s.coin lsl 1)
  lor ((if s.has_zero then 1 else 0) lsl 2)
  lor ((if s.has_one then 1 else 0) lsl 3)

let bo_unpack t regs =
  let b = regs land 1 in
  {
    t with
    b;
    coin = (regs lsr 1) land 1;
    has_zero = (regs lsr 2) land 1 = 1;
    has_one = (regs lsr 3) land 1 = 1;
    output = (match t.output with None -> None | Some _ -> Some b);
  }

(* Non-register fields only; [output] compares by is-Some because its
   value is register-derived (always the owner's b). *)
let bo_uniform s1 s2 =
  Bool.equal s1.decided_flag s2.decided_flag
  && Bool.equal (Option.is_some s1.output) (Option.is_some s2.output)
  && Bool.equal s1.halted s2.halted
  && (match (s1.stage, s2.stage) with
     | Probabilistic, Probabilistic | Switching, Switching -> true
     | Deterministic { left = l1 }, Deterministic { left = l2 } -> l1 = l2
     | (Probabilistic | Switching | Deterministic _), _ -> false)
  && s1.n1 = s2.n1 && s1.n2 = s2.n2 && s1.n3 = s2.n3
  && s1.rules == s2.rules
  && (match (s1.coin_mode, s2.coin_mode) with
     | Local_flip, Local_flip | Leader_priority, Leader_priority -> true
     | Shared_oracle a, Shared_oracle b -> a = b
     | (Local_flip | Leader_priority | Shared_oracle _), _ -> false)
  && Float.equal s1.threshold s2.threshold
  && s1.det_rounds = s2.det_rounds

let bo_msg s ~priv =
  let det =
    match s.stage with
    | Deterministic _ -> Some (s.has_zero, s.has_one)
    | Probabilistic | Switching -> None
  in
  { bit = s.b; prio = priv; det }

let keep4 = [| Sim.Protocol.Keep; Keep; Keep; Keep |]

(* The word-level [finish]: tallies.(0/2/3) count senders with b /
   has_zero / has_one set. Everything [step_probabilistic] and friends
   read from the accumulator is recoverable from those counts — except
   the leader argmax, so Leader_priority flip rounds return [None] and
   run through the scalar fallback. *)
let bo_step s ~round ~nrecv ~tallies =
  let ones = tallies.(0) in
  let zeros = nrecv - ones in
  match s.stage with
  | Switching ->
      (* [merged_values]: det words are all (false, false) here and own b
         is among the senders, so the merge is the sender-value OR. *)
      Some
        {
          Sim.Protocol.ws_state =
            { s with stage = Deterministic { left = s.det_rounds } };
          ws_regs = [| Keep; Keep; Fill (zeros > 0); Fill (ones > 0) |];
          ws_decide = None;
          ws_halt = false;
        }
  | Deterministic { left } ->
      let hz = zeros > 0 || tallies.(2) > 0 in
      let ho = ones > 0 || tallies.(3) > 0 in
      let left = left - 1 in
      if left = 0 then
        let v = det_decision ~has_zero:hz ~has_one:ho in
        Some
          {
            Sim.Protocol.ws_state =
              {
                s with
                stage = Deterministic { left };
                output = Some 0 (* value rebuilt from b by bo_unpack *);
                halted = true;
              };
            ws_regs = [| Fill (v = 1); Keep; Fill hz; Fill ho |];
            ws_decide = Some (Decide_const v);
            ws_halt = true;
          }
      else
        Some
          {
            Sim.Protocol.ws_state = { s with stage = Deterministic { left } };
            ws_regs = [| Keep; Keep; Fill hz; Fill ho |];
            ws_decide = None;
            ws_halt = false;
          }
  | Probabilistic ->
      if float_of_int nrecv < s.threshold then
        Some
          {
            Sim.Protocol.ws_state =
              { s with stage = Switching; n1 = nrecv; n2 = s.n1; n3 = s.n2 };
            ws_regs = keep4;
            ws_decide = None;
            ws_halt = false;
          }
      else if s.decided_flag && 10 * (s.n3 - nrecv) <= s.n2 then
        Some
          {
            Sim.Protocol.ws_state =
              {
                s with
                output = Some 0 (* value rebuilt from b by bo_unpack *);
                halted = true;
                n1 = nrecv;
                n2 = s.n1;
                n3 = s.n2;
              };
            ws_regs = keep4;
            ws_decide = Some (Decide_reg 0);
            ws_halt = true;
          }
      else begin
        let shifted = { s with n1 = nrecv; n2 = s.n1; n3 = s.n2 } in
        let classified v decided_flag =
          Some
            {
              Sim.Protocol.ws_state = { shifted with decided_flag };
              ws_regs = [| Fill (v = 1); Keep; Fill (v = 0); Fill (v = 1) |];
              ws_decide = None;
              ws_halt = false;
            }
        in
        match Onesided.classify s.rules ~ones ~zeros ~n_prev:s.n1 with
        | Onesided.Decide v -> classified v true
        | Onesided.Propose v -> classified v false
        | Onesided.Flip -> (
            match s.coin_mode with
            | Local_flip ->
                (* b := coin; the value set keeps tracking b. *)
                Some
                  {
                    Sim.Protocol.ws_state = { shifted with decided_flag = false };
                    ws_regs = [| Copy 1; Keep; Not 1; Copy 1 |];
                    ws_decide = None;
                    ws_halt = false;
                  }
            | Shared_oracle seed -> classified (oracle_bit ~seed ~round) false
            | Leader_priority ->
                (* The flip needs the max-(prio, pid) leader's bit — a
                   per-process scan of the private payloads. *)
                None)
      end

let bitops =
  {
    Sim.Protocol.bo_width = 4;
    bo_pack;
    bo_unpack;
    bo_uniform;
    bo_coin_reg = Some 1;
    bo_aux_draw = Some (fun _ rng -> Prng.Rng.int rng 1_000_000_000);
    bo_msg;
    bo_step;
  }

let protocol ?(rules = Onesided.paper) ?(coin = Local_flip) n =
  Onesided.validate rules;
  if n < 1 then invalid_arg "Synran.protocol";
  let threshold = switch_threshold ~n in
  let det_rounds = det_stage_rounds ~n in
  let init ~n:n' ~pid:_ ~input =
    if n' <> n then invalid_arg "Synran.protocol: built for a different n";
    {
      rules;
      coin_mode = coin;
      threshold;
      det_rounds;
      b = input;
      coin = 0;
      decided_flag = false;
      output = None;
      halted = false;
      stage = Probabilistic;
      has_zero = input = 0;
      has_one = input = 1;
      n1 = n;
      n2 = n;
      n3 = n;
    }
  in
  let phase_a s rng =
    (* Pre-draw this round's potential flip and this round's leader
       priority: the adversary legitimately sees every coin before choosing
       kills (full-information model). *)
    let s = { s with coin = Prng.Rng.bit rng } in
    let prio = Prng.Rng.int rng 1_000_000_000 in
    let det =
      match s.stage with
      | Deterministic _ -> Some (s.has_zero, s.has_one)
      | Probabilistic | Switching -> None
    in
    (s, { bit = s.b; prio; det })
  in
  let finish s ~round acc =
    match s.stage with
    | Probabilistic -> step_probabilistic s ~round ~acc
    | Switching -> step_switching s ~acc
    | Deterministic { left } -> step_deterministic s ~left ~acc
  in
  Sim.Protocol.with_bitops
    {
      Sim.Protocol.name =
        Printf.sprintf "synran[%s%s,n=%d]" rules.Onesided.label
          (match coin with
          | Local_flip -> ""
          | Leader_priority -> ",leader"
          | Shared_oracle _ -> ",oracle")
          n;
      init;
      phase_a;
      decision = (fun s -> s.output);
      halted = (fun s -> s.halted);
      aggregate = Aggregate { init = acc_init; absorb = acc_absorb; finish };
      bitops = None;
    }
    bitops
