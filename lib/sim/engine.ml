exception Budget_exceeded of string
exception Invalid_kill of string
exception Decision_changed of string

type ('state, 'msg) exec = {
  protocol : ('state, 'msg) Protocol.t;
  n : int;
  t : int;
  states : 'state array;
  alive : bool array;
  halted : bool array;
  decisions : int option array;
  decision_round : int array;  (* -1 = undecided *)
  proc_rngs : Prng.Rng.t array;
  mutable adv_rng : Prng.Rng.t;
  mutable round : int;
  mutable kills_used : int;
  trace : Trace.t option;
  sink : Obs.Sink.t;
  observer : ('msg -> bool) option;
  (* Round-scoped scratch, reused across rounds to keep honest-round
     allocation O(1). Contents are dead between steps; each buffer is
     cleared before use. *)
  pending : 'msg option array;
  killed : bool array;
  kill_seen : bool array;
}

type outcome = {
  rounds_executed : int;
  rounds_to_decide : int option;
  decisions : int option array;
  faulty : bool array;
  halted : bool array;
  kills_used : int;
  quiescent : bool;
  trace : Trace.t option;
}

let start ?(record_trace = false) ?observer ?(sink = Obs.Sink.null) protocol
    ~inputs ~t ~rng =
  let n = Array.length inputs in
  if n = 0 then invalid_arg "Engine.start: no processes";
  if t < 0 || t > n then invalid_arg "Engine.start: budget out of [0, n]";
  Array.iter
    (fun b -> if b <> 0 && b <> 1 then invalid_arg "Engine.start: inputs must be bits")
    inputs;
  let trace = if record_trace then Some (Trace.create ~n) else None in
  (* The trace is a façade: it consumes the same Round events as any
     caller-supplied sink, through a tee. With neither, the effective sink
     is [null] and every emission site reduces to one boolean load. *)
  let sink =
    match trace with None -> sink | Some tr -> Obs.Sink.tee (Trace.sink tr) sink
  in
  (* The adversary's stream is split off first, then one per process. *)
  let adv_rng = Prng.Rng.split rng in
  let proc_rngs = Prng.Rng.split_n rng n in
  {
    protocol;
    n;
    t;
    states = Array.mapi (fun pid input -> protocol.Protocol.init ~n ~pid ~input) inputs;
    alive = Array.make n true;
    halted = Array.make n false;
    decisions = Array.make n None;
    decision_round = Array.make n (-1);
    proc_rngs;
    adv_rng;
    round = 0;
    kills_used = 0;
    trace;
    sink;
    observer;
    pending = Array.make n None;
    killed = Array.make n false;
    kill_seen = Array.make n false;
  }

let active_at e i = e.alive.(i) && not e.halted.(i)

let active_count e =
  let c = ref 0 in
  for i = 0 to e.n - 1 do
    if active_at e i then incr c
  done;
  !c

let alive_count e =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 e.alive

let budget_left e = e.t - e.kills_used

let validate_kills e kills =
  let seen = e.kill_seen in
  Array.fill seen 0 e.n false;
  List.iter
    (fun { Adversary.victim; deliver_to } ->
      if victim < 0 || victim >= e.n then
        raise (Invalid_kill (Printf.sprintf "victim %d out of range" victim));
      if not (active_at e victim) then
        raise (Invalid_kill (Printf.sprintf "victim %d is not active" victim));
      if seen.(victim) then
        raise (Invalid_kill (Printf.sprintf "victim %d named twice" victim));
      seen.(victim) <- true;
      List.iter
        (fun r ->
          if r < 0 || r >= e.n then
            raise (Invalid_kill (Printf.sprintf "recipient %d out of range" r)))
        deliver_to)
    kills;
  let count = List.length kills in
  if count > budget_left e then
    raise
      (Budget_exceeded
         (Printf.sprintf "round %d: %d kills requested, %d left" (e.round + 1)
            count (budget_left e)))

let phase_a e =
  let pending = e.pending in
  Array.fill pending 0 e.n None;
  for i = 0 to e.n - 1 do
    if active_at e i then begin
      let state', msg = e.protocol.Protocol.phase_a e.states.(i) e.proc_rngs.(i) in
      e.states.(i) <- state';
      pending.(i) <- Some msg
    end
  done

(* Zero-copy: the accessors read the live arrays, which the engine does
   not touch until [plan] returns. *)
let view e ~round =
  {
    Adversary.round;
    n = e.n;
    t = e.t;
    budget_left = budget_left e;
    alive = (fun i -> e.alive.(i));
    active = (fun i -> active_at e i);
    state = (fun i -> e.states.(i));
    pending = (fun i -> e.pending.(i));
    decision = (fun i -> e.decisions.(i));
  }

let phase_b e kills ~round =
  (* An empty plan is vacuously valid. *)
  if kills <> [] then validate_kills e kills;
  let pending = e.pending in
  let killed = e.killed in
  Array.fill killed 0 e.n false;
  List.iter (fun k -> killed.(k.Adversary.victim) <- true) kills;
  (* Receiver j gets sender i's message iff i was active and either
     survived, or is j itself (own value is always counted), or was killed
     but the adversary let the i->j message through. The survivors are
     folded once into a base shared by every receiver; a partial send adds
     a per-receiver delta on top, listed by descending victim id. Sound
     because [absorb] is commutative (Protocol contract). *)
  let deltas =
    match List.filter (fun k -> k.Adversary.deliver_to <> []) kills with
    | [] -> None
    | partial ->
        let d = Array.make e.n [] and seen = Array.make e.n false in
        List.iter
          (fun { Adversary.victim; deliver_to } ->
            match pending.(victim) with
            | None -> ()
            | Some m ->
                (* A recipient named twice still hears the victim once. *)
                List.iter
                  (fun j ->
                    if not seen.(j) then begin
                      seen.(j) <- true;
                      d.(j) <- (victim, m) :: d.(j)
                    end)
                  deliver_to;
                List.iter (fun j -> seen.(j) <- false) deliver_to)
          (List.sort
             (fun a b -> Int.compare a.Adversary.victim b.Adversary.victim)
             partial);
        Some d
  in
  let delivered = ref 0 in
  let newly_decided = ref 0 in
  let newly_halted = ref 0 in
  (* One boolean load per round decides whether any event is built. *)
  let emit_on = Obs.Sink.enabled e.sink in
  (* Decision discipline, halting, counters. *)
  let commit j state' =
    let before = e.decisions.(j) in
    let after = e.protocol.Protocol.decision state' in
    (match (before, after) with
    | Some v, Some v' when v <> v' ->
        raise
          (Decision_changed
             (Printf.sprintf "process %d changed decision %d -> %d" j v v'))
    | Some v, None ->
        raise
          (Decision_changed (Printf.sprintf "process %d revoked decision %d" j v))
    | None, Some v ->
        incr newly_decided;
        e.decision_round.(j) <- round;
        if emit_on then
          Obs.Sink.emit e.sink
            (Obs.Event.Decision
               { engine = Obs.Event.Sync; round; pid = j; value = v })
    | None, None | Some _, Some _ -> ());
    e.decisions.(j) <- after;
    if e.protocol.Protocol.halted state' && not e.halted.(j) then begin
      if after = None then
        raise
          (Decision_changed
             (Printf.sprintf "process %d halted without deciding" j));
      incr newly_halted;
      e.halted.(j) <- true
    end;
    e.states.(j) <- state'
  in
  let (Protocol.Aggregate a) = e.protocol.Protocol.aggregate in
  let base = ref (a.init ()) in
  let nsurvivors = ref 0 in
  for i = 0 to e.n - 1 do
    match pending.(i) with
    | Some m when not killed.(i) ->
        base := a.absorb !base ~pid:i m;
        incr nsurvivors
    | _ -> ()
  done;
  let base = !base in
  for j = 0 to e.n - 1 do
    if active_at e j && not killed.(j) then begin
      let acc =
        match deltas with
        | None -> base
        | Some d ->
            List.fold_left
              (fun acc (i, m) ->
                incr delivered;
                a.absorb acc ~pid:i m)
              base d.(j)
      in
      delivered := !delivered + !nsurvivors;
      commit j (a.finish e.states.(j) ~round acc)
    end
  done;
  (* Victims are dead from now on. *)
  let kill_count = ref 0 and partial_count = ref 0 in
  List.iter
    (fun { Adversary.victim; deliver_to } ->
      e.alive.(victim) <- false;
      incr kill_count;
      if deliver_to <> [] then incr partial_count;
      if emit_on then
        Obs.Sink.emit e.sink
          (Obs.Event.Kill
             {
               engine = Obs.Event.Sync;
               round;
               victim;
               delivered_to = List.length deliver_to;
             }))
    kills;
  e.kills_used <- e.kills_used + !kill_count;
  e.round <- round;
  if emit_on then begin
    let ones =
      match e.observer with
      | None -> None
      | Some f ->
          Some
            (Array.fold_left
               (fun acc m -> match m with Some m when f m -> acc + 1 | _ -> acc)
               0 pending)
    in
    let victims =
      kills |> List.map (fun k -> k.Adversary.victim) |> List.sort Int.compare
      |> Array.of_list
    in
    Obs.Sink.emit e.sink
      (Obs.Event.Round
         {
           engine = Obs.Event.Sync;
           round;
           active =
             Array.fold_left
               (fun acc m -> if Option.is_some m then acc + 1 else acc)
               0 pending;
           victims;
           partial_sends = !partial_count;
           delivered = !delivered;
           newly_decided = !newly_decided;
           newly_halted = !newly_halted;
           ones_pending = ones;
         })
  end

let step e adversary =
  if active_count e = 0 then `Quiescent
  else begin
    let round = e.round + 1 in
    phase_a e;
    (* The adversary observes everything and picks its kills. *)
    phase_b e (adversary.Adversary.plan (view e ~round) e.adv_rng) ~round;
    `Continue
  end

let run_until e adversary ~max_rounds =
  let rec loop () =
    if e.round >= max_rounds then ()
    else match step e adversary with `Quiescent -> () | `Continue -> loop ()
  in
  loop ()

let outcome e =
  let rounds_to_decide =
    let vacuous = alive_count e = 0 in
    if vacuous then Some e.round
    else begin
      let worst = ref 0 and all = ref true in
      for i = 0 to e.n - 1 do
        if e.alive.(i) then
          if e.decision_round.(i) < 0 then all := false
          else if e.decision_round.(i) > !worst then worst := e.decision_round.(i)
      done;
      if !all then Some !worst else None
    end
  in
  {
    rounds_executed = e.round;
    rounds_to_decide;
    decisions = Array.copy e.decisions;
    faulty = Array.map not e.alive;
    halted = Array.copy e.halted;
    kills_used = e.kills_used;
    quiescent = active_count e = 0;
    trace = e.trace;
  }

let run ?record_trace ?observer ?sink ?(max_rounds = 10_000) protocol adversary
    ~inputs ~t ~rng =
  let e = start ?record_trace ?observer ?sink protocol ~inputs ~t ~rng in
  run_until e adversary ~max_rounds;
  outcome e

let snapshot e =
  {
    e with
    states = Array.copy e.states;
    alive = Array.copy e.alive;
    halted = Array.copy e.halted;
    decisions = Array.copy e.decisions;
    decision_round = Array.copy e.decision_round;
    proc_rngs = Array.map Prng.Rng.copy e.proc_rngs;
    adv_rng = Prng.Rng.copy e.adv_rng;
    trace = None;
    (* Observation does not survive the copy: the Monte-Carlo valency
       continuations step snapshots thousands of times and must stay on
       the zero-cost path (and must not interleave phantom events into
       the original's stream). *)
    sink = Obs.Sink.null;
    (* Scratch is dead between steps but must not be shared: the copy and
       the original may be stepped independently. *)
    pending = Array.make e.n None;
    killed = Array.make e.n false;
    kill_seen = Array.make e.n false;
  }

let reseed e rng =
  for i = 0 to e.n - 1 do
    e.proc_rngs.(i) <- Prng.Rng.split rng
  done;
  e.adv_rng <- Prng.Rng.split rng

let round (e : _ exec) = e.round

let n (e : _ exec) = e.n

let kills_used (e : _ exec) = e.kills_used

let alive (e : _ exec) = Array.copy e.alive

let active_mask (e : _ exec) = Array.init e.n (active_at e)

let states (e : _ exec) = Array.copy e.states

let decisions (e : _ exec) = Array.copy e.decisions
