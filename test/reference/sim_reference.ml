(* The materialized exchange: receiver j's delivered array is rebuilt from
   scratch every round, senders ascending, and the aggregate is folded
   over it in that order. Deliberately naive: the only goal is to spell
   the round of Section 3.1 independently of Sim.Engine. *)

let run (type s m) ?(record_trace = false) ?observer ?(max_rounds = 10_000)
    (protocol : (s, m) Sim.Protocol.t) (adversary : (s, m) Sim.Adversary.t)
    ~inputs ~t ~rng =
  let n = Array.length inputs in
  if n = 0 then invalid_arg "Sim_reference.run: no processes";
  if t < 0 || t > n then invalid_arg "Sim_reference.run: budget out of [0, n]";
  let (Sim.Protocol.Aggregate agg) = protocol.Sim.Protocol.aggregate in
  let adv_rng = Prng.Rng.split rng in
  let proc_rngs = Prng.Rng.split_n rng n in
  let states =
    Array.mapi (fun pid input -> protocol.Sim.Protocol.init ~n ~pid ~input) inputs
  in
  let alive = Array.make n true in
  let halted = Array.make n false in
  let decisions = Array.make n None in
  let decision_round = Array.make n (-1) in
  let trace = if record_trace then Some (Sim.Trace.create ~n) else None in
  let round = ref 0 and kills_used = ref 0 in
  let active i = alive.(i) && not halted.(i) in
  let any_active () = List.exists active (List.init n Fun.id) in
  while !round < max_rounds && any_active () do
    let r = !round + 1 in
    let pending =
      Array.init n (fun i ->
          if active i then begin
            let s, msg = protocol.Sim.Protocol.phase_a states.(i) proc_rngs.(i) in
            states.(i) <- s;
            Some msg
          end
          else None)
    in
    let view =
      {
        Sim.Adversary.round = r;
        n;
        t;
        budget_left = t - !kills_used;
        alive = (fun i -> alive.(i));
        active;
        state = (fun i -> states.(i));
        pending = (fun i -> pending.(i));
        decision = (fun i -> decisions.(i));
      }
    in
    let kills = adversary.Sim.Adversary.plan view adv_rng in
    let victims = List.map (fun k -> k.Sim.Adversary.victim) kills in
    List.iter
      (fun v -> if v < 0 || v >= n || not (active v) then failwith "bad victim")
      victims;
    if List.length (List.sort_uniq Int.compare victims) <> List.length victims
    then failwith "victim named twice";
    if List.length victims > t - !kills_used then failwith "budget exceeded";
    let killed i = List.mem i victims in
    let gets ~sender:i ~receiver:j =
      (not (killed i))
      || i = j
      || List.exists
           (fun k -> k.Sim.Adversary.victim = i && List.mem j k.deliver_to)
           kills
    in
    let delivered = ref 0 and newly_decided = ref 0 and newly_halted = ref 0 in
    for j = 0 to n - 1 do
      if active j && not (killed j) then begin
        let received =
          List.filter_map
            (fun i ->
              match pending.(i) with
              | Some m when gets ~sender:i ~receiver:j -> Some (i, m)
              | _ -> None)
            (List.init n Fun.id)
        in
        delivered := !delivered + List.length received;
        let acc =
          List.fold_left
            (fun acc (i, m) -> agg.absorb acc ~pid:i m)
            (agg.init ()) received
        in
        let s = agg.finish states.(j) ~round:r acc in
        let d = protocol.Sim.Protocol.decision s in
        (match (decisions.(j), d) with
        | None, Some _ ->
            incr newly_decided;
            decision_round.(j) <- r
        | Some v, Some v' when v = v' -> ()
        | Some _, _ -> failwith "decision changed"
        | None, None -> ());
        decisions.(j) <- d;
        if protocol.Sim.Protocol.halted s && not halted.(j) then begin
          if d = None then failwith "halted without deciding";
          incr newly_halted;
          halted.(j) <- true
        end;
        states.(j) <- s
      end
    done;
    List.iter (fun v -> alive.(v) <- false) victims;
    kills_used := !kills_used + List.length victims;
    round := r;
    Option.iter
      (fun tr ->
        let count f =
          Array.fold_left
            (fun c m -> match m with Some m when f m -> c + 1 | _ -> c)
            0 pending
        in
        Sim.Trace.record tr
          {
            Sim.Trace.round = r;
            active_before = count (fun _ -> true);
            killed = Array.of_list (List.sort Int.compare victims);
            partial_sends =
              List.length
                (List.filter (fun k -> k.Sim.Adversary.deliver_to <> []) kills);
            messages_delivered = !delivered;
            newly_decided = !newly_decided;
            newly_halted = !newly_halted;
            ones_pending = Option.map count observer;
          })
      trace
  done;
  let rounds_to_decide =
    if not (Array.exists Fun.id alive) then Some !round
    else if
      Array.for_all Fun.id
        (Array.mapi (fun i a -> (not a) || decision_round.(i) >= 0) alive)
    then
      Some
        (Array.fold_left max 0
           (Array.mapi (fun i a -> if a then decision_round.(i) else 0) alive))
    else None
  in
  {
    Sim.Engine.rounds_executed = !round;
    rounds_to_decide;
    decisions;
    faulty = Array.map not alive;
    halted;
    kills_used = !kills_used;
    quiescent = not (any_active ());
    trace;
  }
