(* Test-only oracles for the async engine: the list-materialising engine
   loop and the full-scan splitter that [Async.Engine.run] and
   [Async.Benor.splitter] replaced. Every step rebuilds the send-ordered
   pending list and copies [crashed] / [decisions]; the splitter scores
   every pending message on every pick. They are O(P + n) per step and
   exist only so [async.differential] can pin the indexed versions to
   them. *)

let run (type s m) ?(max_steps = 200_000) ?phase_of ?(sink = Obs.Sink.null)
    (protocol : (s, m) Async.Protocol.t) (scheduler : m Async.Scheduler.t)
    ~inputs ~t ~rng =
  let emit_on = Obs.Sink.enabled sink in
  let n = Array.length inputs in
  if n = 0 then invalid_arg "Async_reference.run: no processes";
  if t < 0 || t >= n then invalid_arg "Async_reference.run: bad budget";
  let crashed = Array.make n false in
  let decisions = Array.make n None in
  let proc_rngs = Prng.Rng.split_n rng n in
  let sched_rng = Prng.Rng.split rng in
  let pending : (int, m Async.Scheduler.in_flight) Hashtbl.t =
    Hashtbl.create 256
  in
  let rev_pending : m Async.Scheduler.in_flight list ref = ref [] in
  let live m = Hashtbl.mem pending m.Async.Scheduler.id in
  let pending_view () =
    let view = List.rev (List.filter live !rev_pending) in
    if 2 * List.length view < List.length !rev_pending then
      rev_pending := List.filter live !rev_pending;
    view
  in
  let next_id = ref 0 in
  let sends = ref 0 in
  let deliveries = ref 0 in
  let crash_budget = ref t in
  let enqueue src (sendlist : m Async.Protocol.send list) =
    List.iter
      (fun { Async.Protocol.dst; payload } ->
        if dst < 0 || dst >= n then
          invalid_arg "Async_reference.run: protocol sent out of range";
        incr sends;
        if not crashed.(dst) then begin
          let id = !next_id in
          incr next_id;
          let m = { Async.Scheduler.id; src; dst; payload } in
          Hashtbl.replace pending id m;
          rev_pending := m :: !rev_pending
        end)
      sendlist
  in
  let states =
    Array.init n (fun pid ->
        let state, sendlist =
          protocol.Async.Protocol.init ~n ~pid ~input:inputs.(pid)
        in
        enqueue pid sendlist;
        state)
  in
  let record_decision pid state ~step =
    let after = protocol.Async.Protocol.decision state in
    match (decisions.(pid), after) with
    | Some v, Some v' when v <> v' ->
        raise (Async.Engine.Decision_changed "changed")
    | Some _, None -> raise (Async.Engine.Decision_changed "revoked")
    | None, Some v ->
        decisions.(pid) <- after;
        if emit_on then
          Obs.Sink.emit sink
            (Obs.Event.Decision
               { engine = Obs.Event.Async; round = step; pid; value = v })
    | _, after -> decisions.(pid) <- after
  in
  let all_live_decided () =
    let ok = ref true in
    for i = 0 to n - 1 do
      if (not crashed.(i)) && decisions.(i) = None then ok := false
    done;
    !ok
  in
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < max_steps do
    if Hashtbl.length pending = 0 || all_live_decided () then continue := false
    else begin
      incr steps;
      let pending_list = pending_view () in
      let crashed_copy = Array.copy crashed in
      let decided_copy = Array.copy decisions in
      let view =
        {
          Async.Scheduler.n;
          t;
          crash_budget_left = !crash_budget;
          steps_taken = !steps;
          crashed = (fun i -> crashed_copy.(i));
          decided = (fun i -> decided_copy.(i));
          pending_count = List.length pending_list;
          nth_pending = List.nth pending_list;
          find_pending =
            (fun id ->
              List.find_opt (fun m -> m.Async.Scheduler.id = id) pending_list);
          iter_pending = (fun f -> List.iter f pending_list);
        }
      in
      match scheduler.Async.Scheduler.pick view sched_rng with
      | Async.Scheduler.Crash pid ->
          if pid < 0 || pid >= n || crashed.(pid) || !crash_budget <= 0 then
            raise (Async.Engine.Invalid_action "crash");
          decr crash_budget;
          crashed.(pid) <- true;
          if emit_on then
            Obs.Sink.emit sink
              (Obs.Event.Kill
                 {
                   engine = Obs.Event.Async;
                   round = !steps;
                   victim = pid;
                   delivered_to = 0;
                 });
          Hashtbl.fold
            (fun id m acc ->
              if m.Async.Scheduler.src = pid || m.Async.Scheduler.dst = pid
              then id :: acc
              else acc)
            pending []
          |> List.sort Int.compare
          |> List.iter (Hashtbl.remove pending)
      | Async.Scheduler.Deliver id -> (
          match Hashtbl.find_opt pending id with
          | None -> raise (Async.Engine.Invalid_action "deliver")
          | Some m ->
              Hashtbl.remove pending id;
              let dst = m.Async.Scheduler.dst in
              if not crashed.(dst) then begin
                incr deliveries;
                let state', sendlist =
                  protocol.Async.Protocol.on_message states.(dst)
                    ~sender:m.Async.Scheduler.src m.Async.Scheduler.payload
                    proc_rngs.(dst)
                in
                states.(dst) <- state';
                record_decision dst state' ~step:!steps;
                enqueue dst sendlist
              end)
    end
  done;
  let coin_flips =
    Array.fold_left
      (fun acc s -> acc + protocol.Async.Protocol.coin_flips s)
      0 states
  in
  let max_phase =
    Option.map
      (fun f ->
        Array.to_list states
        |> List.mapi (fun i s -> if crashed.(i) then 0 else f s)
        |> List.fold_left Int.max 0)
      phase_of
  in
  {
    Async.Engine.decisions = Array.copy decisions;
    crashed = Array.copy crashed;
    deliveries = !deliveries;
    sends = !sends;
    coin_flips;
    all_decided = all_live_decided ();
    steps = !steps;
    max_phase;
    pending_touched = 0;
  }

(* The splitter as a full scan: score every pending message, deliver the
   first (in send order) with the lowest score. *)

type counters = { mutable zeros : int; mutable ones : int }

let splitter () =
  let delivered : (int * int, counters) Hashtbl.t = Hashtbl.create 64 in
  let get key =
    match Hashtbl.find_opt delivered key with
    | Some c -> c
    | None ->
        let c = { zeros = 0; ones = 0 } in
        Hashtbl.replace delivered key c;
        c
  in
  let pick view _rng =
    if view.Async.Scheduler.steps_taken <= 1 then Hashtbl.reset delivered;
    let half = view.Async.Scheduler.n / 2 in
    let score (m : Async.Benor.msg Async.Scheduler.in_flight) =
      match m.Async.Scheduler.payload with
      | Async.Benor.Proposal { v = None; _ } -> 0
      | Async.Benor.Report { phase; v } ->
          let c = get (m.Async.Scheduler.dst, phase) in
          let same = if v = 1 then c.ones else c.zeros in
          let other = if v = 1 then c.zeros else c.ones in
          if same >= half then 3 else if same <= other then 1 else 2
      | Async.Benor.Proposal { v = Some _; _ } -> 4
    in
    let best = ref None in
    view.Async.Scheduler.iter_pending (fun m ->
        let sc = score m in
        match !best with
        | Some (_, best_sc) when best_sc <= sc -> ()
        | _ -> best := Some (m, sc));
    match !best with
    | None -> assert false
    | Some (m, _) ->
        (match m.Async.Scheduler.payload with
        | Async.Benor.Report { phase; v } ->
            let c = get (m.Async.Scheduler.dst, phase) in
            if v = 1 then c.ones <- c.ones + 1 else c.zeros <- c.zeros + 1
        | Async.Benor.Proposal _ -> ());
        Async.Scheduler.Deliver m.Async.Scheduler.id
  in
  { Async.Scheduler.name = "splitter-full-scan"; pick }
