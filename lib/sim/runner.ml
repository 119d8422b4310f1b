type summary = {
  trials : int;
  rounds : Stats.Welford.t;
  rounds_hist : Stats.Histogram.t;
  kills : Stats.Welford.t;
  decided_zero : int;
  decided_one : int;
  non_terminating : int;
  safety_errors : string list;
}

let mean_rounds s = Stats.Welford.mean s.rounds

let input_gen_random ~n rng = Prng.Sample.random_bits rng n

let input_gen_const ~n v _rng = Array.make n v

let input_gen_split ~n rng =
  let a = Array.init n (fun i -> if i < n / 2 then 0 else 1) in
  Prng.Sample.shuffle rng a;
  a

let consensus_value (o : Engine.outcome) =
  let v = ref None in
  Array.iter
    (fun d -> match (d, !v) with Some d, None -> v := Some d | _ -> ())
    o.decisions;
  !v

(* Observability slice of a chunk accumulator. Plain data only (the acc is
   checkpointed with Marshal, which rejects closures): per-trial sinks are
   rebuilt inside [work] around these and never stored. *)
type obs_scope = {
  om : Obs.Metrics.t;
  orec : Obs.Recorder.t;
  oevents : bool;  (* also record the raw stream, not just metrics *)
}

(* Per-chunk accumulator; merged in chunk order by Parallel.fold_chunks, so
   the summary is identical for every worker count. *)
type acc = {
  acc_rounds : Stats.Welford.t;
  acc_hist : Stats.Histogram.t;
  acc_kills : Stats.Welford.t;
  mutable acc_zero : int;
  mutable acc_one : int;
  mutable acc_nonterm : int;
  mutable acc_errors_rev : string list list;
      (* one in-order error list per offending trial, most recent first *)
  acc_obs : obs_scope option;
}

let acc_create ?capture () =
  {
    acc_rounds = Stats.Welford.create ();
    acc_hist = Stats.Histogram.create ();
    acc_kills = Stats.Welford.create ();
    acc_zero = 0;
    acc_one = 0;
    acc_nonterm = 0;
    acc_errors_rev = [];
    acc_obs =
      Option.map
        (fun c ->
          {
            om = Obs.Metrics.create ();
            orec = Obs.Recorder.create ();
            oevents = Obs.Capture.record_events c;
          })
        capture;
  }

let acc_merge a b =
  {
    acc_rounds = Stats.Welford.merge a.acc_rounds b.acc_rounds;
    acc_hist = Stats.Histogram.merge a.acc_hist b.acc_hist;
    acc_kills = Stats.Welford.merge a.acc_kills b.acc_kills;
    acc_zero = a.acc_zero + b.acc_zero;
    acc_one = a.acc_one + b.acc_one;
    acc_nonterm = a.acc_nonterm + b.acc_nonterm;
    acc_errors_rev = b.acc_errors_rev @ a.acc_errors_rev;
    acc_obs =
      (match (a.acc_obs, b.acc_obs) with
      | Some x, Some y ->
          Some
            {
              om = Obs.Metrics.merge x.om y.om;
              orec = Obs.Recorder.merge x.orec y.orec;
              oevents = x.oevents;
            }
      | _, _ -> None);
  }

(* Feed one event into a chunk's observability slice. *)
let obs_note o ev =
  Obs.Metrics.absorb_event o.om ev;
  if o.oevents then Obs.Recorder.push o.orec ev

let obs_sink o = Obs.Sink.create (obs_note o)

type report = {
  partial : summary option;
  completed_trials : int;
  total_trials : int;
  chunks_done : int;
  chunks_total : int;
  chunks_resumed : int;
  retried : Parallel.chunk_failed list;
  failures : Parallel.chunk_failed list;
  cancelled : bool;
  engine_used : string;
}

let engine_name = function
  | `Concrete -> "concrete"
  | `Bitkernel -> "bitkernel"

(* [`Auto] crossover: below this population the concrete engine's plain
   array sweep wins (packing overhead doesn't pay for itself); above it,
   prefer the bit-packed kernel when the protocol declares bitops, else
   stay on concrete. The probe trial's inputs are a pure function of
   (seed, 0), so peeking at [n] consumes nothing any real trial will
   miss. *)
let auto_crossover = 4096

let resolve_engine engine ~seed ~gen_inputs protocol =
  match engine with
  | (`Concrete | `Bitkernel) as e -> e
  | `Auto ->
      let n =
        Array.length (gen_inputs (Prng.Rng.of_seed_index ~seed ~index:0))
      in
      if n <= auto_crossover then `Concrete
      else if Protocol.bitkernel_capable protocol then `Bitkernel
      else `Concrete

let summary_of_acc acc =
  {
    (* Every completed trial bumps the kills accumulator exactly once, so
       its count is the number of trials actually folded in — which is
       what [trials] must mean for a salvaged partial summary. *)
    trials = Stats.Welford.count acc.acc_kills;
    rounds = acc.acc_rounds;
    rounds_hist = acc.acc_hist;
    kills = acc.acc_kills;
    decided_zero = acc.acc_zero;
    decided_one = acc.acc_one;
    non_terminating = acc.acc_nonterm;
    safety_errors = List.concat (List.rev acc.acc_errors_rev);
  }

let run_trials_supervised ?(max_rounds = 10_000) ?strict ?jobs ?chunk_size
    ?cancel ?checkpoint ?capture ?(engine = `Concrete) ?retries ?fault
    ~trials ~seed ~gen_inputs ~t protocol make_adversary =
  if trials <= 0 then invalid_arg "Runner.run_trials: trials must be positive";
  (* One injector per run, sized to this fold's chunk geometry: fault
     placement is a pure function of (plan, trials, chunk_size), never of
     jobs or scheduling. *)
  let cs =
    match chunk_size with
    | Some c when c >= 1 -> c
    | Some _ | None -> Parallel.default_chunk_size
  in
  let finj =
    Option.map
      (fun plan -> Fault.injector ~nchunks:((trials + cs - 1) / cs) plan)
      fault
  in
  let engine = resolve_engine engine ~seed ~gen_inputs protocol in
  let work index acc =
    let trial = index + 1 in
    (* The trial's randomness is a pure function of (seed, index): no
       master stream is shared, so trial [i] is reproducible regardless of
       worker count, scheduling, or how many trials run. *)
    let rng = Prng.Rng.of_seed_index ~seed ~index in
    let inputs = gen_inputs rng in
    let sink =
      (* The sink closure is rebuilt per trial over the chunk's plain
         data slice, so the checkpointed acc stays Marshal-safe. Under
         fault injection each absorbed event first trips the Event_sink
         site, scoped by the trial's chunk. *)
      match acc.acc_obs with
      | None -> None
      | Some ob -> (
          match finj with
          | None -> Some (obs_sink ob)
          | Some _ ->
              let scope = index / cs in
              Some
                (Obs.Sink.create (fun ev ->
                     Fault.trip finj Fault.Event_sink ~scope;
                     obs_note ob ev)))
    in
    (* A fresh adversary per trial: adversaries may close over mutable
       trackers, which must not be shared across concurrent trials. *)
    let o =
      match engine with
      | `Concrete ->
          Engine.run ~max_rounds ?sink protocol (make_adversary ()) ~inputs ~t
            ~rng
      | `Bitkernel ->
          Bitkernel.run ~max_rounds ?sink protocol (make_adversary ()) ~inputs
            ~t ~rng
    in
    (match acc.acc_obs with
    | None -> ()
    | Some ob ->
        Obs.Metrics.incr ob.om "runner.trials";
        (match o.Engine.rounds_to_decide with
        | Some r -> Obs.Metrics.observe_int ob.om "runner.rounds_to_decide" r
        | None -> Obs.Metrics.incr ob.om "runner.non_terminating");
        Obs.Metrics.observe_int ob.om "runner.kills_per_trial" o.Engine.kills_used);
    let verdict = Checker.check ?strict ~inputs o in
    if not (verdict.Checker.agreement && verdict.Checker.validity) then
      acc.acc_errors_rev <-
        List.map (Printf.sprintf "trial %d: %s" trial) verdict.Checker.errors
        :: acc.acc_errors_rev;
    (match o.rounds_to_decide with
    | Some r ->
        Stats.Welford.add_int acc.acc_rounds r;
        Stats.Histogram.add acc.acc_hist r
    | None -> acc.acc_nonterm <- acc.acc_nonterm + 1);
    Stats.Welford.add_int acc.acc_kills o.kills_used;
    match consensus_value o with
    | Some 0 -> acc.acc_zero <- acc.acc_zero + 1
    | Some _ -> acc.acc_one <- acc.acc_one + 1
    | None -> ()
  in
  (* Checkpoint traffic is itself observable. The store event is folded
     into the acc *before* marshalling, so a resumed chunk replays it
     identically and resumed streams stay byte-identical; the resume event
     lands after load, marking this run's consumption of the file. *)
  let note_checkpoint acc ~chunk ~resumed =
    match acc.acc_obs with
    | None -> ()
    | Some ob -> obs_note ob (Obs.Event.Checkpoint { chunk; resumed })
  in
  let saved, persist =
    match checkpoint with
    | None -> (None, None)
    | Some ck ->
        ( Some
            (fun c ->
              match Checkpoint.load ?fault:finj ck ~chunk:c with
              | None -> None
              | Some acc ->
                  note_checkpoint acc ~chunk:c ~resumed:true;
                  Some acc),
          Some
            (fun c acc ->
              note_checkpoint acc ~chunk:c ~resumed:false;
              Checkpoint.store ?fault:finj ck ~chunk:c acc) )
  in
  let merge =
    (* The chunk-ordered merge runs sequentially on the calling domain
       after the workers join, so Metrics_merge faults are deterministic
       at any jobs count — and, having no chunk attempt to retry into,
       terminal by construction. *)
    match finj with
    | None -> acc_merge
    | Some _ ->
        fun a b ->
          Fault.trip finj Fault.Metrics_merge ~scope:Fault.run_scope;
          acc_merge a b
  in
  let s =
    Parallel.fold_chunks_supervised ?jobs ?chunk_size ?cancel ?retries
      ?fault:finj ?saved ?persist ~n:trials
      ~create:(fun () -> acc_create ?capture ())
      ~work ~merge ()
  in
  (match capture with
  | None -> ()
  | Some c ->
      let metrics, events =
        match s.Parallel.value with
        | Some { acc_obs = Some ob; _ } -> (ob.om, Obs.Recorder.events ob.orec)
        | Some { acc_obs = None; _ } | None -> (Obs.Metrics.create (), [])
      in
      Obs.Capture.set c ~metrics ~events);
  let complete =
    s.Parallel.chunks_done = s.Parallel.chunks_total
    && s.Parallel.failures = []
  in
  (* A fully successful fold retires its checkpoints: stale chunk files
     must never outlive the run they belong to. *)
  (match checkpoint with Some ck when complete -> Checkpoint.clear ck | _ -> ());
  let partial = Option.map summary_of_acc s.Parallel.value in
  {
    partial;
    completed_trials =
      (match partial with Some p -> p.trials | None -> 0);
    total_trials = trials;
    chunks_done = s.Parallel.chunks_done;
    chunks_total = s.Parallel.chunks_total;
    chunks_resumed = s.Parallel.chunks_resumed;
    retried = s.Parallel.retried;
    failures = s.Parallel.failures;
    cancelled = s.Parallel.cancelled;
    engine_used = engine_name engine;
  }

let run_trials ?max_rounds ?strict ?jobs ?chunk_size ?capture ?engine
    ~trials ~seed ~gen_inputs ~t protocol make_adversary =
  let r =
    run_trials_supervised ?max_rounds ?strict ?jobs ?chunk_size ?capture
      ?engine ~trials ~seed ~gen_inputs ~t protocol make_adversary
  in
  match (r.failures, r.partial) with
  | f :: _, _ ->
      (* Legacy all-or-nothing contract: first failure in chunk order,
         original backtrace preserved. *)
      Printexc.raise_with_backtrace f.Parallel.exn f.Parallel.backtrace
  | [], Some s -> s
  | [], None -> assert false (* trials > 0, no cancel hook installed *)
