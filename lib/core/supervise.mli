(** Experiment-level supervision.

    The experiment pipeline (E1–E12) is minutes of Monte-Carlo work; this
    module bounds the blast radius of any one failure. It threads three
    mechanisms through the drivers in {!Experiments}:

    {ul
    {- {b Watchdogs} — a per-experiment wall-clock deadline that cancels
       cooperatively: parallel folds poll {!cancel} at chunk boundaries
       (the shared-counter poison of {!Sim.Parallel}), sequential engines
       call {!check} at row boundaries. A fired watchdog surfaces as
       [Timed_out] with the partial table built so far.}
    {- {b Checkpoint/resume} — {!checkpoint} names a {!Sim.Checkpoint}
       store per fold; completed chunk accumulators are persisted as they
       finish and, under [resume], satisfied from disk instead of
       recomputed. Resumed summaries are byte-identical to uninterrupted
       ones (chunk-ordered merge + exact [Marshal] round-trip).}
    {- {b Structured failure capture} — a raising trial is recorded as a
       {!Sim.Parallel.chunk_failed} (chunk, trial, exn, backtrace) and the
       experiment finishes as [Failed] with every other experiment
       unaffected; {!write_manifest} lands the whole run's outcome in
       [results/run_manifest.json] and {!any_failed} drives the process
       exit code.}}

    Every hook takes [ctx option] so experiment code can thread an
    optional supervisor with no [Option] boilerplate; [None] everywhere
    means exactly the old unsupervised behavior. *)

type ctx

type status =
  | Completed
  | Failed of { message : string; backtrace : string }
  | Timed_out

type result = {
  id : string;
  table : Stats.Table.t option;
      (** The completed table, or the registered partial table for a
          failed / timed-out experiment (rows added before the stop;
          the in-flight row is dropped, never half-reported). *)
  status : status;
  elapsed_s : float;  (** Wall-clock, for the manifest only. *)
  chunks_done : int;  (** Across every fold of the experiment. *)
  chunks_resumed : int;  (** Chunks satisfied from checkpoint files. *)
  chunk_retries : int;
      (** Failed chunk attempts re-run (and recovered) under the retry
          budget. Manifest-only, like [elapsed_s]: deliberately excluded
          from [metrics], so a survivable chaos run keeps the manifest's
          [metrics_digest] byte-identical to the fault-free run. *)
  completed_trials : int;
      (** Trials folded in by {!Sim.Runner}-based loops (the inline E5/E8
          folds report chunks only). *)
  total_trials : int;
  engines : string list;
      (** Execution engines the experiment's runner folds actually used
          (["concrete"], ["bitkernel"]), deduplicated in
          first-use order — this is where [`Auto]'s resolution becomes
          auditable. Empty for inline folds that never go through
          {!commit}. Manifest-only, like [elapsed_s]: engine choice never
          affects results, so it stays out of [metrics]. *)
  metrics : Obs.Metrics.t;
      (** Per-experiment supervision registry ([supervise.chunks_done],
          [supervise.completed_trials], ...; [supervise.failures] /
          [supervise.watchdog_fires] on a bad exit). Built only from the
          deterministic progress counters — never wall-clock — so its
          {!Obs.Metrics.digest} (the manifest's [metrics_digest]) is
          [--jobs]-independent. *)
}

val create :
  ?deadline_s:float ->
  ?checkpoints:string ->
  ?resume:bool ->
  ?retries:int ->
  ?fault:Sim.Fault.plan ->
  unit ->
  ctx
(** [deadline_s] arms the per-experiment watchdog (off by default);
    [checkpoints] is the checkpoint root directory (e.g.
    ["results/checkpoints"]; absent = checkpointing off); [resume]
    (default [false]) consumes existing chunk files instead of clearing
    them; [retries] is the per-chunk retry budget handed to the
    supervised runner folds via {!retries} (absent = no retries);
    [fault] is a deterministic {!Sim.Fault} plan replayed against every
    runner fold via {!fault_plan} (each fold builds its own injector, so
    hit counters are per fold). *)

val retries : ctx option -> int option
(** The configured retry budget, for threading into
    {!Sim.Runner.run_trials_supervised}'s [?retries]. *)

val fault_plan : ctx option -> Sim.Fault.plan option
(** The configured fault plan, for threading into
    {!Sim.Runner.run_trials_supervised}'s [?fault]. *)

val run_experiment : ctx -> id:string -> (unit -> Stats.Table.t) -> result
(** Run one experiment under supervision: arms the watchdog, zeroes the
    per-experiment counters, and converts an escaping exception or a fired
    watchdog into a [Failed] / [Timed_out] result carrying the registered
    partial table. Never raises. *)

val events : ctx -> Obs.Event.t list
(** The run-level supervision event stream, in emission order: one
    {!Obs.Event.Watchdog} per fired deadline, one
    {!Obs.Event.Chunk_retry} per failed chunk attempt that was re-run
    under the retry budget (carrying the attempt number — the chunk
    itself recovered), and one {!Obs.Event.Chunk_failed} per chunk whose
    budget was exhausted (the terminal failure, with its total attempt
    count) — what [--events-out] appends after the per-experiment
    streams. *)

val merged_metrics : result list -> Obs.Metrics.t
(** One run-level registry: each experiment's {!result.metrics} prefixed
    with ["<id>."] and merged in list order — the [--metrics-out] payload
    for the experiment pipeline. *)

val register : ctx option -> Stats.Table.t -> Stats.Table.t
(** Identity on the table; records it so a failed or timed-out experiment
    can still report the rows added so far. Call on the freshly created
    table of every supervised experiment. *)

val cancel : ctx option -> (unit -> bool) option
(** The cooperative cancellation hook for
    {!Sim.Parallel.fold_chunks_supervised} / {!Sim.Runner.run_trials_supervised}:
    [Some poll] iff a deadline is armed. The closure captures the deadline
    as an immutable float and is safe to poll from worker domains. *)

val check : ctx option -> unit
(** Row-boundary analog of {!cancel} for the sequential engines (E9, E11,
    E12): raises {!Sim.Parallel.Cancelled} past the deadline. *)

val checkpoint :
  ctx option ->
  exp:string ->
  seed:int ->
  chunk_size:int ->
  n:int ->
  Sim.Checkpoint.t option
(** The checkpoint store for one fold, keyed by [(exp, seed, chunk_size,
    n)]; [None] when checkpointing is off. [exp] must uniquely name the
    fold {e and} every parameter that shapes its trials (population size,
    rules, round caps...) — two folds with equal keys must be the same
    computation. Without [resume], any stale store is cleared here. *)

val hooks :
  Sim.Checkpoint.t option ->
  (int -> 'acc option) option * (int -> 'acc -> unit) option
(** [(saved, persist)] closures for
    {!Sim.Parallel.fold_chunks_supervised}; [(None, None)] when
    checkpointing is off. *)

val commit : ctx option -> Sim.Runner.report -> Sim.Runner.summary
(** Fold a supervised runner report into the experiment: accumulate chunk
    and trial counts, record the report's [engine_used] for the manifest,
    then either return the complete summary, re-raise the first chunk
    failure (recorded for the manifest, original backtrace preserved), or
    raise {!Sim.Parallel.Cancelled} on a fired watchdog. *)

val commit_fold :
  ctx option ->
  ?checkpoint:Sim.Checkpoint.t ->
  'acc Sim.Parallel.supervised ->
  'acc
(** Same contract as {!commit} for inline {!Sim.Parallel} folds (E5's
    Monte-Carlo valency loop, E8's scenario folds). A fully successful
    fold clears its checkpoint store. *)

val failed : result -> bool
(** [Failed] or [Timed_out]. *)

val any_failed : result list -> bool
(** Whether the process should exit non-zero. *)

val status_line : result -> string
(** One-line human rendering, e.g.
    ["e3: TIMED OUT after 30.0 s — partial table above (12 chunks, 96/200
    trials completed)"]. *)

val write_manifest :
  ?fault:Sim.Fault.injector ->
  path:string ->
  profile:string ->
  seed:int ->
  jobs:int ->
  resume:bool ->
  deadline_s:float option ->
  result list ->
  unit
(** Write the machine-readable run manifest (schema [run_manifest/v1]):
    run parameters, one record per experiment — id, status
    ([completed|failed|timed_out]), elapsed seconds, chunk/trial/retry
    progress, the engines the trials executed on ([engines], the
    [`Auto]-resolution audit trail), the experiment's observability fingerprint
    ([metrics_digest], the {!Obs.Metrics.digest} of {!result.metrics}),
    failure message — and the failed-experiment count. [fault] trips the
    {!Sim.Fault.Manifest_write} site on entry (run-scoped, not retried:
    an armed fault here fails the manifest write itself). *)
