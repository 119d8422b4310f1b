(** Multi-trial experiment driver: runs a protocol under an adversary many
    times with independent randomness and aggregates the paper's complexity
    measure (rounds until all non-faulty processes decide). *)

type summary = {
  trials : int;
  rounds : Stats.Welford.t;
      (** Rounds-to-decide over terminating trials. *)
  rounds_hist : Stats.Histogram.t;
  kills : Stats.Welford.t;  (** Adversary kills actually spent per trial. *)
  decided_zero : int;  (** Trials whose consensus value was 0. *)
  decided_one : int;
  non_terminating : int;
      (** Trials that hit the round cap with undecided non-faulty processes.
          Should be 0 for every protocol here; reported rather than hidden. *)
  safety_errors : string list;
      (** Agreement/validity violations across all trials (should be []),
          in trial order, each trial's errors in {!Checker} order. *)
}

val mean_rounds : summary -> float

val input_gen_random : n:int -> Prng.Rng.t -> int array
(** Independent unbiased input bits — the hardest honest input for
    consensus. *)

val input_gen_const : n:int -> int -> Prng.Rng.t -> int array
(** All processes share the given input (validity-exercising workload). *)

val input_gen_split : n:int -> Prng.Rng.t -> int array
(** Half zeros, half ones, randomly assigned — maximally divided inputs. *)

type report = {
  partial : summary option;
      (** Merge of every completed chunk, in chunk order; [None] iff no
          chunk completed. A partial summary's [trials] field counts the
          trials actually folded in, not the requested total. *)
  completed_trials : int;  (** [= partial.trials] (0 when [None]). *)
  total_trials : int;  (** The requested [~trials]. *)
  chunks_done : int;
  chunks_total : int;
  chunks_resumed : int;  (** Chunks satisfied from the checkpoint store. *)
  retried : Parallel.chunk_failed list;
      (** Failed attempts re-run under the [retries] budget, in (chunk,
          attempt) order; the recovered chunks contribute normally. *)
  failures : Parallel.chunk_failed list;
      (** Terminal failures (budget exhausted), in chunk order. *)
  cancelled : bool;  (** The [cancel] watchdog fired. *)
  engine_used : string;
      (** The engine the trials actually ran on — ["concrete"] or
          ["bitkernel"] — after [`Auto] resolution. Recorded
          in run manifests so an experiment's execution path is
          auditable. *)
}
(** Outcome of a supervised run: the salvaged partial summary plus the
    structured failure record. [failures = [] && not cancelled] implies
    [chunks_done = chunks_total] and [partial] is the complete summary. *)

val run_trials_supervised :
  ?max_rounds:int ->
  ?strict:bool ->
  ?jobs:int ->
  ?chunk_size:int ->
  ?cancel:(unit -> bool) ->
  ?checkpoint:Checkpoint.t ->
  ?capture:Obs.Capture.t ->
  ?engine:[ `Concrete | `Bitkernel | `Auto ] ->
  ?retries:int ->
  ?fault:Fault.plan ->
  trials:int ->
  seed:int ->
  gen_inputs:(Prng.Rng.t -> int array) ->
  t:int ->
  ('state, 'msg) Protocol.t ->
  (unit -> ('state, 'msg) Adversary.t) ->
  report
(** Supervised variant of {!run_trials}: raising trials and watchdog
    cancellation produce a {!report} instead of an exception, salvaging
    every completed chunk. [cancel] is polled at chunk boundaries (see
    {!Parallel.fold_chunks_supervised}). [checkpoint] persists each
    completed chunk accumulator and satisfies already-stored chunks
    without recomputation; because chunk partials merge in chunk order and
    [Marshal] round-trips the accumulators exactly, a resumed run's
    summary is byte-identical to an uninterrupted one. A fully successful
    run clears its checkpoint store.

    [retries] (default 0) re-runs a failed chunk up to that many extra
    attempts before it counts as a failure — safe because each trial's
    RNG is a pure function of [(seed, index)], so the re-run is
    byte-identical; recovered attempts are listed in [retried]. [fault]
    arms a deterministic {!Fault} plan over this fold: one injector is
    built for the run's chunk geometry and threaded through the chunk
    bodies ({!Fault.Chunk_body}), the checkpoint store/load calls, each
    chunk's event absorption ({!Fault.Event_sink}, only live under
    [capture]), and the final sequential merge ({!Fault.Metrics_merge},
    terminal — there is no chunk attempt to retry into). A survivable
    plan (every armed fault absorbed by the retry budget) yields a
    summary, event stream, and metrics digest byte-identical to the
    fault-free run at any [jobs].

    [capture] attaches the observability layer: every trial's engine
    events are folded into per-chunk {!Obs.Metrics} (and, when the
    capture asks for events, an {!Obs.Recorder}), merged in chunk order
    and written into the capture once the fold completes — so metric
    values and the event stream are byte-identical at any [jobs], the
    same contract as the summary itself. Standard runner metrics
    ([runner.trials], [runner.rounds_to_decide], [runner.kills_per_trial],
    [runner.non_terminating]) accumulate alongside the per-event ones;
    checkpoint stores/resumes surface as {!Obs.Event.Checkpoint} events.
    No capture (the default) keeps trials on the engine's zero-cost
    disabled-sink path.

    [engine] (default [`Concrete]) selects the execution engine per trial.
    [`Bitkernel] runs each trial through the bit-packed {!Bitkernel}
    engine (requires {!Protocol.bitkernel_capable}); the per-trial
    [make_adversary ()] result is used directly, as under [`Concrete].
    [`Auto] picks per run: [`Concrete] for populations at or below the
    crossover (4096), above it [`Bitkernel] if the protocol is
    {!Protocol.bitkernel_capable}, else [`Concrete]; the choice is
    reported in [engine_used] and — via {!Supervise} — in the run
    manifest. All
    engines produce byte-identical summaries, event streams and metrics,
    so the selection is a pure performance decision. *)

val run_trials :
  ?max_rounds:int ->
  ?strict:bool ->
  ?jobs:int ->
  ?chunk_size:int ->
  ?capture:Obs.Capture.t ->
  ?engine:[ `Concrete | `Bitkernel | `Auto ] ->
  trials:int ->
  seed:int ->
  gen_inputs:(Prng.Rng.t -> int array) ->
  t:int ->
  ('state, 'msg) Protocol.t ->
  (unit -> ('state, 'msg) Adversary.t) ->
  summary
(** Trial [i]'s RNG is derived from [(seed, i)] via
    {!Prng.Rng.of_seed_index}, so it is reproducible regardless of how many
    trials run, in what order, or across how many domains: [~jobs:8]
    produces a bit-identical summary to [~jobs:1]. [jobs] defaults to
    {!Parallel.default_jobs}; [chunk_size] and [engine]
    behave as in {!run_trials_supervised} (and like [jobs], neither
    changes the summary). The last argument builds the adversary; it is
    called once per trial because adversaries may carry mutable per-run
    trackers that must not be shared across concurrent trials (the factory
    itself must be deterministic and thread-safe — building from immutable
    configuration, as every adversary in this repository does, qualifies). *)
