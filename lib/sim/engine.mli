(** The synchronous execution engine.

    Implements the model of Section 3.1: lockstep rounds, each split into
    Phase A (local computation and coin flips) and Phase B (message
    exchange), with the adversary intervening between the two. Fail-stop
    semantics follow the paper exactly: a victim's final broadcast reaches
    only the recipient subset the adversary chose, and the victim is dead
    afterwards.

    Executions are first-class ({!type:exec}): they can be stepped one round
    at a time, snapshotted, reseeded, and resumed — the mechanism behind the
    Monte-Carlo valency estimation of the lower-bound adversary. *)

exception Budget_exceeded of string
(** The adversary tried to fail more than its remaining budget. *)

exception Invalid_kill of string
(** The adversary named a dead, halted, duplicated, or out-of-range victim,
    or an out-of-range recipient. *)

exception Decision_changed of string
(** A protocol revoked or altered a decision — a protocol bug. *)

type ('state, 'msg) exec = {
  protocol : ('state, 'msg) Protocol.t;
  n : int;
  t : int;
  states : 'state array;
  alive : bool array;
  halted : bool array;
  decisions : int option array;
  decision_round : int array;  (** [-1] while undecided. *)
  proc_rngs : Prng.Rng.t array;
  mutable adv_rng : Prng.Rng.t;
  mutable round : int;
  mutable kills_used : int;
  trace : Trace.t option;
  sink : Obs.Sink.t;
  observer : ('msg -> bool) option;
  pending : 'msg option array;
      (** Round-scoped scratch: this round's staged broadcasts. *)
  killed : bool array;  (** Round-scoped scratch. *)
  kill_seen : bool array;  (** Round-scoped scratch. *)
}
(** A (possibly partial) execution. The record is exposed so that
    {!Bitkernel} can hold its scalar state as an execution built by
    {!start} and run its non-batched rounds through {!phase_a} and
    {!phase_b}. Everything else should treat it as abstract and use
    {!start}, {!step}, {!snapshot}, {!reseed} and the inspection
    functions. *)

type outcome = {
  rounds_executed : int;
  rounds_to_decide : int option;
      (** Round by which every non-faulty process had decided — the paper's
          complexity measure. [None] if some non-faulty process never
          decided within the executed rounds. When no process survives, the
          requirement is vacuous and this is [Some rounds_executed]. *)
  decisions : int option array;
  faulty : bool array;
  halted : bool array;
  kills_used : int;
  quiescent : bool;
      (** The run ended because no process was left active (all halted or
          dead), as opposed to hitting the round cap. *)
  trace : Trace.t option;
}

val start :
  ?record_trace:bool ->
  ?observer:('msg -> bool) ->
  ?sink:Obs.Sink.t ->
  ('state, 'msg) Protocol.t ->
  inputs:int array ->
  t:int ->
  rng:Prng.Rng.t ->
  ('state, 'msg) exec
(** Create a fresh execution. [inputs] are the processes' input bits (its
    length is [n >= 1]); [t] is the adversary budget; [rng] is split into
    one stream for the adversary, then one private stream per process.
    [observer] classifies broadcast messages as "1" for trace statistics.

    Any [t] in [\[0, n\]] is accepted. [t = n] is deliberate: the
    adversary may crash everyone, and {!outcome}'s [rounds_to_decide] is
    then vacuous ([Some rounds_executed]). The async engine and the CLI
    require [t < n].

    [sink] (default {!Obs.Sink.null}) receives the execution's event
    stream: per round, [Decision] events as processes first decide (in
    ascending pid order), then one [Kill] per victim (in the adversary's
    plan order), then one [Round] summary. Events are pure observations —
    they never affect coins, kills, or outcomes — and with a disabled
    sink each emission site is a single boolean test, so the hot path is
    unchanged. When [record_trace] is set the trace consumes the same
    stream through a tee (see {!Trace.sink}). *)

val step : ('state, 'msg) exec -> ('state, 'msg) Adversary.t -> [ `Continue | `Quiescent ]
(** Execute one full round under the given adversary: {!phase_a}, the
    adversary's [plan] over {!view}, then {!phase_b}. [`Quiescent] means
    no process was active (the round did not execute). *)

val phase_a : ('state, 'msg) exec -> unit
(** Phase A of the next round: every active process runs the protocol's
    [phase_a] on its own stream, in ascending pid order, and stages its
    broadcast in [pending]. *)

val view : ('state, 'msg) exec -> round:int -> ('state, 'msg) Adversary.view
(** The adversary's zero-copy view of round [round] after {!phase_a}. *)

val phase_b : ('state, 'msg) exec -> Adversary.kill list -> round:int -> unit
(** The rest of round [round] (the one after [e.round]) once [pending] is
    staged: validate the kills (raising {!Invalid_kill} or
    {!Budget_exceeded}), deliver through the protocol's aggregate, apply
    the decision discipline, mark the victims dead, advance the round
    counter and emit the round's events. *)

val run_until :
  ('state, 'msg) exec ->
  ('state, 'msg) Adversary.t ->
  max_rounds:int ->
  unit
(** Step until quiescent or until [max_rounds] total rounds have executed. *)

val outcome : ('state, 'msg) exec -> outcome

val run :
  ?record_trace:bool ->
  ?observer:('msg -> bool) ->
  ?sink:Obs.Sink.t ->
  ?max_rounds:int ->
  ('state, 'msg) Protocol.t ->
  ('state, 'msg) Adversary.t ->
  inputs:int array ->
  t:int ->
  rng:Prng.Rng.t ->
  outcome
(** [start] + [run_until] + [outcome]. Default [max_rounds] is 10_000. *)

val snapshot : ('state, 'msg) exec -> ('state, 'msg) exec
(** Deep copy: stepping the copy never affects the original. The copy
    replays the same randomness unless {!reseed} is called. The copy's
    trace and sink are dropped (reset to none/null): continuation
    sampling must not interleave phantom events into the original's
    stream. *)

val reseed : ('state, 'msg) exec -> Prng.Rng.t -> unit
(** Replace every private stream with fresh splits of the given source, so
    the execution's future coins are resampled — the core operation for
    estimating decision probabilities by continuation sampling. *)

(** {2 Inspection} — read-only views used by adaptive adversaries and tests. *)

val round : ('state, 'msg) exec -> int
(** Rounds executed so far. *)

val n : ('state, 'msg) exec -> int

val budget_left : ('state, 'msg) exec -> int

val kills_used : ('state, 'msg) exec -> int

val alive : ('state, 'msg) exec -> bool array
(** A copy. *)

val active_mask : ('state, 'msg) exec -> bool array
(** Alive and not halted — the processes an adversary may name as victims
    next round. A copy. *)

val states : ('state, 'msg) exec -> 'state array
(** A copy of the state vector. *)

val decisions : ('state, 'msg) exec -> int option array

val alive_count : ('state, 'msg) exec -> int

val active_count : ('state, 'msg) exec -> int
