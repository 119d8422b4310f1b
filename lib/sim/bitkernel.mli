(** The bit-packed engine.

    Packs each binary register of every active process into bit planes
    ({!Bitwords} layout: lane [i mod lanes] of word [i / lanes]) and holds
    the shared non-register fields in one template state. A round with no
    kills whose Phase-B branch is uniform runs entirely at word
    granularity — coins via {!Prng.Sample.coin_word}, tallies via
    popcount, the register transition as a handful of plane blits — at
    O(n / word_size) cost instead of O(n). Rounds the adversary
    individuates (kills, partial deliveries) or whose branch needs
    per-process data (the protocol's [bo_step] returns [None])
    materialize the scalar states, run {!Engine.phase_b}, and re-pack
    when uniformity returns. The scalar state is an {!Engine.exec} built
    by {!Engine.start}.

    {b Byte-identity:} every observable — outcomes, decision rounds,
    traces, the event stream (Decisions ascending by pid, Kills in plan
    order, one Round summary), the exception discipline, and RNG
    consumption (per-process streams and the adversary stream) — is
    identical to running the same protocol, adversary, inputs and rng
    through {!Engine}. The [bitkernel.differential] test suite and the
    bench smoke gate enforce this. The adversary view is the plain
    per-process {!Adversary.view} with full state access (packed states
    are unpacked on demand), so any concrete adversary — including
    adaptive ones — runs unchanged.

    Protocols opt in by declaring {!Protocol.bitops}; {!start} refuses
    others — callers fall back to {!Engine}. *)

type ('state, 'msg) exec

val start :
  ?record_trace:bool ->
  ?observer:('msg -> bool) ->
  ?sink:Obs.Sink.t ->
  ('state, 'msg) Protocol.t ->
  inputs:int array ->
  t:int ->
  rng:Prng.Rng.t ->
  ('state, 'msg) exec
(** {!Engine.start} plus packing: the same input checks, RNG split order
    and event teeing. Like {!Engine.start} it accepts any [t] in
    [\[0, n\]]; [t = n] is deliberate (the adversary may crash everyone,
    and [rounds_to_decide] is then vacuous). Raises [Invalid_argument] if
    the protocol declares no bitops. *)

val step :
  ('state, 'msg) exec ->
  ('state, 'msg) Adversary.t ->
  [ `Continue | `Quiescent ]
(** One full round; same kill validation, exceptions, and event emission
    as {!Engine.step}. *)

val run_until :
  ('state, 'msg) exec -> ('state, 'msg) Adversary.t -> max_rounds:int -> unit

val outcome : ('state, 'msg) exec -> Engine.outcome
(** The same outcome record {!Engine.outcome} computes, field for field. *)

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
  Engine.outcome
(** [start] + [run_until] + [outcome]. Default [max_rounds] is 10_000. *)

val run_batch :
  ?max_rounds:int ->
  ('state, 'msg) Protocol.t ->
  adversary_of:(int -> ('state, 'msg) Adversary.t) ->
  inputs_of:(int -> int array) ->
  rng_of:(int -> Prng.Rng.t) ->
  t:int ->
  trials:int ->
  Engine.outcome array
(** Advance [trials] independent trials in lockstep, one round per sweep
    across the batch; trial [i] uses [inputs_of i], [rng_of i] and
    [adversary_of i]. Rounds an adversary individuates fall back
    per-trial, the rest stay word-level. Every stream is private to its
    trial, so each outcome — and each trial's RNG consumption — is
    byte-identical to running that trial alone through {!run}. *)

(** {2 Inspection} *)

val round : ('state, 'msg) exec -> int

val n : ('state, 'msg) exec -> int

val kills_used : ('state, 'msg) exec -> int

val active_count : ('state, 'msg) exec -> int

val is_packed : ('state, 'msg) exec -> bool
(** Whether the execution currently holds its active states in packed
    form (O(1) to ask; flips as the kernel falls back and re-packs). *)

val packed_rounds : ('state, 'msg) exec -> int
(** Rounds executed entirely at word granularity. *)

val scalar_rounds : ('state, 'msg) exec -> int
(** Rounds that ran through the scalar fallback path. *)

val decisions : ('state, 'msg) exec -> int option array
