(** A whole-round reference implementation of the synchronous engine.

    Every round it materializes each receiver's delivered [(sender, msg)]
    array in ascending sender order and folds the protocol's aggregate over
    it, an O(n²) exchange. It shares no round code with {!Sim.Engine}: it
    exists so the differential suites and the bench smoke run can pin
    [Sim.Engine]'s shared-fold delivery (and through it {!Sim.Bitkernel})
    to an independent spelling of Section 3.1, and so the delivery hot-path
    benchmark has its O(n²) baseline. *)

val run :
  ?record_trace:bool ->
  ?observer:('msg -> bool) ->
  ?max_rounds:int ->
  ('state, 'msg) Sim.Protocol.t ->
  ('state, 'msg) Sim.Adversary.t ->
  inputs:int array ->
  t:int ->
  rng:Prng.Rng.t ->
  Sim.Engine.outcome
(** Same contract as {!Sim.Engine.run}: the same RNG split order, the same
    outcome and, with [record_trace], the same per-round trace records.
    Invalid kills and decision-discipline violations raise [Failure]. *)
