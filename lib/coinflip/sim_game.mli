(** One-round collective coin-flipping games as {!Sim} protocols.

    {!Game.t} evaluates a game function over a masked value vector in one
    shot; this module runs the same games {e inside} the synchronous engine:
    each player draws its value in Phase A (from its own private stream —
    outcomes match {!Game.play} in distribution, not coin-for-coin), the
    round's broadcast is the value itself, and every surviving player
    evaluates the game on what it received, decides the outcome, and halts.
    Kills with empty [deliver_to] are exactly the game adversary's "hide";
    partial sends generalize it (receivers may disagree — the engine's
    per-receiver delivery is strictly richer than the one-shot game model).

    The counting games ([majority0], [majority_ignore_missing], [parity],
    [sum_mod]) fold the round into (sum, present); {!of_eval}/{!of_game}
    accept an arbitrary game function and fold into a persistent
    pid-to-value map, from which [finish] rebuilds the masked vector. *)

type state

val outcome : state -> int option
(** The decided game outcome, set after round 1. *)

val value : state -> int
(** The value drawn in Phase A (0 before the first round). *)

val of_eval :
  ?sample:(Prng.Rng.t -> int) ->
  name:string ->
  eval:(int option array -> int) ->
  int ->
  (state, int) Sim.Protocol.t
(** [of_eval ~name ~eval n] runs the [n]-player game function [eval] under
    the engine, drawing each player's value with [sample] (default: a fair
    bit). Slots of killed/hidden players are [None]. *)

val of_game : Game.t -> (state, int) Sim.Protocol.t
(** {!of_eval} for an existing game (per-player sampling of fair bits —
    only suitable for games whose [sample] draws i.i.d. fair bits). *)

val of_tally :
  ?sample:(Prng.Rng.t -> int) ->
  name:string ->
  decide:(n:int -> sum:int -> present:int -> int) ->
  int ->
  (state, int) Sim.Protocol.t
(** A counting game: the outcome depends on the received values only
    through their sum and count. Runs on the aggregate fast path. *)

val majority0 : int -> (state, int) Sim.Protocol.t
(** Majority with absent votes counting as 0: outcome 1 iff 2·sum > n. *)

val majority_ignore_missing : int -> (state, int) Sim.Protocol.t
(** Majority over present votes: outcome 1 iff 2·sum > present. *)

val parity : int -> (state, int) Sim.Protocol.t
(** XOR of present bits. *)

val sum_mod : k:int -> int -> (state, int) Sim.Protocol.t
(** Sum of present values mod [k]; values drawn uniformly from [0..k-1]. *)
