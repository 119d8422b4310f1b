(** Adaptive adversaries realizing the paper's lower-bound strategy against
    SynRan-shaped protocols (threshold voting over broadcast bits).

    {b Band control} is the executable version of the Section 3/4 analysis:
    after seeing the round's coins, the adversary trims delivered 1-votes
    down into the coin-flip band (so no process proposes or decides
    deterministically toward 1), keeps at least one 0 visible everywhere,
    and uses partial-delivery kills at the threshold boundary to maintain a
    "promoted" fraction f of receivers that propose 1 — keeping the
    expected next-round 1-count a margin of gamma * sqrt(q log q) above the
    flip band's ceiling so the deadly "everybody flips" rounds are rare.
    The gamma-margin is exactly the sqrt(log) trade of Lemma 4.6: a smaller
    margin saves trim kills but makes the p/2-cost rescue rounds frequent.

    {b Monte-Carlo valency} is the Section 3 strategy made concrete for
    small systems: at every round it snapshots the execution, samples
    random continuations for each candidate kill, estimates Pr[decide 1]
    (the r(alpha) of Section 3.2), and greedily picks kills that keep the
    execution bivalent. *)

type config = {
  gamma : float;
      (** Margin coefficient; the per-round margin is
          gamma * sqrt(q * log q). Paper-flavoured default 0.45. *)
  min_active : int;
      (** Stop attacking below this population (the deterministic stage
          cannot be stalled). Default 8. *)
  desperate : bool;
      (** Pay the ~p/2 zero-starvation rescue on deficit rounds while the
          budget allows (the Lemma 4.6 "fail p/2 processes" move).
          Default true. *)
  stall : bool;
      (** Once the voting band is lost (unanimous proposals), keep spending
          the budget on stop-delaying: bursts of ~p/10 kills every three
          rounds keep the stop rule's stability check failing (Lemma 4.1's
          "must fail 1/10 of the remaining processes every 4 rounds"), and
          the final affordable move pushes the population below
          sqrt(n / log n) to force the deterministic stage's extra rounds.
          This is what makes sub-linear budgets (t << n) cost rounds at
          all. Default true. *)
  per_round_cap : int option;
      (** Optional hard cap on kills per round, e.g.
          [Some (4 sqrt(n log n) + 1)] to match Theorem 1's adversary class
          B. Default none. *)
}

val default_config : config
(** The strongest configuration at simulable sizes: band control plus
    stop-delaying stalls, no zero-starvation rescues (empirically the
    rescue is a worse use of budget than stalls below n ~ 10^4). *)

val voting_config : config
(** Band control plus the Lemma 4.6 rescue, stalls off: isolates the
    Section 4 voting-game attack whose cost curve is the paper's
    Theta(sqrt(n / log n)) shape — the configuration fitted in E3/E4. *)

val band_control :
  ?config:config ->
  ?sink:Obs.Sink.t ->
  rules:Onesided.rules ->
  bit_of_msg:('msg -> int) ->
  unit ->
  ('state, 'msg) Sim.Adversary.t
(** The band-control adversary. Stateful across the rounds of one run
    (tracks per-receiver delivered counts); it resets itself when it
    observes round 1, so reusing the value across sequential trials is
    safe. Not safe for concurrent executions.

    [sink] (default {!Obs.Sink.null}) receives one {!Obs.Event.Band}
    event per activation, exposing the round's observed 1/0-sender
    split, the computed flip band and margin (all zero on rounds that
    bail out before the band is computed), the chosen [action] —
    ["trim"], ["rescue"], ["burst"], ["endgame"], ["in-band"] or
    ["idle"] — and the kill count spent. *)

(** {2 Monte-Carlo valency adversary (small n)} *)

type mc_config = {
  samples : int;  (** Continuations sampled per candidate kill. Default 40. *)
  horizon : int;  (** Rounds each continuation may run. Default 40. *)
  round_cap : int;  (** Max kills per round considered. Default 3. *)
  keep_margin : float;
      (** A candidate kill is adopted only if it raises the estimated
          expected total rounds by at least this much. Default 0.15. *)
}

val default_mc_config : mc_config

val force_long_execution :
  ?config:mc_config ->
  ?max_rounds:int ->
  ?sink:Obs.Sink.t ->
  ('state, 'msg) Sim.Protocol.t ->
  inputs:int array ->
  t:int ->
  rng:Prng.Rng.t ->
  Sim.Engine.outcome
(** Drive one execution with the Monte-Carlo valency adversary: each round,
    candidate kills are scored by sampling adversary-free continuations and
    the kill set greedily maximizing the estimated expected total rounds
    (ties toward bivalence, Pr[1] near 1/2) is applied. Far more expensive
    than [band_control]; intended for n <= ~24 (experiment E5).

    [sink] (default {!Obs.Sink.null}) receives one
    {!Obs.Event.Valency_probe} per driven round, carrying the kill-free
    baseline estimate (Pr[decide 1], expected total rounds — the
    r(alpha) proxy of Section 3.2) for the round about to execute. *)

val leader_killer :
  ?config:config ->
  rules:Onesided.rules ->
  bit_of_msg:('msg -> int) ->
  prio_of_msg:('msg -> int) ->
  unit ->
  ('state, 'msg) Sim.Adversary.t
(** The dictator-game attack on {!Synran.Leader_priority}: each round, kill
    the priority-prefix of senders down to the first dissenting bit
    (usually one or two processes) and deliver their messages only to a
    protected subset sized to pin the next round's 1-count mid-band. The
    leader coin is a one-round dictator game (Section 2), so O(1) kills per
    round control it completely — the protocol stalls for ~t/2 rounds,
    versus the Theta(sqrt(n log n)) per-round price of attacking the
    paper's majority-style local coin. Stateful per run like
    {!band_control}. *)
