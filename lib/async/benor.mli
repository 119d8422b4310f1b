(** Ben-Or's randomized asynchronous consensus [BO83] — the protocol
    SynRan descends from ("The algorithm is similar to Ben-Or's algorithm",
    Section 4), in its crash-fault form for t < n/2.

    Phase r:
    - {b Report}: broadcast (R, r, b); collect n - t phase-r reports. If
      some value has more than n/2 of them, it becomes the candidate.
    - {b Propose}: broadcast (P, r, candidate); collect n - t phase-r
      proposals. A value proposed at least t+1 times is decided; a value
      proposed at least once is adopted; otherwise flip a fair local coin.

    Agreement holds because two candidates of the same phase would each be
    backed by more than n/2 reports of honest (crash-only) processes.
    Termination holds with probability 1, but only in expected {e
    exponential} phases against a full-information scheduler — the
    asynchronous weakness that motivates the paper's synchronous
    question. *)

type msg =
  | Report of { phase : int; v : int }  (** (R, phase, b). *)
  | Proposal of { phase : int; v : int option }
      (** (P, phase, candidate); [None] is the "no candidate" proposal. *)

type state

val protocol : t:int -> (state, msg) Protocol.t
(** [protocol ~t] waits for n - t messages per step; requires t < n/2 for
    liveness and safety margins (checked at init). A decided process keeps
    participating so that slower processes can finish. *)

val phase : state -> int
(** Current phase (the async round-complexity measure). *)

val splitter : unit -> msg Scheduler.t
(** The FLP-flavoured full-information scheduler: it tracks what it has
    delivered to every process and keeps each receiver's phase-r report
    sample balanced between 0s and 1s (delivering the minority value
    first), so no candidate emerges and every process flips, every phase.
    It only loses when the collective coin flips land so lopsided that
    balancing is impossible — an exponentially rare event, making expected
    phases exponential in n. Stateful per run (resets on a fresh run's
    first step).

    Each pick delivers the first message in send order with the lowest
    score (Proposal-None 0, a Report on the minority side of its
    receiver's phase sample 1, any other Report 2, a Report that would
    complete a candidate majority 3, Proposal-Some 4). It keeps its own
    id-ordered buckets of the messages sharing a score — Proposal-None,
    Proposal-Some, and one per Report (dst, phase, v) — ranked by
    (score, head id), so a pick costs O(log B) for B non-empty buckets
    plus O(log P) view lookups per message sent since the last pick. *)
