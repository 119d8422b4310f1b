(** The asynchronous adversary: it owns the network (delivery order) and
    the crash budget.

    At every step the scheduler sees the full configuration — every
    in-flight message {e including its payload} (full information) — and
    either delivers one message or crashes a process. A crashed process's
    in-flight and future messages are discarded and it takes no further
    steps. The scheduler cannot forge or alter messages (crash faults
    only), and cannot starve the run forever: the engine caps total steps,
    and a schedule that exhausts the cap without decisions is reported as
    non-terminating — which is precisely FLP's conclusion for deterministic
    protocols. *)

type 'msg in_flight = {
  id : int;  (** Unique, monotonically increasing with send order. *)
  src : int;
  dst : int;
  payload : 'msg;
}

type 'msg view = {
  n : int;
  t : int;
  crash_budget_left : int;
  steps_taken : int;  (** 1 on a run's first [pick]. *)
  crashed : int -> bool;  (** O(1). *)
  decided : int -> int option;  (** O(1). *)
  pending_count : int;  (** In-flight messages; never 0 when [pick] is called. *)
  nth_pending : int -> 'msg in_flight;
      (** [nth_pending k]: the [k]-th in-flight message (0-based) in send
          (= id) order, O(log P). Raises [Invalid_argument] unless
          [0 <= k < pending_count]. *)
  find_pending : int -> 'msg in_flight option;
      (** The in-flight message with this id, if any, O(log P). *)
  iter_pending : ('msg in_flight -> unit) -> unit;
      (** Every in-flight message in send order. O(P + D), D being the
          messages removed since the store last compacted or resized. *)
}
(** A zero-copy window onto the configuration, P being the number of
    messages in flight. The accessors read the engine's own state — no
    per-step copies — and are only valid during the [pick] call that
    received them: the engine mutates the underlying state as soon as
    [pick] returns. A scheduler that keeps anything across steps must copy
    it out (the built-in ones keep scalars or message ids). *)

type action =
  | Deliver of int  (** Id of an in-flight message. *)
  | Crash of int  (** Process id; must be alive and within budget. *)

type 'msg t = {
  name : string;
  pick : 'msg view -> Prng.Rng.t -> action;
}

val fair : 'msg t
(** Deliver a uniformly random pending message (one [Prng.Rng.int] draw
    over [pending_count], then [nth_pending]), never crash — the
    benign/random scheduler under which Ben-Or terminates in O(1) expected
    phases for t = 0. *)

val fifo : 'msg t
(** Deliver the oldest pending message ([nth_pending 0]); draws nothing. A
    fully synchronous-ish benign schedule. *)

val random_crash : p:float -> 'msg t
(** Like {!fair}, but before each delivery crashes a random live process
    with probability [p] while the budget lasts: while budget is left and
    some process lives, one Bernoulli draw, then on success one uniform
    draw over the live pids (ascending). O(n) per step. *)
