(** The protocol interface: what a distributed algorithm must provide to run
    on the synchronous engine.

    The engine executes the paper's two-phase round structure (Section 3.1):

    - {b Phase A}: every active process updates its state, flips local coins
      from its private stream, and produces the message it will broadcast.
    - {b Phase B}: every process that survived the adversary's kills receives
      the delivered messages (always including its own) and updates its
      state, possibly deciding and possibly halting.

    States should be immutable values: the lower-bound machinery snapshots
    executions and replays alternative futures, which is only sound if
    states are not shared mutable structures. *)

type ('state, 'msg) aggregate =
  | Aggregate : {
      init : unit -> 'acc;  (** The empty aggregate (no message absorbed). *)
      absorb : 'acc -> pid:int -> 'msg -> 'acc;
          (** Fold one delivered message in. MUST be commutative (and
              association-free): the engine's shared-broadcast fast path
              absorbs a round's survivors once and replays per-receiver
              partial deliveries on top, so the absorb order seen by a
              receiver on a kill round differs from the ascending-sender
              order of the legacy received array. Counting, max-by-key and
              boolean-or folds qualify; anything order- or
              grouping-sensitive does not. *)
      finish : 'state -> round:int -> 'acc -> 'state;
          (** Complete Phase B from the aggregate — the analogue of
              [phase_b], with the received array collapsed to ['acc].
              On no-kill rounds the engine hands the {e same} accumulator
              value to every receiver's [finish], so [finish] must treat
              it as read-only. *)
    }
      -> ('state, 'msg) aggregate
(** An optional commutative-fold message consumer. A protocol that only
    needs a round tally (vote counts, max priority, value-set union, ...)
    declares one; the engine then never materializes the O(n) per-receiver
    [(sender, msg)] array, and in rounds with no kills computes one shared
    O(n) aggregate for all receivers instead of n independent O(n) scans.
    The accumulator type is existential: each protocol picks its own. *)

type reg_src =
  | Keep  (** The register keeps its pre-round value. *)
  | Fill of bool  (** Every active process's register becomes this bit. *)
  | Copy of int  (** Copy register [i]'s {e pre-round} plane. *)
  | Not of int  (** Complement of register [i]'s {e pre-round} plane. *)
(** Where a register's post-round plane comes from. [Copy]/[Not] read the
    planes as they stood {e before} the transition (simultaneous update),
    so a step may both copy register [i] and overwrite it. *)

type decide_src =
  | Decide_const of int  (** Every deciding process outputs this value. *)
  | Decide_reg of int
      (** Each process outputs its {e post-transition} register [i]. *)

type 'state word_step = {
  ws_state : 'state;
      (** Next non-register template state, shared by every active
          process. Ignored when [ws_halt] (the register planes still
          determine per-process decisions via [ws_decide]). *)
  ws_regs : reg_src array;  (** One source per register, length [bo_width]. *)
  ws_decide : decide_src option;
      (** If set, every active process decides this round. The engine's
          decision discipline (no change, no revocation) still applies. *)
  ws_halt : bool;  (** Halt every active process after this round. *)
}
(** A whole round's Phase-B transition for all active processes at once,
    valid only when the transition is {e uniform}: the same branch of the
    protocol applies to every active process and per-process variation is
    confined to the register planes. *)

type ('state, 'msg) bitops = {
  bo_width : int;  (** Number of binary registers (bit planes). *)
  bo_pack : 'state -> int;
      (** Pack the state's registers into the low [bo_width] bits
          (register [i] at bit [i]). *)
  bo_unpack : 'state -> int -> 'state;
      (** [bo_unpack template regs] rebuilds a full state from the
          template's non-register fields and the packed registers. Must
          be a left inverse of [bo_pack]:
          [bo_pack (bo_unpack t (bo_pack s)) = bo_pack s]. *)
  bo_uniform : 'state -> 'state -> bool;
      (** Whether two states agree on every {e non-register} field — the
          condition for sharing a packed template. Register fields are
          ignored. *)
  bo_coin_reg : int option;
      (** If set, Phase A's {e first} draw on each process's stream is one
          [Prng.Rng.bit] stored in this register; the kernel draws it
          word-granularly via [Prng.Sample.coin_word]. [None] means
          Phase A flips no coins. *)
  bo_aux_draw : ('state -> Prng.Rng.t -> int) option;
      (** The rest of Phase A's draws on each process's stream (after the
          coin), collapsed to one private int payload for [bo_msg]. Must
          consume exactly what the scalar [phase_a] would. [None] when
          the coin (or nothing) is all Phase A draws. *)
  bo_msg : 'state -> priv:int -> 'msg;
      (** Reconstruct the exact message the scalar [phase_a] would have
          returned, from the post-Phase-A state and the private payload.
          Used when a kill round forces materialized delivery. *)
  bo_step :
    'state -> round:int -> nrecv:int -> tallies:int array -> 'state word_step option;
      (** The word-level Phase B: given any active process's pre-round
          state as a template (its register fields MUST NOT be read),
          the number of received messages [nrecv] (uniform on batched
          rounds) and per-register sender tallies [tallies.(i)] = number
          of senders whose register [i] was set, return the uniform
          transition — or [None] when this round's branch depends on
          per-process data beyond the registers (the kernel then runs
          the round through the scalar engine path and re-packs). *)
}
(** Bit-plane operations: the opt-in contract for {!Bitkernel}, mirroring
    the {!aggregate} pattern. All functions must be observationally equal
    to the scalar [phase_a]/[phase_b] they vectorize, so the bit-packed
    engine is byte-identical to {!Engine} (pinned by the
    [bitkernel.differential] suite). *)

type ('state, 'msg) t = {
  name : string;
  init : n:int -> pid:int -> input:int -> 'state;
      (** Initial state of process [pid] of [n] with the given input bit. *)
  phase_a : 'state -> Prng.Rng.t -> 'state * 'msg;
      (** Local computation and coin flips; returns the broadcast message. *)
  phase_b : 'state -> round:int -> received:(int * 'msg) array -> 'state;
      (** Deliver messages, as (sender, message) pairs sorted by sender.
          The process's own message is always included. Protocols carrying
          an [aggregate] must keep [phase_b] behaviourally identical to
          [finish ∘ fold absorb] — use {!with_aggregate}, which derives
          [phase_b] from the aggregate so the two cannot drift. *)
  decision : 'state -> int option;
      (** The decided output, once the process has irrevocably decided.
          Must never change once set; the engine enforces this. *)
  halted : 'state -> bool;
      (** True once the process has stopped: it no longer sends or receives.
          A halted process must have decided. *)
  aggregate : ('state, 'msg) aggregate option;
      (** Declared aggregate consumer, or [None] to always receive the
          materialized array (the legacy exchange). *)
  bitops : ('state, 'msg) bitops option;
      (** Declared bit-plane operations, or [None] to keep the protocol
          off the bit-packed {!Bitkernel} engine. *)
}

val decided : ('state, 'msg) t -> 'state -> bool
(** [decided p s] is [true] iff [p.decision s] is [Some _]. *)

val legacy : ('state, 'msg) t -> ('state, 'msg) t
(** [legacy p] is [p] with its aggregate dropped: the engine will run it
    through the materialized-array exchange. Used by the differential
    tests and the hot-path benchmark to compare the two delivery paths. *)

val bitkernel_capable : ('state, 'msg) t -> bool
(** Whether the protocol declares both {!bitops} and an {!aggregate}, i.e.
    can run on the bit-packed {!Bitkernel} engine (whose kill-round
    fallback uses the aggregate delivery path). *)

val phase_b_of_aggregate :
  ('state, 'msg) aggregate ->
  'state ->
  round:int ->
  received:(int * 'msg) array ->
  'state
(** The [phase_b] a given aggregate induces: fold [absorb] over the
    received array in ascending-sender order, then [finish]. *)

val with_aggregate :
  name:string ->
  init:(n:int -> pid:int -> input:int -> 'state) ->
  phase_a:('state -> Prng.Rng.t -> 'state * 'msg) ->
  decision:('state -> int option) ->
  halted:('state -> bool) ->
  ('state, 'msg) aggregate ->
  ('state, 'msg) t
(** Build a protocol whose [phase_b] is {!phase_b_of_aggregate} of the
    given aggregate — the only way the fast and legacy paths are
    guaranteed to agree. *)

val with_bitops : ('state, 'msg) t -> ('state, 'msg) bitops -> ('state, 'msg) t
(** Attach bit-plane operations. Raises [Invalid_argument] if the protocol
    has no aggregate or [bo_coin_reg] is out of range. *)
