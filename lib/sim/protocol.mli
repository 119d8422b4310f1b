(** The protocol interface: what a distributed algorithm must provide to run
    on the synchronous engines.

    The engines execute the paper's two-phase round structure (Section 3.1):

    - {b Phase A}: every active process updates its state, flips local coins
      from its private stream, and produces the message it will broadcast.
    - {b Phase B}: every process that survived the adversary's kills receives
      the delivered messages (always including its own) and updates its
      state, possibly deciding and possibly halting.

    Phase B is always a commutative fold ({!aggregate}): the engine absorbs
    each delivered message into an accumulator and hands the result to
    [finish]. There is no per-receiver message array.

    States should be immutable values: the lower-bound machinery snapshots
    executions and replays alternative futures, which is only sound if
    states are not shared mutable structures. *)

type ('state, 'msg) aggregate =
  | Aggregate : {
      init : unit -> 'acc;  (** The empty aggregate (no message absorbed). *)
      absorb : 'acc -> pid:int -> 'msg -> 'acc;
          (** Fold one delivered message in. MUST be commutative as a value:
              the engine absorbs a kill round's survivors once and replays
              each receiver's partial deliveries on top, so the absorb
              order a receiver sees is not the ascending-sender order.
              Counting, max-by-key, set-union and persistent-map folds
              qualify; anything order- or grouping-sensitive does not. *)
      finish : 'state -> round:int -> 'acc -> 'state;
          (** Complete Phase B from the aggregate of the messages this
              receiver was delivered. On no-kill rounds the engine hands
              the {e same} accumulator value to every receiver's
              [finish], so [finish] must treat it as read-only. *)
    }
      -> ('state, 'msg) aggregate
(** The Phase-B message consumer. The engine never materializes a
    per-receiver [(sender, msg)] array: in rounds with no kills it
    computes one shared O(n) aggregate for all receivers, and in kill
    rounds a survivor base plus per-receiver partial-send deltas. The
    accumulator type is existential: each protocol picks its own. A
    protocol that needs the exact sender set folds into a set or a
    persistent map keyed by pid. *)

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
          Used when a round leaves the packed path for {!Engine.phase_b}. *)
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
(** Bit-plane operations: the opt-in contract for {!Bitkernel}. All
    functions must be observationally equal to the scalar [phase_a] and
    aggregate [finish] they vectorize, so the bit-packed engine is
    byte-identical to {!Engine} (pinned by the [bitkernel.differential]
    suite). *)

type ('state, 'msg) t = {
  name : string;
  init : n:int -> pid:int -> input:int -> 'state;
      (** Initial state of process [pid] of [n] with the given input bit. *)
  phase_a : 'state -> Prng.Rng.t -> 'state * 'msg;
      (** Local computation and coin flips; returns the broadcast message. *)
  decision : 'state -> int option;
      (** The decided output, once the process has irrevocably decided.
          Must never change once set; the engine enforces this. *)
  halted : 'state -> bool;
      (** True once the process has stopped: it no longer sends or receives.
          A halted process must have decided. *)
  aggregate : ('state, 'msg) aggregate;
      (** Phase B: the fold over this round's delivered messages, the
          receiver's own message always among them. *)
  bitops : ('state, 'msg) bitops option;
      (** Declared bit-plane operations, or [None] to keep the protocol
          off the bit-packed {!Bitkernel} engine. *)
}

val decided : ('state, 'msg) t -> 'state -> bool
(** [decided p s] is [true] iff [p.decision s] is [Some _]. *)

val bitkernel_capable : ('state, 'msg) t -> bool
(** Whether the protocol declares {!bitops}, i.e. can run on the
    bit-packed {!Bitkernel} engine. *)

val with_bitops : ('state, 'msg) t -> ('state, 'msg) bitops -> ('state, 'msg) t
(** Attach bit-plane operations. Raises [Invalid_argument] if
    [bo_coin_reg] is out of range. *)
