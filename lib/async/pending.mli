(** The async engine's in-flight message store.

    Entries are kept in a slot array in id order (ids must be pushed in
    strictly increasing order, as the engine assigns them in send order),
    with a Fenwick tree over slot liveness:

    - [nth] (k-th live entry in id order) is an O(log P) tree descent;
    - [find] and [remove] locate a slot by binary search over the ids,
      O(log P), and removal is an O(log P) tree update;
    - [push] appends in amortized O(log P). When the array is full it is
      compacted in place if at most half the slots are live, else doubled;
      compaction also halves the array while it would stay at most half
      full, so capacity stays O(live entries).

    Removed entries are dropped from the array at once, so a removed value
    is never reachable from the store. [touched] counts every store entry
    visited (tree nodes, binary-search probes, slots walked by [iter],
    [remove_if] and compaction) — a deterministic, host-independent work
    counter. *)

type 'a t

val create : unit -> 'a t

val count : 'a t -> int
(** Live entries. O(1). *)

val capacity : 'a t -> int
(** Current slot-array length (a power of two). *)

val touched : 'a t -> int
(** Store entries visited since [create]. *)

val push : 'a t -> id:int -> 'a -> unit
(** Add an entry. Raises [Invalid_argument] if [id] does not exceed the
    ids still in the slot array, which would break its id order (the
    engine's ids increase with send order, so it never does). *)

val nth : 'a t -> int -> 'a
(** [nth s k] is the [k]-th live entry (0-based) in id order. Raises
    [Invalid_argument] unless [0 <= k < count s]. *)

val find : 'a t -> int -> 'a option
(** The live entry with this id. *)

val remove : 'a t -> int -> 'a option
(** Remove and return the live entry with this id. *)

val remove_if : 'a t -> ('a -> bool) -> unit
(** Remove every live entry satisfying the predicate, in one pass over the
    slots. *)

val iter : 'a t -> ('a -> unit) -> unit
(** Live entries in id order. *)
