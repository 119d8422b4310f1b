(* Slot i (0-based) holds the entry with id [ids.(i)]; [vals.(i)] is [None]
   once it is removed. [tree] is a 1-based Fenwick tree over liveness:
   tree.(j) sums the live flags of slots (j - lowbit j, j]. The array
   length is a power of two so [nth]'s descent starts at its top bit. *)

type 'a t = {
  mutable ids : int array;
  mutable vals : 'a option array;
  mutable tree : int array;
  mutable len : int;  (* slots in use: [0, len) *)
  mutable live : int;
  mutable touched : int;
}

let min_capacity = 16

let create () =
  {
    ids = Array.make min_capacity 0;
    vals = Array.make min_capacity None;
    tree = Array.make (min_capacity + 1) 0;
    len = 0;
    live = 0;
    touched = 0;
  }

let count s = s.live

let capacity s = Array.length s.ids

let touched s = s.touched

let update s slot delta =
  let cap = Array.length s.ids in
  let j = ref (slot + 1) in
  while !j <= cap do
    s.tree.(!j) <- s.tree.(!j) + delta;
    s.touched <- s.touched + 1;
    j := !j + (!j land -(!j))
  done

(* Linear-time rebuild over the first [len] slots. *)
let rebuild s =
  let cap = Array.length s.ids in
  let tree = Array.make (cap + 1) 0 in
  for i = 0 to s.len - 1 do
    if Option.is_some s.vals.(i) then tree.(i + 1) <- 1
  done;
  for j = 1 to cap do
    let parent = j + (j land -j) in
    if parent <= cap then tree.(parent) <- tree.(parent) + tree.(j)
  done;
  s.tree <- tree;
  s.touched <- s.touched + s.len + cap

(* Move the live slots to the front, in order, into arrays of length
   [cap]; everything past them is cleared so removed values are
   unreachable. *)
let relayout s cap =
  let ids = if cap = Array.length s.ids then s.ids else Array.make cap 0 in
  let vals =
    if cap = Array.length s.vals then s.vals else Array.make cap None
  in
  let w = ref 0 in
  for i = 0 to s.len - 1 do
    match s.vals.(i) with
    | None -> ()
    | Some _ as v ->
        ids.(!w) <- s.ids.(i);
        vals.(!w) <- v;
        incr w
  done;
  Array.fill vals !w (cap - !w) None;
  s.touched <- s.touched + s.len;
  s.ids <- ids;
  s.vals <- vals;
  s.len <- !w;
  rebuild s

let make_room s =
  let cap = Array.length s.ids in
  if 2 * s.live <= cap then begin
    (* Compact; shrink while the result stays at most half full. *)
    let target = ref cap in
    while !target / 2 >= min_capacity && 2 * s.live <= !target / 2 do
      target := !target / 2
    done;
    relayout s !target
  end
  else relayout s (2 * cap)

let push s ~id v =
  if s.len > 0 && id <= s.ids.(s.len - 1) then
    invalid_arg "Async.Pending.push: ids must increase";
  if s.len = Array.length s.ids then make_room s;
  let slot = s.len in
  s.ids.(slot) <- id;
  s.vals.(slot) <- Some v;
  s.len <- slot + 1;
  s.live <- s.live + 1;
  update s slot 1

let get s slot =
  match s.vals.(slot) with
  | Some v -> v
  | None -> invalid_arg "Async.Pending: dead slot"

let nth s k =
  if k < 0 || k >= s.live then invalid_arg "Async.Pending.nth";
  let cap = Array.length s.ids in
  (* Largest [pos] whose prefix holds at most k live slots; slot [pos]
     (0-based) is then the (k+1)-th live one. *)
  let pos = ref 0 and rem = ref (k + 1) and step = ref cap in
  while !step > 0 do
    let next = !pos + !step in
    if next <= cap then begin
      s.touched <- s.touched + 1;
      if s.tree.(next) < !rem then begin
        pos := next;
        rem := !rem - s.tree.(next)
      end
    end;
    step := !step lsr 1
  done;
  get s !pos

(* Slot holding [id], or -1. *)
let slot_of s id =
  let lo = ref 0 and hi = ref (s.len - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    s.touched <- s.touched + 1;
    let x = s.ids.(mid) in
    if x = id then found := mid
    else if x < id then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let find s id =
  let slot = slot_of s id in
  if slot < 0 then None else s.vals.(slot)

let kill s slot =
  s.vals.(slot) <- None;
  s.live <- s.live - 1;
  update s slot (-1)

let remove s id =
  let slot = slot_of s id in
  if slot < 0 then None
  else
    match s.vals.(slot) with
    | None -> None
    | Some _ as v ->
        kill s slot;
        v

let remove_if s p =
  for i = 0 to s.len - 1 do
    match s.vals.(i) with Some v when p v -> kill s i | _ -> ()
  done;
  s.touched <- s.touched + s.len

let iter s f =
  for i = 0 to s.len - 1 do
    match s.vals.(i) with Some v -> f v | None -> ()
  done;
  s.touched <- s.touched + s.len
