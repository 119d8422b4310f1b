type ('state, 'msg) aggregate =
  | Aggregate : {
      init : unit -> 'acc;
      absorb : 'acc -> pid:int -> 'msg -> 'acc;
      finish : 'state -> round:int -> 'acc -> 'state;
    }
      -> ('state, 'msg) aggregate

type reg_src = Keep | Fill of bool | Copy of int | Not of int
type decide_src = Decide_const of int | Decide_reg of int

type 'state word_step = {
  ws_state : 'state;
  ws_regs : reg_src array;
  ws_decide : decide_src option;
  ws_halt : bool;
}

type ('state, 'msg) bitops = {
  bo_width : int;
  bo_pack : 'state -> int;
  bo_unpack : 'state -> int -> 'state;
  bo_uniform : 'state -> 'state -> bool;
  bo_coin_reg : int option;
  bo_aux_draw : ('state -> Prng.Rng.t -> int) option;
  bo_msg : 'state -> priv:int -> 'msg;
  bo_step :
    'state -> round:int -> nrecv:int -> tallies:int array -> 'state word_step option;
}

type ('state, 'msg) t = {
  name : string;
  init : n:int -> pid:int -> input:int -> 'state;
  phase_a : 'state -> Prng.Rng.t -> 'state * 'msg;
  phase_b : 'state -> round:int -> received:(int * 'msg) array -> 'state;
  decision : 'state -> int option;
  halted : 'state -> bool;
  aggregate : ('state, 'msg) aggregate option;
  bitops : ('state, 'msg) bitops option;
}

let decided p s = Option.is_some (p.decision s)

let legacy p = { p with aggregate = None; bitops = None }

let bitkernel_capable p =
  (* Bitkernel needs the aggregate too: kill rounds fall back to the
     engine's shared-aggregate delivery, never the legacy exchange. *)
  Option.is_some p.bitops && Option.is_some p.aggregate

(* Deriving phase_b from the aggregate makes the two delivery paths agree
   by construction: the legacy path folds [absorb] over the received array
   in ascending-sender order and hands the result to [finish], which is
   exactly what the engine's fast path computes incrementally. *)
let phase_b_of_aggregate (Aggregate a) =
  fun s ~round ~received ->
    let acc = ref (a.init ()) in
    Array.iter (fun (pid, m) -> acc := a.absorb !acc ~pid m) received;
    a.finish s ~round !acc

let with_aggregate ~name ~init ~phase_a ~decision ~halted aggregate =
  {
    name;
    init;
    phase_a;
    phase_b = phase_b_of_aggregate aggregate;
    decision;
    halted;
    aggregate = Some aggregate;
    bitops = None;
  }

let with_bitops p bitops =
  if Option.is_none p.aggregate then
    invalid_arg
      (Printf.sprintf
         "Protocol.with_bitops: %s declares no aggregate (Bitkernel's \
          fallback path requires one)"
         p.name);
  (match bitops.bo_coin_reg with
  | Some r when r < 0 || r >= bitops.bo_width ->
      invalid_arg "Protocol.with_bitops: bo_coin_reg out of range"
  | Some _ | None -> ());
  { p with bitops = Some bitops }
