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
  decision : 'state -> int option;
  halted : 'state -> bool;
  aggregate : ('state, 'msg) aggregate;
  bitops : ('state, 'msg) bitops option;
}

let decided p s = Option.is_some (p.decision s)

let bitkernel_capable p = Option.is_some p.bitops

let with_bitops p bitops =
  (match bitops.bo_coin_reg with
  | Some r when r < 0 || r >= bitops.bo_width ->
      invalid_arg "Protocol.with_bitops: bo_coin_reg out of range"
  | Some _ | None -> ());
  { p with bitops = Some bitops }
