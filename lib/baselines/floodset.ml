type msg = { has_zero : bool; has_one : bool }

type state = {
  rounds_total : int;
  default : int;
  has_zero : bool;
  has_one : bool;
  rounds_done : int;
  decision : int option;
}

let word s = (s.has_zero, s.has_one)

let protocol ~rounds ?(default = 0) () =
  if rounds < 1 then invalid_arg "Floodset.protocol: rounds must be >= 1";
  if default <> 0 && default <> 1 then invalid_arg "Floodset.protocol: default";
  let init ~n:_ ~pid:_ ~input =
    {
      rounds_total = rounds;
      default;
      has_zero = input = 0;
      has_one = input = 1;
      rounds_done = 0;
      decision = None;
    }
  in
  let phase_a s _rng = (s, { has_zero = s.has_zero; has_one = s.has_one }) in
  (* The round's messages collapse to the OR of their value words — a
     commutative fold, so the engine's shared-aggregate path applies. *)
  let absorb (z, o) ~pid:_ (m : msg) = (z || m.has_zero, o || m.has_one) in
  let finish s ~round:_ (z, o) =
    let has_zero = s.has_zero || z and has_one = s.has_one || o in
    let rounds_done = s.rounds_done + 1 in
    let decision =
      if rounds_done < s.rounds_total then None
      else
        match (has_zero, has_one) with
        | true, false -> Some 0
        | false, true -> Some 1
        | true, true -> Some s.default
        | false, false ->
            (* Unreachable: a process always sees its own input. *)
            assert false
    in
    { s with has_zero; has_one; rounds_done; decision }
  in
  (* Bit-plane operations: the value word is the whole per-process state
     (registers has_zero = bit 0, has_one = bit 1); FloodSet draws no
     coins. A process's own flags are subsumed by the sender tallies
     (own message always delivered), so the flooded union — and hence
     the final decision — is uniform, and every round is a word-level
     [Fill]. *)
  let bo_pack s =
    (if s.has_zero then 1 else 0) lor ((if s.has_one then 1 else 0) lsl 1)
  in
  let bo_unpack t regs =
    { t with has_zero = regs land 1 = 1; has_one = (regs lsr 1) land 1 = 1 }
  in
  let bo_uniform (a : state) (b : state) =
    a.rounds_total = b.rounds_total && a.default = b.default
    && a.rounds_done = b.rounds_done
    && match (a.decision, b.decision) with
       | None, None -> true
       | Some x, Some y -> x = y
       | None, Some _ | Some _, None -> false
  in
  let bo_msg s ~priv:_ = { has_zero = s.has_zero; has_one = s.has_one } in
  let bo_step s ~round:_ ~nrecv:_ ~tallies =
    let z = tallies.(0) > 0 and o = tallies.(1) > 0 in
    let rounds_done = s.rounds_done + 1 in
    if rounds_done < s.rounds_total then
      Some
        {
          Sim.Protocol.ws_state = { s with rounds_done };
          ws_regs = [| Fill z; Fill o |];
          ws_decide = None;
          ws_halt = false;
        }
    else
      let v =
        match (z, o) with
        | true, false -> 0
        | false, true -> 1
        | true, true -> s.default
        | false, false ->
            (* Unreachable: a process always sees its own input. *)
            assert false
      in
      Some
        {
          Sim.Protocol.ws_state = { s with rounds_done; decision = Some v };
          ws_regs = [| Fill z; Fill o |];
          ws_decide = Some (Decide_const v);
          ws_halt = true;
        }
  in
  Sim.Protocol.with_bitops
    {
      Sim.Protocol.name = Printf.sprintf "floodset[r=%d]" rounds;
      init;
      phase_a;
      decision = (fun s -> s.decision);
      halted = (fun s -> Option.is_some s.decision);
      aggregate = Aggregate { init = (fun () -> (false, false)); absorb; finish };
      bitops = None;
    }
    {
      Sim.Protocol.bo_width = 2;
      bo_pack;
      bo_unpack;
      bo_uniform;
      bo_coin_reg = None;
      bo_aux_draw = None;
      bo_msg;
      bo_step;
    }
