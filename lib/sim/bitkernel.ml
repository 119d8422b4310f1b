(* The bit-packed engine.

   Register state lives in bit planes (one int array row per register,
   lane i of word i/lanes = process i, see Bitwords); the non-register
   fields of every active process are held once in a shared [template].
   A round with no kills whose Phase-B branch is uniform (the protocol's
   [bo_step] returns [Some _]) executes entirely at word granularity:
   coins are drawn word-at-a-time, tallies are popcounts, and the
   transition is a handful of plane blits.  Rounds the adversary
   individuates (kills, partial deliveries) or whose branch needs
   per-process data ([bo_step] returns [None]) materialize the scalar
   states and run through Engine's own Phase B, then re-pack when
   uniformity returns.

   The scalar state is an [Engine.exec] built by [Engine.start], so input
   checks, the trace/sink tee, the RNG split order, kill validation, the
   decision discipline and the outcome are Engine's code. Byte-identity
   with Engine is the contract for the packed rounds too: outcomes,
   traces, the event stream (Decisions ascending by pid, Kills in plan
   order, one Round summary), the exception discipline, and RNG
   consumption — each process's stream sees exactly the scalar draws
   (the coin bit, then the aux draws). *)

type ('state, 'msg) exec = {
  sc : ('state, 'msg) Engine.exec;
      (* The scalar state. In packed mode, [states] entries of ACTIVE
         processes are stale (the truth is template + planes) while
         entries of halted/dead processes stay valid forever. *)
  bo : ('state, 'msg) Protocol.bitops;
  nw : int;  (* Bitwords.words_for n *)
  (* Packed representation. *)
  mutable packed : bool;
  mutable template : 'state;
  mutable cur : int array array;  (* bo_width plane rows of nw words *)
  mutable nxt : int array array;  (* double buffer for the transition *)
  amask : int array;  (* active (alive && not halted), packed *)
  mutable active_cnt : int;
  mutable any_active_decided : bool;
      (* Uniform over actives by the bo_uniform contract; lets ws_decide
         = None reproduce Engine's revocation check without a scan. *)
  priv : int array;  (* per-process aux payload of the current round *)
  tallies : int array;  (* scratch, length bo_width *)
  (* Instrumentation for bench and tests. *)
  mutable packed_rounds : int;
  mutable scalar_rounds : int;
}

let active_at e i = e.sc.Engine.alive.(i) && not e.sc.Engine.halted.(i)

let active_count e =
  if e.packed then e.active_cnt else Engine.active_count e.sc

(* Gather process i's packed registers from the current planes. *)
let regs_at e i =
  let bits = ref 0 in
  for r = 0 to e.bo.Protocol.bo_width - 1 do
    if Bitwords.get e.cur.(r) i then bits := !bits lor (1 lsl r)
  done;
  !bits

let unpack_at e i = e.bo.Protocol.bo_unpack e.template (regs_at e i)

let first_active e =
  let rec go i =
    if i >= e.sc.Engine.n then invalid_arg "Bitkernel: no active process"
    else if active_at e i then i
    else go (i + 1)
  in
  go 0

(* Re-enter packed mode if every active process agrees on the
   non-register fields. Cheap to attempt (one O(active) scan); packing
   itself is O(active * width) bit writes. *)
let try_pack e =
  let sc = e.sc in
  if not e.packed then begin
    match
      (* First active pid, if any. *)
      let rec go i = if i >= sc.n then None else if active_at e i then Some i else go (i + 1) in
      go 0
    with
    | None -> ()
    | Some j0 ->
        let tmpl = sc.states.(j0) in
        let uniform = ref true in
        for i = j0 + 1 to sc.n - 1 do
          if active_at e i && not (e.bo.Protocol.bo_uniform tmpl sc.states.(i)) then
            uniform := false
        done;
        if !uniform then begin
          Array.fill e.amask 0 e.nw 0;
          for r = 0 to e.bo.Protocol.bo_width - 1 do
            Array.fill e.cur.(r) 0 e.nw 0
          done;
          let cnt = ref 0 in
          for i = 0 to sc.n - 1 do
            if active_at e i then begin
              incr cnt;
              Bitwords.set e.amask i true;
              let bits = e.bo.Protocol.bo_pack sc.states.(i) in
              for r = 0 to e.bo.Protocol.bo_width - 1 do
                if (bits lsr r) land 1 = 1 then Bitwords.set e.cur.(r) i true
              done
            end
          done;
          e.template <- tmpl;
          e.active_cnt <- !cnt;
          e.any_active_decided <- Option.is_some sc.decisions.(j0);
          e.packed <- true
        end
  end

let start ?record_trace ?observer ?sink protocol ~inputs ~t ~rng =
  let bo =
    match protocol.Protocol.bitops with
    | Some bo -> bo
    | None ->
        invalid_arg
          (Printf.sprintf "Bitkernel.start: protocol %s declares no bitops"
             protocol.Protocol.name)
  in
  let sc = Engine.start ?record_trace ?observer ?sink protocol ~inputs ~t ~rng in
  let n = sc.Engine.n in
  let nw = Bitwords.words_for n in
  let e =
    {
      sc;
      bo;
      nw;
      packed = false;
      template = sc.states.(0);
      cur = Array.init bo.Protocol.bo_width (fun _ -> Array.make nw 0);
      nxt = Array.init bo.Protocol.bo_width (fun _ -> Array.make nw 0);
      amask = Array.make nw 0;
      active_cnt = 0;
      any_active_decided = false;
      priv = Array.make n 0;
      tallies = Array.make bo.Protocol.bo_width 0;
      packed_rounds = 0;
      scalar_rounds = 0;
    }
  in
  (* Initial states are usually uniform up to registers (inputs live in
     register bits), so most runs start packed. *)
  try_pack e;
  e

(* Leave packed mode: rebuild the scalar states and staged messages of
   every active process from the planes. Halted/dead entries were never
   invalidated. *)
let materialize e =
  let sc = e.sc in
  if e.packed then begin
    Array.fill sc.pending 0 sc.n None;
    Bitwords.iter_ones e.amask e.nw (fun i ->
        let s = unpack_at e i in
        sc.states.(i) <- s;
        sc.pending.(i) <- Some (e.bo.Protocol.bo_msg s ~priv:e.priv.(i)));
    e.packed <- false
  end

(* Phase A at word granularity: the coin register is filled by one
   Rng.bit per active lane (ascending — coin_word's order), then the aux
   draws run per active process (ascending). Per-process streams make
   the two-pass order byte-identical to the scalar interleaved loop:
   each stream still sees its coin bit first, then its aux draws. *)
let packed_phase_a e =
  let proc_rngs = e.sc.Engine.proc_rngs in
  (match e.bo.Protocol.bo_coin_reg with
  | None -> ()
  | Some r ->
      let plane = e.cur.(r) in
      let rng_of k = proc_rngs.(k) in
      for w = 0 to e.nw - 1 do
        plane.(w) <-
          Prng.Sample.coin_word ~rng_of ~base:(w * Bitwords.lanes)
            ~mask:e.amask.(w)
      done);
  match e.bo.Protocol.bo_aux_draw with
  | None -> ()
  | Some f ->
      Bitwords.iter_ones e.amask e.nw (fun i ->
          e.priv.(i) <- f e.template proc_rngs.(i))

(* The whole uniform Phase B in word operations. [round] is the 1-based
   round being executed; planes hold the post-Phase-A values. *)
let packed_phase_b e ws round =
  let sc = e.sc in
  let emit_on = Obs.Sink.enabled sc.sink in
  (* ones_pending reads the staged messages, i.e. the pre-transition
     planes — compute it before they are overwritten. *)
  let ones =
    if not emit_on then None
    else
      match sc.observer with
      | None -> None
      | Some f ->
          let c = ref 0 in
          Bitwords.iter_ones e.amask e.nw (fun i ->
              if f (e.bo.Protocol.bo_msg (unpack_at e i) ~priv:e.priv.(i)) then
                incr c);
          Some !c
  in
  (* Simultaneous register update: read [cur], write [nxt], swap. *)
  for r = 0 to e.bo.Protocol.bo_width - 1 do
    let dst = e.nxt.(r) in
    match ws.Protocol.ws_regs.(r) with
    | Protocol.Keep -> Array.blit e.cur.(r) 0 dst 0 e.nw
    | Protocol.Fill true -> Array.blit e.amask 0 dst 0 e.nw
    | Protocol.Fill false -> Array.fill dst 0 e.nw 0
    | Protocol.Copy i -> Array.blit e.cur.(i) 0 dst 0 e.nw
    | Protocol.Not i ->
        let src = e.cur.(i) in
        for w = 0 to e.nw - 1 do
          dst.(w) <- lnot src.(w)
        done
  done;
  let old = e.cur in
  e.cur <- e.nxt;
  e.nxt <- old;
  e.template <- ws.Protocol.ws_state;
  (* Decision discipline, exactly Engine's checks. Decide sources read
     the post-transition planes, like the scalar [decision state']. *)
  let newly_decided = ref 0 in
  (match ws.Protocol.ws_decide with
  | None ->
      if e.any_active_decided then begin
        let j = first_active e in
        let v = Option.get sc.decisions.(j) in
        raise
          (Engine.Decision_changed
             (Printf.sprintf "process %d revoked decision %d" j v))
      end
  | Some d ->
      Bitwords.iter_ones e.amask e.nw (fun j ->
          let v =
            match d with
            | Protocol.Decide_const c -> c
            | Protocol.Decide_reg r -> if Bitwords.get e.cur.(r) j then 1 else 0
          in
          match sc.decisions.(j) with
          | Some v0 when v0 <> v ->
              raise
                (Engine.Decision_changed
                   (Printf.sprintf "process %d changed decision %d -> %d" j v0 v))
          | Some _ -> ()
          | None ->
              incr newly_decided;
              sc.decision_round.(j) <- round;
              sc.decisions.(j) <- Some v;
              if emit_on then
                Obs.Sink.emit sc.sink
                  (Obs.Event.Decision
                     { engine = Obs.Event.Sync; round; pid = j; value = v }));
      e.any_active_decided <- true);
  let newly_halted = ref 0 in
  let senders = e.active_cnt in
  if ws.Protocol.ws_halt then begin
    if not e.any_active_decided then begin
      let j = first_active e in
      raise
        (Engine.Decision_changed
           (Printf.sprintf "process %d halted without deciding" j))
    end;
    (* Halting is all-or-none in packed mode; pin each final state so
       later view/state reads of halted processes stay valid. *)
    Bitwords.iter_ones e.amask e.nw (fun j ->
        incr newly_halted;
        sc.halted.(j) <- true;
        sc.states.(j) <- unpack_at e j);
    Array.fill e.amask 0 e.nw 0;
    e.active_cnt <- 0
  end;
  sc.round <- round;
  e.packed_rounds <- e.packed_rounds + 1;
  if emit_on then
    Obs.Sink.emit sc.sink
      (Obs.Event.Round
         {
           engine = Obs.Event.Sync;
           round;
           active = senders;
           victims = [||];
           partial_sends = 0;
           (* No kills: every active receiver hears every sender. *)
           delivered = senders * senders;
           newly_decided = !newly_decided;
           newly_halted = !newly_halted;
           ones_pending = ones;
         })

let step e adversary =
  if active_count e = 0 then `Quiescent
  else begin
    let sc = e.sc in
    let round = sc.round + 1 in
    if e.packed then packed_phase_a e else Engine.phase_a sc;
    (* Engine's view, with packed-mode state/pending reconstructed on
       demand. *)
    let view =
      let v = Engine.view sc ~round in
      if not e.packed then v
      else
        {
          v with
          state =
            (fun i -> if active_at e i then unpack_at e i else sc.states.(i));
          pending =
            (fun i ->
              if active_at e i then
                Some (e.bo.Protocol.bo_msg (unpack_at e i) ~priv:e.priv.(i))
              else None);
        }
    in
    let kills = adversary.Adversary.plan view sc.adv_rng in
    let batched =
      e.packed && kills = []
      &&
      match
        let tallies = e.tallies in
        for r = 0 to e.bo.Protocol.bo_width - 1 do
          tallies.(r) <- Bitwords.popcount_masked e.cur.(r) e.amask e.nw
        done;
        e.bo.Protocol.bo_step e.template ~round ~nrecv:e.active_cnt ~tallies
      with
      | Some ws ->
          packed_phase_b e ws round;
          true
      | None -> false
    in
    if not batched then begin
      materialize e;
      Engine.phase_b sc kills ~round;
      e.scalar_rounds <- e.scalar_rounds + 1;
      try_pack e
    end;
    `Continue
  end

let run_until e adversary ~max_rounds =
  let rec loop () =
    if e.sc.Engine.round >= max_rounds then ()
    else match step e adversary with `Quiescent -> () | `Continue -> loop ()
  in
  loop ()

let outcome e = Engine.outcome e.sc

let run ?record_trace ?observer ?sink ?(max_rounds = 10_000) protocol adversary
    ~inputs ~t ~rng =
  let e = start ?record_trace ?observer ?sink protocol ~inputs ~t ~rng in
  run_until e adversary ~max_rounds;
  outcome e

(* B independent trials advanced in lockstep: one round per sweep across
   the batch, each trial on its own packed planes and its own streams.
   Trials whose adversary individuates a round fall back per-trial; the
   others stay word-level. Because every stream (per-process and
   adversary) is private to its trial, the interleaving is invisible:
   each trial's outcome and RNG consumption are byte-identical to
   running it alone — pinned by the batch-vs-sequential property. *)
let run_batch ?(max_rounds = 10_000) protocol ~adversary_of ~inputs_of ~rng_of
    ~t ~trials =
  if trials < 0 then invalid_arg "Bitkernel.run_batch: negative trial count";
  let execs =
    Array.init trials (fun i ->
        start protocol ~inputs:(inputs_of i) ~t ~rng:(rng_of i))
  in
  let advs = Array.init trials (fun i -> adversary_of i) in
  let live = Array.make trials true in
  let remaining = ref trials in
  while !remaining > 0 do
    for i = 0 to trials - 1 do
      if live.(i) then begin
        let e = execs.(i) in
        if e.sc.Engine.round >= max_rounds then begin
          live.(i) <- false;
          decr remaining
        end
        else
          match step e advs.(i) with
          | `Quiescent ->
              live.(i) <- false;
              decr remaining
          | `Continue -> ()
      end
    done
  done;
  Array.map outcome execs

let round e = Engine.round e.sc

let n e = Engine.n e.sc

let kills_used e = Engine.kills_used e.sc

let is_packed e = e.packed

let packed_rounds e = e.packed_rounds

let scalar_rounds e = e.scalar_rounds

let decisions e = Engine.decisions e.sc
