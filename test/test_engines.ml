(* Cross-engine invariants for the two synchronous engines, [Sim.Engine]
   (concrete) and [Sim.Bitkernel] (bit-packed), and for the pieces both
   share: the protocols' aggregate folds and the band-control planner.

   - Lockstep: both engines stepped round by round against identical
     adversaries agree after every round on the step result, the round
     counter, the active population, the kills spent and every decision —
     not just on the final outcome the differential suites compare.
   - Differential: full observed runs (outcome, trace, metrics and event
     digests) on configurations the [bitkernel.differential] suite does not
     cover.
   - Aggregate: every declared [absorb] is order-insensitive, which the
     engines' shared-broadcast delivery relies on (survivors absorbed once,
     partial deliveries replayed on top).
   - Band: the band-control planner's own [Band] event stream is the same
     under both engines, survives reuse across trials, and is pinned to
     fixed digests so any change to its decisions or RNG draws shows. *)

let to_alcotest = QCheck_alcotest.to_alcotest

let rules = Core.Onesided.paper

let band ?sink () =
  Core.Lb_adversary.band_control ?sink ~rules
    ~bit_of_msg:Core.Synran.bit_of_msg ()

let voting ?sink () =
  Core.Lb_adversary.band_control ?sink ~config:Core.Lb_adversary.voting_config
    ~rules ~bit_of_msg:Core.Synran.bit_of_msg ()

(* ------------------------------------------------------------------ *)
(* Lockstep: Engine and Bitkernel round by round                       *)
(* ------------------------------------------------------------------ *)

let lockstep ~name ?(count = 20) ?(rounds = 12) ~protocol ~adversary ~n ~max_t
    () =
  QCheck.Test.make ~name ~count
    QCheck.(pair small_int small_int)
    (fun (seed, tsel) ->
      let t = tsel mod (max_t + 1) in
      let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
      let e =
        Sim.Engine.start protocol ~inputs ~t ~rng:(Prng.Rng.create seed)
      in
      let b =
        Sim.Bitkernel.start protocol ~inputs ~t ~rng:(Prng.Rng.create seed)
      in
      let adv_e = adversary () and adv_b = adversary () in
      let agree () =
        Sim.Engine.round e = Sim.Bitkernel.round b
        && Sim.Engine.active_count e = Sim.Bitkernel.active_count b
        && Sim.Engine.kills_used e = Sim.Bitkernel.kills_used b
        && Sim.Engine.decisions e = Sim.Bitkernel.decisions b
      in
      let ok = ref (agree ()) in
      (try
         for _ = 1 to rounds do
           if !ok then begin
             let se = Sim.Engine.step e adv_e in
             let sb = Sim.Bitkernel.step b adv_b in
             if se <> sb || not (agree ()) then ok := false
           end
         done
       with exn ->
         ignore exn;
         ok := false);
      !ok)

let lockstep_tests =
  [
    lockstep ~name:"lockstep synran vs drip"
      ~protocol:(Core.Synran.protocol 29)
      ~adversary:(fun () -> Baselines.Adversaries.drip ~per_round:2)
      ~n:29 ~max_t:28 ();
    lockstep ~name:"lockstep synran vs partial"
      ~protocol:(Core.Synran.protocol 29)
      ~adversary:(fun () -> Baselines.Adversaries.random_partial ~p:0.25)
      ~n:29 ~max_t:28 ();
    lockstep ~name:"lockstep synran vs band"
      ~protocol:(Core.Synran.protocol 29)
      ~adversary:(fun () -> band ()) ~n:29 ~max_t:28 ();
    lockstep ~name:"lockstep synran vs band-voting"
      ~protocol:(Core.Synran.protocol 29)
      ~adversary:(fun () -> voting ()) ~n:29 ~max_t:28 ();
    lockstep ~name:"lockstep floodset vs partial" ~rounds:6
      ~protocol:(Baselines.Floodset.protocol ~rounds:6 ())
      ~adversary:(fun () -> Baselines.Adversaries.random_partial ~p:0.3)
      ~n:23 ~max_t:22 ();
    lockstep ~name:"lockstep floodset vs drip" ~rounds:6
      ~protocol:(Baselines.Floodset.protocol ~rounds:6 ())
      ~adversary:(fun () -> Baselines.Adversaries.drip ~per_round:1)
      ~n:23 ~max_t:22 ();
  ]

(* ------------------------------------------------------------------ *)
(* Differential: configurations outside bitkernel.differential         *)
(* ------------------------------------------------------------------ *)

let floodset_has_one (m : Baselines.Floodset.msg) = m.has_one

let differential_tests =
  [
    Test_bitkernel.differential
      ~name:"floodset n=21 bitkernel vs engine (crash-all)"
      ~observer:floodset_has_one
      ~protocol:(Baselines.Floodset.protocol ~rounds:6 ())
      ~adversary:(fun () -> Baselines.Adversaries.crash_all_at ~round:2)
      ~n:21 ~max_t:20 ();
    Test_bitkernel.differential
      ~name:"floodset n=21 bitkernel vs engine (drip)"
      ~observer:floodset_has_one
      ~protocol:(Baselines.Floodset.protocol ~rounds:6 ())
      ~adversary:(fun () -> Baselines.Adversaries.drip ~per_round:1)
      ~n:21 ~max_t:20 ();
    Test_bitkernel.differential ~count:8
      ~name:"synran n=129 bitkernel vs engine (band-voting)"
      ~observer:Core.Synran.msg_is_one ~protocol:(Core.Synran.protocol 129)
      ~adversary:(fun () -> voting ()) ~n:129 ~max_t:128 ();
    Test_bitkernel.differential ~count:15
      ~name:"synran n=65 bitkernel vs engine (leader-killer)"
      ~observer:Core.Synran.msg_is_one
      ~protocol:(Core.Synran.protocol ~coin:Core.Synran.Leader_priority 65)
      ~adversary:(fun () ->
        Core.Lb_adversary.leader_killer ~rules
          ~bit_of_msg:Core.Synran.bit_of_msg
          ~prio_of_msg:Core.Synran.prio_of_msg ())
      ~n:65 ~max_t:64 ();
  ]

(* ------------------------------------------------------------------ *)
(* Aggregate folds are absorb-order invariant                          *)
(* ------------------------------------------------------------------ *)

let shuffle rng a =
  for i = 1 to Array.length a - 1 do
    let j = Prng.Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* Run Phase A for every process, fold the delivered messages into the
   aggregate once in ascending-sender order and once in a random
   permutation, and require [finish] to give equal states for every
   receiver. Deliveries alternate between everyone, a fixed kill set and
   a random subset, so the partial-delivery path is covered too. [equal]
   gets the ascending delivered array for protocols whose state needs a
   semantic comparison. *)
let absorb_order_invariance ~name ?(count = 40)
    ?(equal = fun ~delivered:_ a b -> a = b) ~protocol ~n () =
  let open Sim.Protocol in
  let (Aggregate { init; absorb; finish }) = protocol.aggregate in
  QCheck.Test.make ~name ~count
    QCheck.(pair small_int small_int)
    (fun (seed, esel) ->
      let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
      let sent =
        Array.init n (fun pid ->
            protocol.phase_a
              (protocol.init ~n ~pid ~input:inputs.(pid))
              (Prng.Rng.of_seed_index ~seed ~index:pid))
      in
      let drop = Prng.Rng.create (seed + 31) in
      let delivered =
        List.filter
          (fun pid ->
            match esel mod 3 with
            | 0 -> true
            | 1 -> pid mod 5 <> 1
            | _ -> Prng.Rng.int drop 4 <> 0)
          (List.init n Fun.id)
      in
      let permuted =
        let a = Array.of_list delivered in
        shuffle (Prng.Rng.create (seed + 17)) a;
        Array.to_list a
      in
      let fold pids =
        List.fold_left
          (fun acc pid -> absorb acc ~pid (snd sent.(pid)))
          (init ()) pids
      in
      let fwd = fold delivered and perm = fold permuted in
      let delivered =
        Array.of_list
          (List.map (fun pid -> (pid, snd sent.(pid))) delivered)
      in
      Array.for_all
        (fun (st, _) ->
          let a = finish st ~round:1 fwd and b = finish st ~round:1 perm in
          equal ~delivered a b
          && protocol.decision a = protocol.decision b
          && protocol.halted a = protocol.halted b)
        sent)

(* Early-stopping FloodSet keeps the sender set as an [IntSet], whose tree
   shape depends on insertion order, so compare what the state determines:
   the early flag now, and the decision one round later when the same
   senders deliver again (a clean round iff the recorded set is right). *)
let early_stop_equal protocol ~delivered a b =
  let (Sim.Protocol.Aggregate agg) = protocol.Sim.Protocol.aggregate in
  let next s =
    agg.finish s ~round:2
      (Array.fold_left
         (fun acc (pid, m) -> agg.absorb acc ~pid m)
         (agg.init ()) delivered)
  in
  let a' = next a and b' = next b in
  Baselines.Early_stop.decided_early a = Baselines.Early_stop.decided_early b
  && protocol.decision a' = protocol.decision b'
  && Baselines.Early_stop.decided_early a'
     = Baselines.Early_stop.decided_early b'

let aggregate_tests =
  let early = Baselines.Early_stop.protocol ~rounds:4 () in
  [
    absorb_order_invariance ~name:"synran absorb order invariance"
      ~protocol:(Core.Synran.protocol 33) ~n:33 ();
    absorb_order_invariance
      ~name:"synran leader coin absorb order invariance"
      ~protocol:(Core.Synran.protocol ~coin:Core.Synran.Leader_priority 33)
      ~n:33 ();
    absorb_order_invariance ~name:"floodset absorb order invariance"
      ~protocol:(Baselines.Floodset.protocol ~rounds:1 ())
      ~n:21 ();
    absorb_order_invariance ~name:"early-stop absorb order invariance"
      ~equal:(early_stop_equal early) ~protocol:early ~n:21 ();
    absorb_order_invariance ~name:"majority game absorb order invariance"
      ~protocol:(Coinflip.Sim_game.majority_ignore_missing 25)
      ~n:25 ();
    absorb_order_invariance ~name:"sum-mod game absorb order invariance"
      ~protocol:(Coinflip.Sim_game.sum_mod ~k:3 25)
      ~n:25 ();
  ]

(* ------------------------------------------------------------------ *)
(* Band-control planner                                                *)
(* ------------------------------------------------------------------ *)

let recorder_sink () =
  let rc = Obs.Recorder.create () in
  (rc, Obs.Sink.create (fun ev -> Obs.Recorder.push rc ev))

(* The planner reads only the plain adversary view, which both engines
   build identically, so its own Band events must match too. *)
let band_events_across_engines =
  QCheck.Test.make ~name:"band events identical on engine and bitkernel (n=65)"
    ~count:15
    QCheck.(pair small_int small_int)
    (fun (seed, tsel) ->
      let n = 65 in
      let t = tsel mod n in
      let make = if seed mod 2 = 0 then band else voting in
      let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
      let protocol = Core.Synran.protocol n in
      let rc_e, sink_e = recorder_sink () and rc_b, sink_b = recorder_sink () in
      let o_e =
        Sim.Engine.run ~record_trace:true ~max_rounds:400 protocol
          (make ~sink:sink_e ()) ~inputs ~t ~rng:(Prng.Rng.create seed)
      in
      let o_b =
        Sim.Bitkernel.run ~record_trace:true ~max_rounds:400 protocol
          (make ~sink:sink_b ()) ~inputs ~t ~rng:(Prng.Rng.create seed)
      in
      Test_delivery.outcomes_equal o_e o_b
      && Obs.Recorder.length rc_e > 0
      && String.equal (Obs.Recorder.digest rc_e) (Obs.Recorder.digest rc_b))

(* One planner value reused across sequential trials resets its
   per-receiver tracker at round 1, so it must behave as a fresh one. *)
let band_reuse_equals_fresh =
  QCheck.Test.make ~name:"band planner reused across trials = fresh per trial"
    ~count:10 QCheck.small_int
    (fun seed ->
      let n = 33 and t = 16 in
      let protocol = Core.Synran.protocol n in
      let trial adv i =
        Sim.Engine.run ~record_trace:true ~max_rounds:400 protocol adv
          ~inputs:(Prng.Sample.random_bits (Prng.Rng.create (seed + i + 1)) n)
          ~t
          ~rng:(Prng.Rng.create (seed + (100 * i)))
      in
      let rc_r, sink_r = recorder_sink () and rc_f, sink_f = recorder_sink () in
      let reused = band ~sink:sink_r () in
      let a = List.init 4 (fun i -> trial reused i) in
      let b = List.init 4 (fun i -> trial (band ~sink:sink_f ()) i) in
      List.for_all2 Test_delivery.outcomes_equal a b
      && String.equal (Obs.Recorder.digest rc_r) (Obs.Recorder.digest rc_f))

(* Engine events and the planner's Band events for a fixed seed set, in
   one stream. The digests were recorded before the planner was folded
   into a single [band_control]; a change here means the adversary's
   decisions, its events or its RNG draws moved. *)
let band_digest ?config ~n ~t seeds =
  let rc, sink = recorder_sink () in
  List.iter
    (fun seed ->
      let adv =
        Core.Lb_adversary.band_control ?config ~sink ~rules
          ~bit_of_msg:Core.Synran.bit_of_msg ()
      in
      let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
      ignore
        (Sim.Engine.run ~sink ~max_rounds:400 (Core.Synran.protocol n) adv
           ~inputs ~t ~rng:(Prng.Rng.create seed)))
    seeds;
  Printf.sprintf "%d %s" (Obs.Recorder.length rc) (Obs.Recorder.digest rc)

let test_band_pinned_33 () =
  let seeds = [ 0; 1; 2; 3; 4; 5 ] in
  Alcotest.(check string)
    "band" "330 45cfc7f7cd6b7f34b79ed4ee535bdc8e"
    (band_digest ~n:33 ~t:16 seeds);
  Alcotest.(check string)
    "voting" "270 18e14d57ad743669ba4cbb5351961cbe"
    (band_digest ~config:Core.Lb_adversary.voting_config ~n:33 ~t:16 seeds)

let test_band_pinned_129 () =
  let seeds = [ 0; 1; 2 ] in
  Alcotest.(check string)
    "band" "491 9968f01a02e1a4c05b12b2022a426339"
    (band_digest ~n:129 ~t:64 seeds);
  Alcotest.(check string)
    "voting" "413 917822447cad5a1688c0817317d55a2c"
    (band_digest ~config:Core.Lb_adversary.voting_config ~n:129 ~t:64 seeds)

(* ------------------------------------------------------------------ *)
(* Engine capability API                                               *)
(* ------------------------------------------------------------------ *)

let test_capability_flags () =
  let check = Alcotest.(check bool) in
  check "synran is bitkernel-capable" true
    (Sim.Protocol.bitkernel_capable (Core.Synran.protocol 16));
  check "floodset is bitkernel-capable" true
    (Sim.Protocol.bitkernel_capable (Baselines.Floodset.protocol ~rounds:3 ()));
  check "early-stop is not" false
    (Sim.Protocol.bitkernel_capable
       (Baselines.Early_stop.protocol ~rounds:3 ()))

(* Callers fall back to the concrete engine; the kernel itself refuses
   instead of running a protocol it cannot vectorize. *)
let test_bitkernel_refuses () =
  let refused p =
    match
      Sim.Bitkernel.start p ~inputs:(Array.make 8 0) ~t:2
        ~rng:(Prng.Rng.create 7)
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool)
    "no bitops" true
    (refused (Baselines.Early_stop.protocol ~rounds:4 ()))

(* t = n is accepted on purpose: the adversary may crash everyone, and
   rounds_to_decide is then vacuously the last executed round. *)
let test_crash_all_budget_n () =
  let check (type s m) name (protocol : (s, m) Sim.Protocol.t) n =
    let inputs = Prng.Sample.random_bits (Prng.Rng.create 3) n in
    let adversary () = Baselines.Adversaries.crash_all_at ~round:2 in
    let o_e =
      Sim.Engine.run ~record_trace:true protocol (adversary ()) ~inputs ~t:n
        ~rng:(Prng.Rng.create 4)
    and o_b =
      Sim.Bitkernel.run ~record_trace:true protocol (adversary ()) ~inputs
        ~t:n ~rng:(Prng.Rng.create 4)
    in
    Alcotest.(check bool) (name ^ ": engines agree") true
      (Test_delivery.outcomes_equal o_e o_b);
    Alcotest.(check int) (name ^ ": everyone crashed") n o_e.Sim.Engine.kills_used;
    Alcotest.(check bool) (name ^ ": quiescent") true o_e.quiescent;
    Alcotest.(check (option int)) (name ^ ": vacuous rounds_to_decide")
      (Some 2) o_e.rounds_to_decide;
    Alcotest.(check int) (name ^ ": stopped at the crash") 2 o_e.rounds_executed
  in
  check "floodset n=21" (Baselines.Floodset.protocol ~rounds:6 ()) 21;
  check "synran n=33" (Core.Synran.protocol 33) 33

let suites =
  [
    ("engines.lockstep", List.map to_alcotest lockstep_tests);
    ("engines.differential", List.map to_alcotest differential_tests);
    ("engines.aggregate", List.map to_alcotest aggregate_tests);
    ( "engines.band",
      List.map to_alcotest
        [ band_events_across_engines; band_reuse_equals_fresh ]
      @ [
          Alcotest.test_case "planner digests pinned (n=33)" `Quick
            test_band_pinned_33;
          Alcotest.test_case "planner digests pinned (n=129)" `Quick
            test_band_pinned_129;
        ] );
    ( "engines.api",
      [
        Alcotest.test_case "capability flags" `Quick test_capability_flags;
        Alcotest.test_case "bitkernel refuses uncapable protocols" `Quick
          test_bitkernel_refuses;
        Alcotest.test_case "t = n crash-all is vacuous on both engines"
          `Quick test_crash_all_budget_n;
      ] );
  ]
