(* Differential tests for the engine's shared-fold delivery: for every
   protocol, under every adversary class, a full [Sim.Engine] run must be
   byte-identical — outcomes, decision rounds, kills, and the complete
   per-round trace — to the same run through [Sim_reference], which
   materializes every receiver's delivered array and folds it in
   ascending-sender order. Both consume randomness identically, so any
   divergence is a delivery bug, not noise. *)

let to_alcotest = QCheck_alcotest.to_alcotest

let outcomes_equal (a : Sim.Engine.outcome) (b : Sim.Engine.outcome) =
  a.Sim.Engine.rounds_executed = b.Sim.Engine.rounds_executed
  && a.rounds_to_decide = b.rounds_to_decide
  && a.decisions = b.decisions
  && a.faulty = b.faulty
  && a.halted = b.halted
  && a.kills_used = b.kills_used
  && a.quiescent = b.quiescent
  && Option.map Sim.Trace.records a.trace = Option.map Sim.Trace.records b.trace

(* Fresh adversary per run: band_control and leader_killer carry mutable
   round-to-round trackers. *)
let differential ~name ?(count = 30) ~protocol ~adversary ~n ~max_t () =
  QCheck.Test.make ~name ~count
    QCheck.(pair small_int small_int)
    (fun (seed, tsel) ->
      let t = tsel mod (max_t + 1) in
      let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
      outcomes_equal
        (Sim.Engine.run ~record_trace:true ~max_rounds:500 protocol
           (adversary ()) ~inputs ~t ~rng:(Prng.Rng.create seed))
        (Sim_reference.run ~record_trace:true ~max_rounds:500 protocol
           (adversary ()) ~inputs ~t ~rng:(Prng.Rng.create seed)))

let synran_adversaries =
  let rules = Core.Onesided.paper in
  [
    ("null", fun () -> Sim.Adversary.null);
    ("crash", fun () -> Baselines.Adversaries.random_crash ~p:0.15);
    ("partial", fun () -> Baselines.Adversaries.random_partial ~p:0.15);
    ("drip", fun () -> Baselines.Adversaries.drip ~per_round:1);
    ( "band",
      fun () ->
        Core.Lb_adversary.band_control ~rules
          ~bit_of_msg:Core.Synran.bit_of_msg () );
    ( "band-voting",
      fun () ->
        Core.Lb_adversary.band_control ~config:Core.Lb_adversary.voting_config
          ~rules ~bit_of_msg:Core.Synran.bit_of_msg () );
    ( "leader-killer",
      fun () ->
        Core.Lb_adversary.leader_killer ~rules
          ~bit_of_msg:Core.Synran.bit_of_msg
          ~prio_of_msg:Core.Synran.prio_of_msg () );
  ]

(* Message-generic adversaries, usable against protocols of any state/msg
   type (hence the polymorphic field). *)
type gen_adv = {
  aname : string;
  make : 'state 'msg. unit -> ('state, 'msg) Sim.Adversary.t;
}

let generic_adversaries =
  [
    { aname = "null"; make = (fun () -> Sim.Adversary.null) };
    { aname = "crash"; make = (fun () -> Baselines.Adversaries.random_crash ~p:0.2) };
    {
      aname = "partial";
      make = (fun () -> Baselines.Adversaries.random_partial ~p:0.2);
    };
    {
      aname = "crash-all";
      make = (fun () -> Baselines.Adversaries.crash_all_at ~round:2);
    };
  ]

let synran_tests =
  List.concat_map
    (fun (aname, adversary) ->
      [
        differential
          ~name:(Printf.sprintf "synran n=33 vs %s" aname)
          ~protocol:(Core.Synran.protocol 33) ~adversary ~n:33 ~max_t:32 ();
        differential ~count:15
          ~name:(Printf.sprintf "synran-leader n=24 vs %s" aname)
          ~protocol:(Core.Synran.protocol ~coin:Core.Synran.Leader_priority 24)
          ~adversary ~n:24 ~max_t:23 ();
      ])
    synran_adversaries

let baseline_tests =
  List.concat_map
    (fun { aname; make } ->
      [
        differential
          ~name:(Printf.sprintf "floodset n=21 vs %s" aname)
          ~protocol:(Baselines.Floodset.protocol ~rounds:6 ())
          ~adversary:make ~n:21 ~max_t:20 ();
        differential
          ~name:(Printf.sprintf "early-stop n=21 vs %s" aname)
          ~protocol:(Baselines.Early_stop.protocol ~rounds:6 ())
          ~adversary:make ~n:21 ~max_t:20 ();
      ])
    generic_adversaries

let game_tests =
  List.concat_map
    (fun { aname; make } ->
      List.map
        (fun p ->
          differential
            ~name:(Printf.sprintf "%s vs %s" p.Sim.Protocol.name aname)
            ~protocol:p ~adversary:make ~n:19 ~max_t:18 ())
        [
          Coinflip.Sim_game.majority0 19;
          Coinflip.Sim_game.majority_ignore_missing 19;
          Coinflip.Sim_game.parity 19;
          Coinflip.Sim_game.sum_mod ~k:3 19;
        ])
    generic_adversaries

(* The generic [of_eval] bridge folds into a pid-keyed map; kill rounds
   replay partial sends on top of the survivor base, so the map is built
   in a different order than the reference's ascending one. *)
let eval_game_tests =
  let adversaries =
    [
      ("crash", fun () -> Baselines.Adversaries.random_crash ~p:0.2);
      ("partial", fun () -> Baselines.Adversaries.random_partial ~p:0.3);
      ("drip", fun () -> Baselines.Adversaries.drip ~per_round:2);
    ]
  in
  List.concat_map
    (fun (aname, adversary) ->
      List.map
        (fun g ->
          let p = Coinflip.Sim_game.of_game g in
          differential
            ~name:(Printf.sprintf "%s vs %s" p.Sim.Protocol.name aname)
            ~protocol:p ~adversary ~n:19 ~max_t:18 ())
        [
          Coinflip.Games.majority_default_zero 19;
          Coinflip.Games.majority_ignore_missing 19;
          Coinflip.Games.parity 19;
          Coinflip.Games.sum_mod ~k:3 19;
        ])
    adversaries

(* The tally games must also agree with the generic [of_eval] bridge over
   the corresponding [Games] evaluator — same engine coins, so outcomes
   match exactly, pinning the aggregate against an independent spelling. *)
let prop_tally_matches_eval =
  QCheck.Test.make ~name:"sim_game tally = of_eval on the Games evaluators"
    ~count:60
    QCheck.(pair small_int (int_range 1 24))
    (fun (seed, n) ->
      let pairs =
        [
          ( Coinflip.Sim_game.majority0 n,
            Coinflip.Sim_game.of_game (Coinflip.Games.majority_default_zero n)
          );
          ( Coinflip.Sim_game.majority_ignore_missing n,
            Coinflip.Sim_game.of_game
              (Coinflip.Games.majority_ignore_missing n) );
          ( Coinflip.Sim_game.parity n,
            Coinflip.Sim_game.of_game (Coinflip.Games.parity n) );
        ]
      in
      List.for_all
        (fun (tally, generic) ->
          let run p =
            Sim.Engine.run p
              (Baselines.Adversaries.random_crash ~p:0.25)
              ~inputs:(Array.make n 0) ~t:(n - 1)
              ~rng:(Prng.Rng.create seed)
          in
          (run tally).Sim.Engine.decisions = (run generic).Sim.Engine.decisions)
        pairs)

(* The soundness condition the engine relies on for kill rounds: absorbing
   the messages in any order yields the same accumulator. *)
let prop_synran_absorb_commutes =
  QCheck.Test.make ~name:"synran absorb is order-independent" ~count:100
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, n) ->
      let p = Core.Synran.protocol n in
      let (Sim.Protocol.Aggregate a) = p.Sim.Protocol.aggregate in
          let rng = Prng.Rng.create seed in
          let msgs =
            Array.init n (fun pid ->
                let s =
                  p.Sim.Protocol.init ~n ~pid ~input:(Prng.Rng.bit rng)
                in
                let _, m = p.Sim.Protocol.phase_a s rng in
                (pid, m))
          in
          let fold arr =
            Array.fold_left
              (fun acc (pid, m) -> a.absorb acc ~pid m)
              (a.init ()) arr
          in
          let sorted = fold msgs in
          Prng.Sample.shuffle rng msgs;
          let shuffled = fold msgs in
          (* The accumulator is a plain record of scalars, so structural
             equality is exactly "same aggregate". *)
          sorted = shuffled)

let suites =
  [
    ( "delivery.differential",
      List.map to_alcotest
        (synran_tests @ baseline_tests @ game_tests @ eval_game_tests) );
    ( "delivery.algebra",
      List.map to_alcotest [ prop_tally_matches_eval; prop_synran_absorb_commutes ]
    );
  ]
