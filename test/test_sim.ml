(* Unit tests for the simulator: round structure, fail-stop semantics
   (partial sends, permanent death), adversary validation, decision
   discipline, snapshot/reseed, runner, and checker. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A diagnostic protocol: every round, broadcast own pid; remember exactly
   who was heard from each round; decide own input after [decide_at]
   receives; halt one round after deciding. *)
type probe_state = {
  pid : int;
  input : int;
  decide_at : int;
  heard : int list list;  (* most recent first *)
  decision : int option;
  halted : bool;
}

module Int_set = Set.Make (Int)

(* The sender set is a persistent set, so the order the engine absorbs
   messages in cannot show; [heard] lists it ascending. *)
let probe ?(decide_at = max_int) () =
  {
    Sim.Protocol.name = "probe";
    init =
      (fun ~n:_ ~pid ~input ->
        { pid; input; decide_at; heard = []; decision = None; halted = false });
    phase_a = (fun s _rng -> (s, s.pid));
    decision = (fun s -> s.decision);
    halted = (fun s -> s.halted);
    aggregate =
      Aggregate
        {
          init = (fun () -> Int_set.empty);
          absorb = (fun heard ~pid _ -> Int_set.add pid heard);
          finish =
            (fun s ~round:_ heard ->
              let rounds_done = List.length s.heard + 1 in
              let decision =
                if rounds_done >= s.decide_at then Some s.input else s.decision
              in
              let halted = s.decision <> None in
              {
                s with
                heard = Int_set.elements heard :: s.heard;
                decision;
                halted;
              });
        };
    bitops = None;
  }

(* Phase B for protocols that ignore what they receive. *)
let unit_aggregate finish =
  Sim.Protocol.Aggregate
    {
      init = (fun () -> ());
      absorb = (fun () ~pid:_ _ -> ());
      finish = (fun s ~round () -> finish s ~round);
    }

let run_probe ?record_trace ?max_rounds ?(decide_at = max_int) ~inputs ~t
    adversary =
  Sim.Engine.run ?record_trace ?max_rounds (probe ~decide_at ()) adversary
    ~inputs ~t ~rng:(Prng.Rng.create 7)

let heard_at exec_states pid round_from_latest =
  List.nth (exec_states.(pid) : probe_state).heard round_from_latest

(* --- Engine basics ---------------------------------------------------- *)

let test_null_full_delivery () =
  let e =
    Sim.Engine.start (probe ()) ~inputs:[| 0; 1; 0; 1 |] ~t:0
      ~rng:(Prng.Rng.create 1)
  in
  (match Sim.Engine.step e Sim.Adversary.null with
  | `Continue -> ()
  | `Quiescent -> Alcotest.fail "should run");
  let states = Sim.Engine.states e in
  for pid = 0 to 3 do
    Alcotest.(check (list int))
      (Printf.sprintf "pid %d hears everyone" pid)
      [ 0; 1; 2; 3 ] (heard_at states pid 0)
  done

let test_own_message_always_received () =
  (* Kill pid 0 silently in round 1; everyone else loses its message, but a
     killed process is dead and no longer receives at all — here we check
     that a *surviving* process always hears itself even when others die. *)
  let adversary =
    {
      Sim.Adversary.name = "kill0";
      plan =
        (fun view _ ->
          if view.Sim.Adversary.round = 1 then [ Sim.Adversary.kill_silent 0 ]
          else []);
    }
  in
  let e =
    Sim.Engine.start (probe ()) ~inputs:[| 0; 1; 1 |] ~t:1
      ~rng:(Prng.Rng.create 2)
  in
  ignore (Sim.Engine.step e adversary);
  let states = Sim.Engine.states e in
  Alcotest.(check (list int)) "pid 1 hears 1 and 2 only" [ 1; 2 ]
    (heard_at states 1 0)

let test_partial_send () =
  (* Victim 0's last message reaches only pid 2. *)
  let adversary =
    {
      Sim.Adversary.name = "partial";
      plan =
        (fun view _ ->
          if view.Sim.Adversary.round = 1 then
            [ Sim.Adversary.kill_after_send 0 ~recipients:[ 2 ] ]
          else []);
    }
  in
  let e =
    Sim.Engine.start (probe ()) ~inputs:[| 1; 1; 1; 1 |] ~t:1
      ~rng:(Prng.Rng.create 3)
  in
  ignore (Sim.Engine.step e adversary);
  let states = Sim.Engine.states e in
  Alcotest.(check (list int)) "pid 1 missed it" [ 1; 2; 3 ] (heard_at states 1 0);
  Alcotest.(check (list int)) "pid 2 got it" [ 0; 1; 2; 3 ] (heard_at states 2 0);
  Alcotest.(check (list int)) "pid 3 missed it" [ 1; 2; 3 ] (heard_at states 3 0)

let test_dead_stay_dead () =
  let adversary =
    {
      Sim.Adversary.name = "kill0@1";
      plan =
        (fun view _ ->
          if view.Sim.Adversary.round = 1 then [ Sim.Adversary.kill_silent 0 ]
          else []);
    }
  in
  let e =
    Sim.Engine.start (probe ()) ~inputs:[| 1; 0; 0 |] ~t:1
      ~rng:(Prng.Rng.create 4)
  in
  ignore (Sim.Engine.step e adversary);
  ignore (Sim.Engine.step e adversary);
  ignore (Sim.Engine.step e adversary);
  let states = Sim.Engine.states e in
  (* Rounds 2 and 3: the dead pid 0 never appears again. *)
  Alcotest.(check (list int)) "round 3" [ 1; 2 ] (heard_at states 1 0);
  Alcotest.(check (list int)) "round 2" [ 1; 2 ] (heard_at states 1 1);
  let alive = Sim.Engine.alive e in
  check_bool "pid 0 dead" false alive.(0);
  check_int "one kill used" 1 (Sim.Engine.kills_used e)

let test_halted_stop_sending_and_receiving () =
  (* decide_at 1: everyone decides after round 1, halts after round 2
     (halt is one round after decision in the probe). *)
  let o = run_probe ~decide_at:1 ~inputs:[| 0; 0; 0 |] ~t:0 Sim.Adversary.null in
  check_bool "quiescent" true o.Sim.Engine.quiescent;
  Alcotest.(check (option int)) "decided at round 1" (Some 1)
    o.Sim.Engine.rounds_to_decide;
  check_int "two rounds executed (decide, then halt)" 2
    o.Sim.Engine.rounds_executed

let test_max_rounds_cap () =
  let o = run_probe ~max_rounds:5 ~inputs:[| 0; 1 |] ~t:0 Sim.Adversary.null in
  check_int "capped" 5 o.Sim.Engine.rounds_executed;
  check_bool "not quiescent" false o.Sim.Engine.quiescent;
  Alcotest.(check (option int)) "no decision" None o.Sim.Engine.rounds_to_decide

let test_outcome_fields () =
  let adversary =
    {
      Sim.Adversary.name = "kill1@2";
      plan =
        (fun view _ ->
          if view.Sim.Adversary.round = 2 then [ Sim.Adversary.kill_silent 1 ]
          else []);
    }
  in
  let o =
    run_probe ~decide_at:4 ~max_rounds:20 ~inputs:[| 1; 1; 0 |] ~t:2 adversary
  in
  check_int "kills used" 1 o.Sim.Engine.kills_used;
  check_bool "pid 1 faulty" true o.Sim.Engine.faulty.(1);
  check_bool "pid 0 not faulty" false o.Sim.Engine.faulty.(0);
  Alcotest.(check (option int)) "pid 1 never decided" None o.Sim.Engine.decisions.(1);
  Alcotest.(check (option int)) "pid 0 decided input" (Some 1)
    o.Sim.Engine.decisions.(0);
  Alcotest.(check (option int)) "all non-faulty decided at 4" (Some 4)
    o.Sim.Engine.rounds_to_decide

let test_all_dead_vacuous_termination () =
  let adversary =
    {
      Sim.Adversary.name = "kill-everyone";
      plan =
        (fun view _ ->
          Sim.Adversary.active_pids view |> List.map Sim.Adversary.kill_silent);
    }
  in
  let o = run_probe ~inputs:[| 0; 1 |] ~t:2 adversary in
  check_bool "quiescent" true o.Sim.Engine.quiescent;
  Alcotest.(check (option int)) "vacuous termination" (Some 1)
    o.Sim.Engine.rounds_to_decide

(* --- Adversary validation --------------------------------------------- *)

let test_budget_enforced () =
  let adversary =
    {
      Sim.Adversary.name = "greedy";
      plan =
        (fun view _ ->
          Sim.Adversary.active_pids view |> List.map Sim.Adversary.kill_silent);
    }
  in
  check_bool "raises Budget_exceeded" true
    (try
       ignore (run_probe ~inputs:[| 0; 1; 0 |] ~t:1 adversary);
       false
     with Sim.Engine.Budget_exceeded _ -> true)

let test_invalid_victim () =
  let dead_killer =
    {
      Sim.Adversary.name = "kill0-twice";
      plan = (fun _ _ -> [ Sim.Adversary.kill_silent 0; Sim.Adversary.kill_silent 0 ]);
    }
  in
  check_bool "duplicate victim rejected" true
    (try
       ignore (run_probe ~inputs:[| 0; 1; 0 |] ~t:3 dead_killer);
       false
     with Sim.Engine.Invalid_kill _ -> true);
  let out_of_range =
    {
      Sim.Adversary.name = "kill99";
      plan = (fun _ _ -> [ Sim.Adversary.kill_silent 99 ]);
    }
  in
  check_bool "out-of-range victim rejected" true
    (try
       ignore (run_probe ~inputs:[| 0; 1 |] ~t:2 out_of_range);
       false
     with Sim.Engine.Invalid_kill _ -> true);
  let bad_recipient =
    {
      Sim.Adversary.name = "bad-recipient";
      plan = (fun _ _ -> [ Sim.Adversary.kill_after_send 0 ~recipients:[ 42 ] ]);
    }
  in
  check_bool "out-of-range recipient rejected" true
    (try
       ignore (run_probe ~inputs:[| 0; 1 |] ~t:2 bad_recipient);
       false
     with Sim.Engine.Invalid_kill _ -> true)

(* --- Protocol discipline ----------------------------------------------- *)

(* A buggy protocol that flips its decision every round. *)
let flip_flop =
  {
    Sim.Protocol.name = "flip-flop";
    init = (fun ~n:_ ~pid:_ ~input:_ -> 0);
    phase_a = (fun s _ -> (s, ()));
    decision = (fun s -> Some (s mod 2));
    halted = (fun _ -> false);
    aggregate = unit_aggregate (fun s ~round:_ -> s + 1);
    bitops = None;
  }

let test_decision_change_detected () =
  check_bool "raises Decision_changed" true
    (try
       ignore
         (Sim.Engine.run flip_flop Sim.Adversary.null ~inputs:[| 0; 0 |] ~t:0
            ~rng:(Prng.Rng.create 5));
       false
     with Sim.Engine.Decision_changed _ -> true)

let halt_without_decide =
  {
    Sim.Protocol.name = "halt-no-decide";
    init = (fun ~n:_ ~pid:_ ~input:_ -> ());
    phase_a = (fun s _ -> (s, ()));
    decision = (fun _ -> None);
    halted = (fun _ -> true);
    aggregate = unit_aggregate (fun s ~round:_ -> s);
    bitops = None;
  }

let test_halt_without_decision_detected () =
  check_bool "raises Decision_changed" true
    (try
       ignore
         (Sim.Engine.run halt_without_decide Sim.Adversary.null
            ~inputs:[| 0; 0 |] ~t:0 ~rng:(Prng.Rng.create 6));
       false
     with Sim.Engine.Decision_changed _ -> true)

let test_engine_input_validation () =
  check_bool "bad input bit" true
    (try
       ignore
         (Sim.Engine.start (probe ()) ~inputs:[| 0; 2 |] ~t:0
            ~rng:(Prng.Rng.create 7));
       false
     with Invalid_argument _ -> true);
  check_bool "bad budget" true
    (try
       ignore
         (Sim.Engine.start (probe ()) ~inputs:[| 0; 1 |] ~t:3
            ~rng:(Prng.Rng.create 7));
       false
     with Invalid_argument _ -> true)

(* --- Snapshot / reseed -------------------------------------------------- *)

(* A coin protocol: each process decides its first coin flip at round 1. *)
let coin_protocol =
  {
    Sim.Protocol.name = "coin";
    init = (fun ~n:_ ~pid:_ ~input:_ -> None);
    phase_a =
      (fun s rng ->
        match s with
        | None -> (Some (Prng.Rng.bit rng), ())
        | Some _ -> (s, ()));
    decision = (fun s -> s);
    halted = (fun s -> Option.is_some s);
    aggregate = unit_aggregate (fun s ~round:_ -> s);
    bitops = None;
  }

let decisions_key o =
  Array.to_list o.Sim.Engine.decisions
  |> List.map (function None -> "-" | Some v -> string_of_int v)
  |> String.concat ""

let test_snapshot_independent () =
  let e =
    Sim.Engine.start (probe ()) ~inputs:[| 0; 1; 0 |] ~t:0
      ~rng:(Prng.Rng.create 8)
  in
  ignore (Sim.Engine.step e Sim.Adversary.null);
  let c = Sim.Engine.snapshot e in
  ignore (Sim.Engine.step c Sim.Adversary.null);
  ignore (Sim.Engine.step c Sim.Adversary.null);
  check_int "original unchanged" 1 (Sim.Engine.round e);
  check_int "copy advanced" 3 (Sim.Engine.round c)

let test_snapshot_replays_same_coins () =
  let e =
    Sim.Engine.start coin_protocol ~inputs:(Array.make 16 0) ~t:0
      ~rng:(Prng.Rng.create 9)
  in
  let c = Sim.Engine.snapshot e in
  Sim.Engine.run_until e Sim.Adversary.null ~max_rounds:3;
  Sim.Engine.run_until c Sim.Adversary.null ~max_rounds:3;
  Alcotest.(check string) "same coins"
    (decisions_key (Sim.Engine.outcome e))
    (decisions_key (Sim.Engine.outcome c))

let test_reseed_changes_coins () =
  let e =
    Sim.Engine.start coin_protocol ~inputs:(Array.make 64 0) ~t:0
      ~rng:(Prng.Rng.create 10)
  in
  let c = Sim.Engine.snapshot e in
  Sim.Engine.reseed c (Prng.Rng.create 999);
  Sim.Engine.run_until e Sim.Adversary.null ~max_rounds:3;
  Sim.Engine.run_until c Sim.Adversary.null ~max_rounds:3;
  check_bool "coins resampled" false
    (decisions_key (Sim.Engine.outcome e) = decisions_key (Sim.Engine.outcome c))

(* --- Runner -------------------------------------------------------------- *)

let test_runner_reproducible () =
  let protocol = Core.Synran.protocol 16 in
  let run () =
    Sim.Runner.run_trials ~trials:20 ~seed:5
      ~gen_inputs:(Sim.Runner.input_gen_random ~n:16)
      ~t:8 protocol (fun () -> Baselines.Adversaries.random_crash ~p:0.1)
  in
  let a = run () and b = run () in
  Alcotest.(check (float 1e-12))
    "same mean rounds" (Sim.Runner.mean_rounds a) (Sim.Runner.mean_rounds b);
  check_int "same zero-decisions" a.Sim.Runner.decided_zero b.Sim.Runner.decided_zero

let test_runner_counts () =
  let protocol = Core.Synran.protocol 8 in
  let s =
    Sim.Runner.run_trials ~trials:25 ~seed:6
      ~gen_inputs:(Sim.Runner.input_gen_const ~n:8 1)
      ~t:0 protocol (fun () -> Sim.Adversary.null)
  in
  check_int "trials" 25 s.Sim.Runner.trials;
  check_int "all decided one" 25 s.Sim.Runner.decided_one;
  check_int "none decided zero" 0 s.Sim.Runner.decided_zero;
  check_int "all terminated" 0 s.Sim.Runner.non_terminating;
  Alcotest.(check (list string)) "no safety errors" [] s.Sim.Runner.safety_errors

let test_input_generators () =
  let rng = Prng.Rng.create 11 in
  let split = Sim.Runner.input_gen_split ~n:10 rng in
  check_int "split has five ones" 5 (Array.fold_left ( + ) 0 split);
  let const = Sim.Runner.input_gen_const ~n:4 1 rng in
  Alcotest.(check (list int)) "const ones" [ 1; 1; 1; 1 ] (Array.to_list const);
  let random = Sim.Runner.input_gen_random ~n:100 rng in
  check_int "random length" 100 (Array.length random)

(* --- Checker ---------------------------------------------------------------- *)

let outcome_with ~decisions ~faulty =
  {
    Sim.Engine.rounds_executed = 5;
    rounds_to_decide = Some 5;
    decisions;
    faulty;
    halted = Array.map (fun d -> Option.is_some d) decisions;
    kills_used = 0;
    quiescent = true;
    trace = None;
  }

let test_checker_agreement_violation () =
  let o =
    outcome_with
      ~decisions:[| Some 0; Some 1; Some 0 |]
      ~faulty:[| false; false; false |]
  in
  let v = Sim.Checker.check ~inputs:[| 0; 1; 0 |] o in
  check_bool "agreement flagged" false v.Sim.Checker.agreement;
  check_bool "not ok" false (Sim.Checker.ok v)

let test_checker_strict_vs_lenient () =
  (* The disagreeing process is faulty: strict flags it, lenient does not. *)
  let o =
    outcome_with
      ~decisions:[| Some 0; Some 1; Some 0 |]
      ~faulty:[| false; true; false |]
  in
  let strict = Sim.Checker.check ~inputs:[| 0; 1; 0 |] o in
  check_bool "strict flags faulty decider" false strict.Sim.Checker.agreement;
  let lenient = Sim.Checker.check ~strict:false ~inputs:[| 0; 1; 0 |] o in
  check_bool "lenient ignores faulty decider" true lenient.Sim.Checker.agreement

let test_checker_validity_violation () =
  let o =
    outcome_with
      ~decisions:[| Some 0; Some 0 |]
      ~faulty:[| false; false |]
  in
  let v = Sim.Checker.check ~inputs:[| 1; 1 |] o in
  check_bool "validity flagged" false v.Sim.Checker.validity;
  (* Mixed inputs: any common decision is valid. *)
  let v' = Sim.Checker.check ~inputs:[| 0; 1 |] o in
  check_bool "mixed inputs ok" true v'.Sim.Checker.validity

let test_checker_termination_violation () =
  let o =
    outcome_with ~decisions:[| Some 1; None |] ~faulty:[| false; false |]
  in
  let v = Sim.Checker.check ~inputs:[| 1; 1 |] o in
  check_bool "termination flagged" false v.Sim.Checker.termination;
  (* If the undecided process is faulty, termination is satisfied. *)
  let o' = outcome_with ~decisions:[| Some 1; None |] ~faulty:[| false; true |] in
  let v' = Sim.Checker.check ~inputs:[| 1; 1 |] o' in
  check_bool "faulty excluded" true v'.Sim.Checker.termination

let test_checker_assert_ok () =
  let o = outcome_with ~decisions:[| Some 1; Some 1 |] ~faulty:[| false; false |] in
  Sim.Checker.assert_ok ~inputs:[| 1; 1 |] o;
  let bad = outcome_with ~decisions:[| Some 0; Some 0 |] ~faulty:[| false; false |] in
  check_bool "assert_ok raises" true
    (try
       Sim.Checker.assert_ok ~inputs:[| 1; 1 |] bad;
       false
     with Failure _ -> true)

(* --- Trace ------------------------------------------------------------------- *)

let test_trace_records () =
  let adversary =
    {
      Sim.Adversary.name = "kill1@1-partial";
      plan =
        (fun view _ ->
          if view.Sim.Adversary.round = 1 then
            [ Sim.Adversary.kill_after_send 1 ~recipients:[ 0 ] ]
          else []);
    }
  in
  let o =
    run_probe ~record_trace:true ~decide_at:2 ~inputs:[| 1; 1; 1 |] ~t:1
      adversary
  in
  match o.Sim.Engine.trace with
  | None -> Alcotest.fail "trace missing"
  | Some tr ->
      check_int "n" 3 (Sim.Trace.n tr);
      check_int "total kills" 1 (Sim.Trace.total_kills tr);
      let records = Sim.Trace.records tr in
      let r1 = List.hd records in
      check_int "round 1 actives" 3 r1.Sim.Trace.active_before;
      Alcotest.(check (list int)) "round 1 victims" [ 1 ]
        (Array.to_list r1.Sim.Trace.killed);
      check_int "partial send counted" 1 r1.Sim.Trace.partial_sends;
      (* 2 survivors get (self + other + partial-to-0): pid0 gets 0,1,2 = 3;
         pid2 gets 2,0 = 2... plus own always: total = 5. *)
      check_int "deliveries" 5 r1.Sim.Trace.messages_delivered;
      check_bool "render non-empty" true (String.length (Sim.Trace.render tr) > 0)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "sim.engine",
      [
        tc "null adversary full delivery" test_null_full_delivery;
        tc "own message always received" test_own_message_always_received;
        tc "partial send" test_partial_send;
        tc "dead stay dead" test_dead_stay_dead;
        tc "halted stop participating" test_halted_stop_sending_and_receiving;
        tc "max rounds cap" test_max_rounds_cap;
        tc "outcome fields" test_outcome_fields;
        tc "all dead is vacuous termination" test_all_dead_vacuous_termination;
      ] );
    ( "sim.adversary-validation",
      [
        tc "budget enforced" test_budget_enforced;
        tc "invalid kills rejected" test_invalid_victim;
      ] );
    ( "sim.protocol-discipline",
      [
        tc "decision change detected" test_decision_change_detected;
        tc "halt without decision detected" test_halt_without_decision_detected;
        tc "input validation" test_engine_input_validation;
      ] );
    ( "sim.snapshot",
      [
        tc "snapshot independent" test_snapshot_independent;
        tc "snapshot replays coins" test_snapshot_replays_same_coins;
        tc "reseed changes coins" test_reseed_changes_coins;
      ] );
    ( "sim.runner",
      [
        tc "reproducible" test_runner_reproducible;
        tc "counts" test_runner_counts;
        tc "input generators" test_input_generators;
      ] );
    ( "sim.checker",
      [
        tc "agreement violation" test_checker_agreement_violation;
        tc "strict vs lenient" test_checker_strict_vs_lenient;
        tc "validity violation" test_checker_validity_violation;
        tc "termination violation" test_checker_termination_violation;
        tc "assert_ok" test_checker_assert_ok;
      ] );
    ("sim.trace", [ tc "records" test_trace_records ]);
  ]

(* --- Trace CSV export --------------------------------------------------------- *)

let csv_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let test_to_csv () =
    let o =
      run_probe ~record_trace:true ~decide_at:2 ~inputs:[| 1; 0; 1 |] ~t:0
        Sim.Adversary.null
    in
    match o.Sim.Engine.trace with
    | None -> Alcotest.fail "trace missing"
    | Some tr ->
        let csv = Sim.Trace.to_csv tr in
        let lines = String.split_on_char '\n' csv in
        Alcotest.(check int) "header + one line per round"
          (Sim.Trace.length tr + 1) (List.length lines);
        Alcotest.(check string) "header"
          "round,active,kills,partial_sends,delivered,newly_decided,newly_halted,ones_pending"
          (List.hd lines);
        (* Round 1: 3 actives, 9 deliveries, no kills; no observer, so the
           ones_pending cell is empty. *)
        Alcotest.(check string) "round 1 row" "1,3,0,0,9,0,0,"
          (List.nth lines 1)
  in
  ("sim.trace-csv", [ tc "to_csv" test_to_csv ])

let suites = suites @ [ csv_suite ]

(* --- Parallel work pool -------------------------------------------------------- *)

let parallel_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let test_fold_sum_invariant () =
    (* The same fold over 0..99 for every (jobs, chunk_size) combination. *)
    let expected = 100 * 99 / 2 in
    List.iter
      (fun jobs ->
        List.iter
          (fun chunk_size ->
            let r =
              Sim.Parallel.fold_chunks ~jobs ~chunk_size ~n:100
                ~create:(fun () -> ref 0)
                ~work:(fun i acc -> acc := !acc + i)
                ~merge:(fun a b ->
                  a := !a + !b;
                  a)
                ()
            in
            check_int
              (Printf.sprintf "sum 0..99 (jobs=%d chunk=%d)" jobs chunk_size)
              expected !r)
          [ 1; 3; 8; 100 ])
      [ 1; 2; 4 ]
  in
  let test_fold_float_bit_identical () =
    (* Welford moments are a non-associative float fold; fixed chunk
       boundaries and in-order merging must make every worker count agree
       bit for bit, not just approximately. *)
    let run jobs =
      Sim.Parallel.fold_chunks ~jobs ~n:257 ~create:Stats.Welford.create
        ~work:(fun i w -> Stats.Welford.add w (sin (float_of_int i) *. 1e3))
        ~merge:Stats.Welford.merge ()
    in
    let base = run 1 in
    List.iter
      (fun jobs ->
        let w = run jobs in
        check_bool
          (Printf.sprintf "mean (jobs=%d)" jobs)
          true
          (Stats.Welford.mean base = Stats.Welford.mean w);
        check_bool
          (Printf.sprintf "variance (jobs=%d)" jobs)
          true
          (Stats.Welford.variance base = Stats.Welford.variance w))
      [ 2; 4 ]
  in
  let test_map () =
    let a = Sim.Parallel.map ~jobs:3 ~chunk_size:4 ~n:37 (fun i -> i * i) in
    check_int "length" 37 (Array.length a);
    Array.iteri (fun i v -> check_int (Printf.sprintf "slot %d" i) (i * i) v) a
  in
  let test_empty_and_invalid () =
    check_int "n = 0 yields the empty accumulator" 0
      !(Sim.Parallel.fold_chunks ~n:0
          ~create:(fun () -> ref 0)
          ~work:(fun _ _ -> Alcotest.fail "work called for n = 0")
          ~merge:(fun a _ -> a)
          ());
    check_int "map n = 0" 0 (Array.length (Sim.Parallel.map ~n:0 (fun i -> i)));
    check_bool "negative n rejected" true
      (try
         ignore (Sim.Parallel.map ~n:(-1) (fun i -> i));
         false
       with Invalid_argument _ -> true);
    check_bool "chunk_size 0 rejected" true
      (try
         ignore
           (Sim.Parallel.fold_chunks ~chunk_size:0 ~n:4
              ~create:(fun () -> ())
              ~work:(fun _ () -> ())
              ~merge:(fun () () -> ())
              ());
         false
       with Invalid_argument _ -> true)
  in
  let test_exception_propagates () =
    List.iter
      (fun jobs ->
        check_bool
          (Printf.sprintf "worker failure re-raised (jobs=%d)" jobs)
          true
          (try
             ignore
               (Sim.Parallel.fold_chunks ~jobs ~chunk_size:2 ~n:40
                  ~create:(fun () -> ())
                  ~work:(fun i () -> if i = 13 then failwith "boom")
                  ~merge:(fun () () -> ())
                  ());
             false
           with Failure m -> m = "boom"))
      [ 1; 4 ]
  in
  ( "sim.parallel",
    [
      tc "fold invariant under jobs and chunk size" test_fold_sum_invariant;
      tc "float folds bit-identical across jobs" test_fold_float_bit_identical;
      tc "map" test_map;
      tc "empty and invalid arguments" test_empty_and_invalid;
      tc "worker exception propagates" test_exception_propagates;
    ] )

(* --- Parallel / sequential runner equivalence ----------------------------------- *)

let summaries_identical name (a : Sim.Runner.summary) (b : Sim.Runner.summary) =
  let float_eq tag get =
    check_bool (name ^ ": " ^ tag) true
      (let x = get a and y = get b in
       x = y || (Float.is_nan x && Float.is_nan y))
  in
  check_int (name ^ ": trials") a.Sim.Runner.trials b.Sim.Runner.trials;
  float_eq "mean rounds" (fun s -> Stats.Welford.mean s.Sim.Runner.rounds);
  float_eq "rounds variance" (fun s ->
      Stats.Welford.variance s.Sim.Runner.rounds);
  float_eq "mean kills" (fun s -> Stats.Welford.mean s.Sim.Runner.kills);
  Alcotest.(check (list (pair int int)))
    (name ^ ": histogram bins")
    (Stats.Histogram.bins a.Sim.Runner.rounds_hist)
    (Stats.Histogram.bins b.Sim.Runner.rounds_hist);
  check_int (name ^ ": decided zero") a.Sim.Runner.decided_zero
    b.Sim.Runner.decided_zero;
  check_int (name ^ ": decided one") a.Sim.Runner.decided_one
    b.Sim.Runner.decided_one;
  check_int (name ^ ": non-terminating") a.Sim.Runner.non_terminating
    b.Sim.Runner.non_terminating;
  Alcotest.(check (list string))
    (name ^ ": safety errors")
    a.Sim.Runner.safety_errors b.Sim.Runner.safety_errors

let runner_parallel_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let grid_case ~label ~n ~t ~trials ~seeds make_adversary () =
    List.iter
      (fun seed ->
        let run jobs =
          Sim.Runner.run_trials ~max_rounds:2000 ~jobs ~trials ~seed
            ~gen_inputs:(Sim.Runner.input_gen_random ~n)
            ~t (Core.Synran.protocol n) make_adversary
        in
        let base = run 1 in
        List.iter
          (fun jobs ->
            summaries_identical
              (Printf.sprintf "%s n=%d t=%d seed=%d jobs=%d" label n t seed
                 jobs)
              base (run jobs))
          [ 2; 4 ])
      seeds
  in
  ( "sim.runner-parallel",
    [
      tc "null adversary grid"
        (grid_case ~label:"null" ~n:16 ~t:0 ~trials:24 ~seeds:[ 1; 2 ]
           (fun () -> Sim.Adversary.null));
      tc "random-crash grid"
        (grid_case ~label:"crash" ~n:16 ~t:8 ~trials:20 ~seeds:[ 3; 9 ]
           (fun () -> Baselines.Adversaries.random_crash ~p:0.1));
      tc "stateful band-control grid"
        (grid_case ~label:"band" ~n:24 ~t:23 ~trials:10 ~seeds:[ 5 ] (fun () ->
             Core.Lb_adversary.band_control ~rules:Core.Onesided.paper
               ~bit_of_msg:Core.Synran.bit_of_msg ()));
    ] )

(* --- Safety-error ordering across a multi-error trial --------------------------- *)

(* Every process decides (own pid mod 2) under unanimous-1 inputs, producing
   two agreement violations and two validity violations in one trial. The
   runner must report them per trial in Checker order (agreement before
   validity, ascending pid) — the old accumulator reversed them. *)
type disagree_state = { dpid : int; ddecided : bool; dhalted : bool }

let disagree_protocol =
  {
    Sim.Protocol.name = "disagree";
    init =
      (fun ~n:_ ~pid ~input:_ ->
        { dpid = pid; ddecided = false; dhalted = false });
    phase_a = (fun s _rng -> (s, 0));
    decision = (fun s -> if s.ddecided then Some (s.dpid land 1) else None);
    halted = (fun s -> s.dhalted);
    aggregate =
      unit_aggregate (fun s ~round:_ ->
          if s.ddecided then { s with dhalted = true }
          else { s with ddecided = true });
    bitops = None;
  }

let error_order_suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let expected_errors trials =
    List.concat_map
      (fun trial ->
        List.map
          (Printf.sprintf "trial %d: %s" trial)
          [
            "agreement: process 0 decided 0 but process 1 decided 1";
            "agreement: process 0 decided 0 but process 3 decided 1";
            "validity: unanimous input 1 but process 0 decided 0";
            "validity: unanimous input 1 but process 2 decided 0";
          ])
      (List.init trials (fun i -> i + 1))
  in
  let test_checker_order_within_trial jobs () =
    (* 10 trials spans two chunks, so this also pins the cross-chunk
       concatenation order. *)
    let trials = 10 in
    let s =
      Sim.Runner.run_trials ~jobs ~trials ~seed:4
        ~gen_inputs:(Sim.Runner.input_gen_const ~n:4 1)
        ~t:0 disagree_protocol
        (fun () -> Sim.Adversary.null)
    in
    Alcotest.(check (list string))
      "per-trial errors in Checker order" (expected_errors trials)
      s.Sim.Runner.safety_errors
  in
  ( "sim.runner-error-order",
    [
      tc "multi-error trial, jobs=1" (test_checker_order_within_trial 1);
      tc "multi-error trial, jobs=2" (test_checker_order_within_trial 2);
    ] )

let suites =
  suites @ [ parallel_suite; runner_parallel_suite; error_order_suite ]
