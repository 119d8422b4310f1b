(* Unit tests for the asynchronous substrate: engine semantics (delivery,
   crashes, decision discipline), Ben-Or's protocol, and the splitter
   scheduler. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A trivial protocol: decide your input as soon as you hear from anyone
   (including yourself); send one hello to everyone at start. *)
type echo_state = { input : int; heard : int; decided : bool }

let echo =
  {
    Async.Protocol.name = "echo";
    init =
      (fun ~n ~pid:_ ~input ->
        ({ input; heard = 0; decided = false }, Async.Protocol.broadcast ~n ()));
    on_message =
      (fun s ~sender:_ () _rng ->
        ({ s with heard = s.heard + 1; decided = true }, []));
    decision = (fun s -> if s.decided then Some s.input else None);
    coin_flips = (fun _ -> 0);
  }

let run_echo ?max_steps scheduler ~inputs ~t ~seed =
  Async.Engine.run ?max_steps echo scheduler ~inputs ~t
    ~rng:(Prng.Rng.create seed)

(* --- Engine ------------------------------------------------------------- *)

let test_echo_terminates () =
  let o = run_echo Async.Scheduler.fair ~inputs:[| 0; 1; 1 |] ~t:0 ~seed:1 in
  check_bool "all decided" true o.Async.Engine.all_decided;
  check_int "nine sends" 9 o.Async.Engine.sends;
  Alcotest.(check (option int)) "p0 decides its input" (Some 0)
    o.Async.Engine.decisions.(0)

let test_fifo_deterministic () =
  let a = run_echo Async.Scheduler.fifo ~inputs:[| 1; 0 |] ~t:0 ~seed:2 in
  let b = run_echo Async.Scheduler.fifo ~inputs:[| 1; 0 |] ~t:0 ~seed:99 in
  (* FIFO ignores randomness entirely: identical step counts. *)
  check_int "same steps" a.Async.Engine.steps b.Async.Engine.steps

let test_crash_drops_messages () =
  (* A scheduler that crashes process 0 first, then delivers fairly:
     p0's hellos evaporate, and p0 never decides. *)
  let crash0 =
    {
      Async.Scheduler.name = "crash0";
      pick =
        (fun view rng ->
          if not (view.Async.Scheduler.crashed 0) then Async.Scheduler.Crash 0
          else
            let k = Prng.Rng.int rng view.Async.Scheduler.pending_count in
            Async.Scheduler.Deliver
              (view.Async.Scheduler.nth_pending k).Async.Scheduler.id);
    }
  in
  let o = run_echo crash0 ~inputs:[| 1; 0; 0 |] ~t:1 ~seed:3 in
  check_bool "p0 crashed" true o.Async.Engine.crashed.(0);
  Alcotest.(check (option int)) "p0 undecided" None o.Async.Engine.decisions.(0);
  (* Survivors decided from each other's hellos. *)
  check_bool "all live decided" true o.Async.Engine.all_decided;
  (* p0's 3 hellos evaporated; messages TO p0 from others too. *)
  check_bool "fewer deliveries than sends" true
    (o.Async.Engine.deliveries < o.Async.Engine.sends)

let test_crash_budget_enforced () =
  let crasher =
    {
      Async.Scheduler.name = "over-crasher";
      pick = (fun view _ ->
        let live = ref 0 in
        while view.Async.Scheduler.crashed !live do incr live done;
        Async.Scheduler.Crash !live);
    }
  in
  check_bool "budget enforced" true
    (try
       ignore (run_echo crasher ~inputs:[| 1; 0; 0 |] ~t:1 ~seed:4);
       false
     with Async.Engine.Invalid_action _ -> true)

let test_budget_below_n () =
  (* The paper's t < n: a budget of n could crash everyone, after which
     "every live process decided" would hold vacuously. *)
  Alcotest.check_raises "t = n rejected"
    (Invalid_argument "Async.Engine.run: needs 0 <= t < n") (fun () ->
      ignore (run_echo Async.Scheduler.fair ~inputs:[| 1; 0; 0 |] ~t:3 ~seed:4));
  let o = run_echo Async.Scheduler.fair ~inputs:[| 1; 0; 0 |] ~t:2 ~seed:4 in
  check_bool "t = n - 1 runs" true o.Async.Engine.all_decided

let test_step_cap () =
  (* A ping-pong protocol that never decides. *)
  let ping_pong =
    {
      Async.Protocol.name = "ping-pong";
      init = (fun ~n ~pid:_ ~input:_ -> ((), Async.Protocol.broadcast ~n ()));
      on_message =
        (fun () ~sender () _ -> ((), [ { Async.Protocol.dst = sender; payload = () } ]));
      decision = (fun () -> None);
      coin_flips = (fun () -> 0);
    }
  in
  let o =
    Async.Engine.run ~max_steps:500 ping_pong Async.Scheduler.fair
      ~inputs:[| 0; 1 |] ~t:0 ~rng:(Prng.Rng.create 5)
  in
  check_bool "hits the cap" true (o.Async.Engine.steps = 500);
  check_bool "not all decided" false o.Async.Engine.all_decided

let test_decision_discipline () =
  (* Process 0 flips its decision on every delivery; process 1 never
     decides, so the engine cannot stop early and must catch the flip. *)
  let flip_flopper =
    {
      Async.Protocol.name = "flip-flop";
      init = (fun ~n ~pid ~input:_ -> ((pid, 0), Async.Protocol.broadcast ~n ()));
      on_message = (fun (pid, k) ~sender:_ () _ -> ((pid, k + 1), []));
      decision =
        (fun (pid, k) -> if pid = 0 && k >= 1 then Some (k mod 2) else None);
      coin_flips = (fun _ -> 0);
    }
  in
  check_bool "changed decision detected" true
    (try
       ignore
         (Async.Engine.run flip_flopper Async.Scheduler.fifo ~inputs:[| 0; 1 |]
            ~t:0 ~rng:(Prng.Rng.create 6));
       false
     with Async.Engine.Decision_changed _ -> true)

let test_touched_logarithmic () =
  (* The pending store's work per step under fair Ben-Or stays within
     c * log2(max in flight) while the population (and with it P) grows. *)
  List.iter
    (fun n ->
      let t = (n - 1) / 2 in
      let max_p = ref 0 in
      let fair =
        {
          Async.Scheduler.fair with
          pick =
            (fun view rng ->
              max_p := Int.max !max_p view.Async.Scheduler.pending_count;
              Async.Scheduler.fair.Async.Scheduler.pick view rng);
        }
      in
      let o =
        Async.Engine.run (Async.Benor.protocol ~t) fair
          ~inputs:(Prng.Sample.random_bits (Prng.Rng.create n) n)
          ~t ~rng:(Prng.Rng.create (100 + n))
      in
      let per_step =
        float_of_int o.Async.Engine.pending_touched
        /. float_of_int o.Async.Engine.steps
      in
      let bound = 6.0 *. Float.log2 (float_of_int !max_p) in
      check_bool
        (Printf.sprintf "n=%d: %.1f touched/step <= %.1f (max P %d)" n
           per_step bound !max_p)
        true (per_step <= bound))
    [ 6; 8; 10; 12; 14; 16 ]

(* --- Ben-Or ----------------------------------------------------------------- *)

let benor_summary ?(max_steps = 300_000) ~n ~t ~trials ~seed scheduler =
  Async.Engine.run_trials ~max_steps ~phase_of:Async.Benor.phase ~trials ~seed
    ~gen_inputs:(fun rng -> Prng.Sample.random_bits rng n)
    ~t (Async.Benor.protocol ~t) scheduler

let test_benor_validity_unanimous () =
  List.iter
    (fun v ->
      let o =
        Async.Engine.run ~phase_of:Async.Benor.phase (Async.Benor.protocol ~t:1)
          Async.Scheduler.fair ~inputs:(Array.make 5 v) ~t:0
          ~rng:(Prng.Rng.create 7)
      in
      check_bool "decided" true o.Async.Engine.all_decided;
      Array.iter
        (fun d -> Alcotest.(check (option int)) "unanimous value" (Some v) d)
        o.Async.Engine.decisions;
      (* Unanimous inputs decide in the first phase, no coins needed. *)
      check_int "no flips" 0 o.Async.Engine.coin_flips)
    [ 0; 1 ]

let test_benor_safe_under_fair () =
  let s = benor_summary ~n:7 ~t:3 ~trials:40 ~seed:8 Async.Scheduler.fair in
  check_int "no disagreement" 0 s.Async.Engine.disagreements;
  check_int "no validity errors" 0 s.Async.Engine.validity_errors;
  check_int "all terminate" 0 s.Async.Engine.non_terminating

let test_benor_safe_under_crashes () =
  let s =
    benor_summary ~n:9 ~t:4 ~trials:40 ~seed:9
      (Async.Scheduler.random_crash ~p:0.02)
  in
  check_int "no disagreement" 0 s.Async.Engine.disagreements;
  check_int "all terminate" 0 s.Async.Engine.non_terminating

let test_benor_safe_under_splitter () =
  let s =
    benor_summary ~n:6 ~t:2 ~trials:8 ~seed:10 (Async.Benor.splitter ())
  in
  check_int "no disagreement" 0 s.Async.Engine.disagreements;
  check_int "all terminate" 0 s.Async.Engine.non_terminating

let test_benor_resilience_validation () =
  check_bool "t >= n/2 rejected" true
    (try
       ignore
         (Async.Engine.run (Async.Benor.protocol ~t:2) Async.Scheduler.fair
            ~inputs:[| 0; 1; 0; 1 |] ~t:0 ~rng:(Prng.Rng.create 11));
       false
     with Invalid_argument _ -> true)

let test_splitter_exponential_slowdown () =
  let fair = benor_summary ~n:6 ~t:2 ~trials:10 ~seed:12 Async.Scheduler.fair in
  let split =
    benor_summary ~n:6 ~t:2 ~trials:10 ~seed:12 (Async.Benor.splitter ())
  in
  let fp = Stats.Welford.mean fair.Async.Engine.phases in
  let sp = Stats.Welford.mean split.Async.Engine.phases in
  check_bool
    (Printf.sprintf "splitter %.1f >> fair %.1f phases" sp fp)
    true
    (sp > 3.0 *. fp)

let test_splitter_flip_count_grows () =
  (* The Aspnes measure: total coin flips explode with the population under
     the adversarial scheduler. *)
  let flips n =
    let s =
      benor_summary ~n ~t:((n - 1) / 2) ~trials:6 ~seed:13
        (Async.Benor.splitter ())
    in
    Stats.Welford.mean s.Async.Engine.flips
  in
  check_bool "flips grow superlinearly" true (flips 8 > 4.0 *. flips 4)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "async.engine",
      [
        tc "echo terminates" test_echo_terminates;
        tc "fifo deterministic" test_fifo_deterministic;
        tc "crash drops messages" test_crash_drops_messages;
        tc "crash budget enforced" test_crash_budget_enforced;
        tc "budget below n" test_budget_below_n;
        tc "pending work is logarithmic" test_touched_logarithmic;
        tc "step cap" test_step_cap;
        tc "decision discipline" test_decision_discipline;
      ] );
    ( "async.benor",
      [
        tc "validity on unanimous inputs" test_benor_validity_unanimous;
        tc "safe under fair scheduling" test_benor_safe_under_fair;
        tc "safe under crashes" test_benor_safe_under_crashes;
        tc "safe under the splitter" test_benor_safe_under_splitter;
        tc "resilience validation" test_benor_resilience_validation;
        tc "splitter slows exponentially" test_splitter_exponential_slowdown;
        tc "flip count grows" test_splitter_flip_count_grows;
      ] );
  ]
