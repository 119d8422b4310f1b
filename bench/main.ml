(* Benchmark harness.

   Part 1 — experiment regeneration: prints the table for every reproduced
   paper claim (E1-E12, see EXPERIMENTS.md). Pass "full" for the full
   trial counts used in EXPERIMENTS.md; the default "quick" profile keeps
   the whole run under a minute. "--jobs N" sets the worker-domain count
   for the trial loops; every table is bit-identical for every N. The run
   is supervised: "--deadline-s S" arms a per-experiment watchdog,
   "--resume" consumes chunk checkpoints left by an interrupted run, a
   per-experiment failure/timeout record lands in
   results/run_manifest.json, and the exit code is non-zero iff any
   experiment failed.

   Part 2 — parallel throughput: times one run_trials workload at jobs = 1
   and jobs = max, checks the summaries match, and writes trials/sec to
   results/bench_parallel.json (the multi-domain leg is skipped on a
   single-core machine, where it could only measure domain overhead).

   Part 2b — delivery hot path ("--hotpath-only" runs just this): ns/round
   of Engine.step for SynRan at n in {64, 256, 1024, 4096}, the engine's
   shared-fold delivery vs Sim_reference's materialized exchange, written
   to results/bench_hotpath.json.

   Part 2c — bit-packed kernel ("--bitkernel-only" runs just this):
   ns/round of Sim.Bitkernel vs the concrete aggregate fast path for
   SynRan and FloodSet, gated at 5x at n = 4096, plus a lockstep
   run_batch identity check, written to results/bench_bitkernel.json.

   Part 3 — bechamel microbenchmarks: one Test.make per experiment table
   (timing its regeneration at the quick profile) plus the simulator's hot
   paths, reported as ns/run with the OLS r^2. *)

open Bechamel
open Toolkit

let seed = 42

(* ------------------------------------------------------------------ *)
(* Part 1: experiment tables                                           *)
(* ------------------------------------------------------------------ *)

let print_tables ~jobs ~resume ~deadline_s ?metrics_out ?events_out profile =
  let label =
    match profile with Core.Experiments.Quick -> "quick" | Core.Experiments.Full -> "full"
  in
  Printf.printf
    "Reproduction tables (profile: %s, seed: %d) -- paper claims E1..E12\n\n"
    label seed;
  (* Supervised regeneration: each experiment gets its own watchdog and
     failure record, so a crash or timeout in E9 never loses E1-E8. *)
  let ctx =
    Core.Supervise.create ?deadline_s ~checkpoints:"results/checkpoints"
      ~resume ()
  in
  let results =
    List.map
      (fun id ->
        let f = Option.get (Core.Experiments.by_id id) in
        let r =
          Core.Supervise.run_experiment ctx ~id (fun () ->
              f ~jobs ~sup:ctx profile ~seed)
        in
        (match r.Core.Supervise.table with
        | Some tbl -> print_endline (Stats.Table.render tbl)
        | None -> ());
        (match r.Core.Supervise.status with
        | Core.Supervise.Completed -> ()
        | _ -> print_endline ("*** " ^ Core.Supervise.status_line r ^ " ***"));
        print_newline ();
        r)
      Core.Experiments.ids
  in
  let profile_label = label in
  Core.Supervise.write_manifest ~path:"results/run_manifest.json"
    ~profile:profile_label ~seed ~jobs ~resume ~deadline_s results;
  Option.iter
    (fun path ->
      Obs.Export.write_metrics ~path (Core.Supervise.merged_metrics results))
    metrics_out;
  Option.iter
    (fun path -> Obs.Export.write_events ~path (Core.Supervise.events ctx))
    events_out;
  if Core.Supervise.any_failed results then begin
    prerr_endline
      "one or more experiments failed or timed out; see \
       results/run_manifest.json";
    Stdlib.exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 1b: per-experiment attribution ("--attribute")                 *)
(* ------------------------------------------------------------------ *)

(* Where does a pipeline run spend its time and allocation? One quick
   regeneration per experiment under an [Obs.Clock] span — the quarantined
   diagnostic clock, so the numbers feed only this table, never an
   experiment result. Allocation is the calling domain's [Gc] delta. *)
let attribute_bench ~jobs profile =
  let rows =
    List.map
      (fun id ->
        let f = Option.get (Core.Experiments.by_id id) in
        let span = Obs.Clock.start id in
        ignore (f ~jobs profile ~seed);
        (id, Obs.Clock.elapsed_s span, Obs.Clock.allocated_mb span))
      Core.Experiments.ids
  in
  let total_s = List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 rows in
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "Per-experiment attribution (diagnostic clock, %s profile, \
            jobs=%d)"
           (match profile with
           | Core.Experiments.Quick -> "quick"
           | Core.Experiments.Full -> "full")
           jobs)
      ~columns:[ "experiment"; "seconds"; "alloc MB"; "time share %" ]
  in
  List.iter
    (fun (id, s, mb) ->
      Stats.Table.add_row table
        [
          Stats.Table.Str id;
          Stats.Table.Float s;
          Stats.Table.Float mb;
          Stats.Table.Float
            (if total_s > 0.0 then 100.0 *. s /. total_s else 0.0);
        ])
    rows;
  print_endline (Stats.Table.render table)

(* ------------------------------------------------------------------ *)
(* Part 2: parallel throughput                                         *)
(* ------------------------------------------------------------------ *)

let ensure_results_dir () =
  if not (Sys.file_exists "results") then Sys.mkdir "results" 0o755

let parallel_bench () =
  let n = 96 and trials = 200 in
  let protocol = Core.Synran.protocol n in
  let run jobs =
    let start =
      (Unix.gettimeofday
      [@detlint.allow
        "R2: wall-clock here is the measurement itself (trials/sec of the \
         parallel runner); it feeds only the throughput report, never an \
         experiment table"]) ()
    in
    let s =
      Sim.Runner.run_trials ~max_rounds:2000 ~jobs ~trials ~seed
        ~gen_inputs:(Sim.Runner.input_gen_random ~n)
        ~t:(n - 1) protocol
        (fun () ->
          Core.Lb_adversary.band_control ~rules:Core.Onesided.paper
            ~bit_of_msg:Core.Synran.bit_of_msg ())
    in
    let dt =
      (Unix.gettimeofday
      [@detlint.allow
        "R2: wall-clock here is the measurement itself (trials/sec of the \
         parallel runner); it feeds only the throughput report, never an \
         experiment table"]) ()
      -. start
    in
    (s, dt)
  in
  let cores = Sim.Parallel.default_jobs () in
  let s1, dt1 = run 1 in
  let tps dt = float_of_int trials /. dt in
  ensure_results_dir ();
  let oc = open_out "results/bench_parallel.json" in
  if cores <= 1 then begin
    (* One core: a multi-domain leg only measures domain overhead (the
       jobs=2 run used to clock 0.45x of jobs=1 here), so skip it. *)
    Printf.fprintf oc
      "{\n\
      \  \"workload\": \"synran n=%d t=%d vs band-control, %d trials, seed \
       %d\",\n\
      \  \"cores\": %d,\n\
      \  \"runs\": [\n\
      \    { \"jobs\": 1, \"seconds\": %.3f, \"trials_per_sec\": %.2f }\n\
      \  ],\n\
      \  \"multi_domain_leg\": \"skipped: 1 core\"\n\
       }\n"
      n (n - 1) trials seed cores dt1 (tps dt1);
    Printf.printf
      "parallel throughput: %.1f trials/sec at jobs=1; multi-domain leg \
       skipped (1 core) -> results/bench_parallel.json\n\n"
      (tps dt1)
  end
  else begin
    let jobs_max = cores in
    let sm, dtm = run jobs_max in
    let identical =
      Sim.Runner.mean_rounds s1 = Sim.Runner.mean_rounds sm
      && Stats.Histogram.bins s1.Sim.Runner.rounds_hist
         = Stats.Histogram.bins sm.Sim.Runner.rounds_hist
    in
    if not identical then
      prerr_endline "WARNING: parallel summary differs from sequential run";
    Printf.fprintf oc
      "{\n\
      \  \"workload\": \"synran n=%d t=%d vs band-control, %d trials, seed \
       %d\",\n\
      \  \"cores\": %d,\n\
      \  \"runs\": [\n\
      \    { \"jobs\": 1, \"seconds\": %.3f, \"trials_per_sec\": %.2f },\n\
      \    { \"jobs\": %d, \"seconds\": %.3f, \"trials_per_sec\": %.2f }\n\
      \  ],\n\
      \  \"speedup\": %.2f,\n\
      \  \"summaries_identical\": %b\n\
       }\n"
      n (n - 1) trials seed cores dt1 (tps dt1) jobs_max dtm (tps dtm)
      (dt1 /. dtm) identical;
    Printf.printf
      "parallel throughput: %.1f trials/sec at jobs=1, %.1f at jobs=%d \
       (speedup %.2fx, summaries %s) -> results/bench_parallel.json\n\n"
      (tps dt1) (tps dtm) jobs_max (dt1 /. dtm)
      (if identical then "identical" else "DIFFER")
  end;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Part 2b: delivery hot path (engine vs materialized reference)      *)
(* ------------------------------------------------------------------ *)

(* ns/round for SynRan under the null adversary, fast ([Engine.step]'s
   shared fold) vs legacy ([Sim_reference]'s materialized per-receiver
   arrays), so regressions can be diffed. Honest rounds are O(n) on the
   fast path and O(n^2) on the reference, hence the per-size repeat
   counts. *)
let hotpath_bench () =
  let now () =
    (Unix.gettimeofday
    [@detlint.allow
      "R2: wall-clock here is the measurement itself (ns/round of the \
       delivery hot path); it feeds only results/bench_hotpath.json, never \
       an experiment table"]) ()
  in
  (* Every timed trial i uses inputs/rng derived purely from (seed, i), so
     the fast and legacy legs replay the same trials and their round
     counts must match exactly. Stability measures: trial 0 runs untimed
     as a warmup (first-touch page faults and code warmup used to land in
     the first timed trial), and each leg keeps adding trials until at
     least [min_rounds] rounds are in the denominator — the n >= 1024 rows
     used to average over 7 rounds total, noisy enough to swing the
     reported speedup between runs. Both legs execute identical trials, so
     the adaptive trial count agrees across legs by construction. *)
  let min_rounds = 24 in
  let measure run n reps =
    let trial i =
      let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + i)) n in
      (run ~inputs ~rng:(Prng.Rng.create (100 + i))).Sim.Engine.rounds_executed
    in
    ignore (trial 0 : int);
    let rounds = ref 0 and trials = ref 0 in
    let t0 = now () in
    while !trials < reps || !rounds < min_rounds do
      incr trials;
      rounds := !rounds + trial !trials
    done;
    (now () -. t0, !rounds, !trials)
  in
  let sizes = [ (64, 120); (256, 40); (1024, 8); (4096, 2) ] in
  let rows =
    List.map
      (fun (n, reps) ->
        let p = Core.Synran.protocol n in
        let fast_dt, fast_rounds, fast_trials =
          measure (Sim.Engine.run p Sim.Adversary.null ~t:0) n reps
        in
        let legacy_dt, legacy_rounds, legacy_trials =
          measure (Sim_reference.run p Sim.Adversary.null ~t:0) n reps
        in
        if fast_rounds <> legacy_rounds || fast_trials <> legacy_trials then
          failwith
            (Printf.sprintf
               "hotpath: fast/legacy round counts differ at n=%d (%d vs %d)"
               n fast_rounds legacy_rounds);
        let ns dt rounds = dt /. float_of_int rounds *. 1e9 in
        let fast_ns = ns fast_dt fast_rounds in
        let legacy_ns = ns legacy_dt legacy_rounds in
        Printf.printf
          "hotpath n=%4d: %10.0f ns/round fast, %12.0f ns/round legacy \
           (%5.1fx, %d rounds/trial)\n"
          n fast_ns legacy_ns (legacy_ns /. fast_ns)
          (fast_rounds / fast_trials);
        Printf.sprintf
          "    { \"n\": %d, \"trials\": %d, \"rounds_total\": %d,\n\
          \      \"fast\": { \"ns_per_round\": %.0f, \"trials_per_sec\": \
           %.2f },\n\
          \      \"legacy\": { \"ns_per_round\": %.0f, \"trials_per_sec\": \
           %.2f },\n\
          \      \"speedup\": %.2f }"
          n fast_trials fast_rounds fast_ns
          (float_of_int fast_trials /. fast_dt)
          legacy_ns
          (float_of_int legacy_trials /. legacy_dt)
          (legacy_ns /. fast_ns))
      sizes
  in
  ensure_results_dir ();
  let oc = open_out "results/bench_hotpath.json" in
  Printf.fprintf oc
    "{\n\
    \  \"workload\": \"synran vs null adversary, random-bit inputs, seed \
     %d; ns/round of Engine.step (fast) vs Sim_reference's materialized \
     exchange (legacy)\",\n\
    \  \"rows\": [\n%s\n\
    \  ]\n\
     }\n"
    seed
    (String.concat ",\n" rows);
  close_out oc;
  print_endline "-> results/bench_hotpath.json";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2c: bit-packed kernel ("--bitkernel-only")                     *)
(* ------------------------------------------------------------------ *)

(* ns/round of the bit-packed [Sim.Bitkernel] engine vs the concrete
   engine's aggregate fast path, for SynRan and FloodSet under the null
   adversary (every round batches at word granularity). Each trial's
   setup (input generation, the O(n) per-process RNG split, outcome
   assembly) runs outside the timer — at n = 4096 it costs milliseconds
   and would otherwise swamp the round loop being measured. Same
   stability measures as the hotpath bench: a warmup trial and a
   rounds_total floor. The two legs replay identical trials, so their
   round counts must agree exactly; the FloodSet n = 4096 row must clear
   the 5x floor the kernel is sized for. SynRan's rows ship ungated:
   its phase A draws two values from every process's private stream
   every round (the full-information adversary must see every coin), and
   stream-faithfulness makes that O(n) RNG cost irreducible in both
   legs, bounding the ratio — the FloodSet rows are the ones that
   isolate the kernel's delivery + transition speedup. Finishes with one
   lockstep [run_batch] sweep checked byte-identical against running the
   same trials sequentially. *)
let bitkernel_bench () =
  let now () =
    (Unix.gettimeofday
    [@detlint.allow
      "R2: wall-clock here is the measurement itself (ns/round of the \
       bit-packed kernel); it feeds only results/bench_bitkernel.json, \
       never an experiment table"]) ()
  in
  let min_rounds = 24 in
  (* [trial i] runs trial i, returning (seconds-in-round-loop, rounds,
     packed, scalar). *)
  let measure trial reps =
    ignore (trial 0 : float * int * int * int);
    let dt = ref 0.0 in
    let rounds = ref 0 and packed = ref 0 and scalar = ref 0 in
    let trials = ref 0 in
    while !trials < reps || !rounds < min_rounds do
      incr trials;
      let d, r, p, s = trial !trials in
      dt := !dt +. d;
      rounds := !rounds + r;
      packed := !packed + p;
      scalar := !scalar + s
    done;
    (!dt, !rounds, !packed, !scalar, !trials)
  in
  let inputs_for n i = Prng.Sample.random_bits (Prng.Rng.create (seed + i)) n in
  let scalar_trial protocol n ~max_rounds i =
    let e =
      Sim.Engine.start protocol ~inputs:(inputs_for n i) ~t:0
        ~rng:(Prng.Rng.create (100 + i))
    in
    let t0 = now () in
    Sim.Engine.run_until e Sim.Adversary.null ~max_rounds;
    let dt = now () -. t0 in
    (dt, (Sim.Engine.outcome e).Sim.Engine.rounds_executed, 0, 0)
  in
  let bit_trial protocol n ~max_rounds i =
    let e =
      Sim.Bitkernel.start protocol ~inputs:(inputs_for n i) ~t:0
        ~rng:(Prng.Rng.create (100 + i))
    in
    let t0 = now () in
    Sim.Bitkernel.run_until e Sim.Adversary.null ~max_rounds;
    let dt = now () -. t0 in
    ( dt,
      (Sim.Bitkernel.outcome e).Sim.Engine.rounds_executed,
      Sim.Bitkernel.packed_rounds e,
      Sim.Bitkernel.scalar_rounds e )
  in
  let required_speedup = 5.0 in
  let row proto_label protocol ~n ~reps ~max_rounds ~gated =
    let bit_dt, bit_rounds, bit_packed, bit_scalar, bit_trials =
      measure (bit_trial protocol n ~max_rounds) reps
    in
    let sc_dt, sc_rounds, _, _, sc_trials =
      measure (scalar_trial protocol n ~max_rounds) reps
    in
    if bit_rounds <> sc_rounds || bit_trials <> sc_trials then
      failwith
        (Printf.sprintf
           "bitkernel: round counts diverge for %s at n=%d (%d vs %d)"
           proto_label n bit_rounds sc_rounds);
    let ns dt rounds = dt /. float_of_int rounds *. 1e9 in
    let bit_ns = ns bit_dt bit_rounds in
    let sc_ns = ns sc_dt sc_rounds in
    let speedup = sc_ns /. bit_ns in
    Printf.printf
      "bitkernel %-8s n=%5d: %8.0f ns/round packed, %9.0f ns/round \
       scalar (%5.1fx, %d/%d rounds packed)\n"
      proto_label n bit_ns sc_ns speedup bit_packed
      (bit_packed + bit_scalar);
    if gated && speedup < required_speedup then
      failwith
        (Printf.sprintf
           "bitkernel: %s at n=%d below the %.0fx floor (measured %.1fx)"
           proto_label n required_speedup speedup);
    Printf.sprintf
      "    { \"protocol\": \"%s\", \"n\": %d, \"trials\": %d, \
       \"rounds_total\": %d, \"packed_rounds\": %d, \"scalar_rounds\": %d,\n\
      \      \"bitkernel\": { \"ns_per_round\": %.0f },\n\
      \      \"scalar\": { \"ns_per_round\": %.0f },\n\
      \      \"speedup\": %.2f, \"gated\": %b }"
      proto_label n bit_trials bit_rounds bit_packed bit_scalar bit_ns sc_ns
      speedup gated
  in
  let rows =
    List.map
      (fun (n, reps) ->
        row "floodset"
          (Baselines.Floodset.protocol ~rounds:17 ())
          ~n ~reps ~max_rounds:20 ~gated:(n = 4096))
      [ (4096, 2); (16384, 1) ]
    @ List.map
        (fun (n, reps) ->
          row "synran" (Core.Synran.protocol n) ~n ~reps ~max_rounds:400
            ~gated:false)
        [ (1024, 4); (4096, 2); (16384, 1) ]
  in
  (* Lockstep batch: the same trials, advanced one round per sweep across
     the batch, must be byte-identical to running them one at a time. *)
  let batch_row =
    let n = 4096 and b = 8 and max_rounds = 400 in
    let protocol = Core.Synran.protocol n in
    let rng_of i = Prng.Rng.create (100 + i) in
    let t0 = now () in
    let batched =
      Sim.Bitkernel.run_batch ~max_rounds protocol
        ~adversary_of:(fun _ -> Sim.Adversary.null)
        ~inputs_of:(inputs_for n) ~rng_of ~t:0 ~trials:b
    in
    let dt = now () -. t0 in
    let sequential =
      Array.init b (fun i ->
          Sim.Bitkernel.run ~max_rounds protocol Sim.Adversary.null
            ~inputs:(inputs_for n i) ~t:0 ~rng:(rng_of i))
    in
    let identical = batched = sequential in
    if not identical then
      failwith "bitkernel: lockstep batch diverges from sequential runs";
    Printf.printf
      "bitkernel batch n=%d x %d trials: lockstep identical to sequential \
       in %.2f s\n"
      n b dt;
    Printf.sprintf
      "  \"batch_lockstep_n%d\": { \"n\": %d, \"trials\": %d, \"seconds\": \
       %.2f, \"outcomes_identical\": %b }"
      n n b dt identical
  in
  ensure_results_dir ();
  let oc = open_out "results/bench_bitkernel.json" in
  Printf.fprintf oc
    "{\n\
    \  \"workload\": \"synran + floodset vs null adversary, random-bit \
     inputs, seed %d; ns/round of the bit-packed Sim.Bitkernel engine vs \
     the concrete engine's aggregate fast path (round loop only; trial \
     setup excluded), plus one lockstep run_batch sweep. SynRan rows are \
     ungated: its two per-process RNG draws per round are \
     stream-faithfulness-bound in both legs\",\n\
    \  \"required_speedup_floodset_4096\": %.1f,\n\
    \  \"rows\": [\n%s\n\
    \  ],\n%s\n\
     }\n"
    seed required_speedup
    (String.concat ",\n" rows)
    batch_row;
  close_out oc;
  print_endline "-> results/bench_bitkernel.json";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 3: bechamel                                                    *)
(* ------------------------------------------------------------------ *)

let experiment_tests =
  (* One Test.make per table: times the quick regeneration of each claim. *)
  let make id =
    Test.make ~name:("table:" ^ id)
      (Staged.stage (fun () ->
           match Core.Experiments.by_id id with
           | Some f -> ignore (f Core.Experiments.Quick ~seed)
           | None -> assert false))
  in
  List.map make Core.Experiments.ids

let micro_tests =
  let rng = Prng.Rng.create 7 in
  let synran64 = Core.Synran.protocol 64 in
  let band =
    Core.Lb_adversary.band_control ~rules:Core.Onesided.paper
      ~bit_of_msg:Core.Synran.bit_of_msg ()
  in
  let inputs64 = Prng.Sample.random_bits (Prng.Rng.create 3) 64 in
  let floodset = Baselines.Floodset.protocol ~rounds:17 () in
  let majority0 = Coinflip.Games.majority_default_zero 256 in
  [
    Test.make ~name:"rng:bits64" (Staged.stage (fun () -> Prng.Rng.bits64 rng));
    Test.make ~name:"rng:int-1000" (Staged.stage (fun () -> Prng.Rng.int rng 1000));
    Test.make ~name:"binomial:sf-n1024"
      (Staged.stage (fun () -> Stats.Binomial.sf ~n:1024 ~k:560 ~p:0.5));
    Test.make ~name:"explorer:expected-rounds-n256"
      (Staged.stage (fun () -> Core.Explorer.expected_rounds ~ones:128 256));
    Test.make ~name:"synran:run-n64-null"
      (Staged.stage (fun () ->
           Sim.Engine.run synran64 Sim.Adversary.null ~inputs:inputs64 ~t:0
             ~rng:(Prng.Rng.create 11)));
    Test.make ~name:"synran:run-n64-band"
      (Staged.stage (fun () ->
           Sim.Engine.run ~max_rounds:500 synran64 band ~inputs:inputs64 ~t:63
             ~rng:(Prng.Rng.create 13)));
    Test.make ~name:"floodset:run-n64-t16"
      (Staged.stage (fun () ->
           Sim.Engine.run floodset
             (Baselines.Adversaries.drip ~per_round:1)
             ~inputs:inputs64 ~t:16
             ~rng:(Prng.Rng.create 17)));
    Test.make ~name:"coinflip:majority0-trial"
      (Staged.stage (fun () ->
           let values = majority0.Coinflip.Game.sample rng in
           Coinflip.Strategy.forced_outcome majority0 values
             ~strategy:Coinflip.Strategy.best_available ~budget:64 ~target:0));
    Test.make ~name:"async:benor-n8-fair"
      (Staged.stage (fun () ->
           Async.Engine.run ~max_steps:50_000 (Async.Benor.protocol ~t:3)
             Async.Scheduler.fair
             ~inputs:[| 0; 1; 0; 1; 0; 1; 0; 1 |]
             ~t:0
             ~rng:(Prng.Rng.create 23)));
    Test.make ~name:"byz:phase-king-n13-spoofed"
      (Staged.stage (fun () ->
           Byz.Engine.run
             (Byz.Phase_king.protocol ~t:3)
             (Byz.Phase_king.king_spoofer ())
             ~inputs:[| 1; 0; 1; 0; 1; 0; 1; 0; 1; 0; 1; 0; 1 |]
             ~t:3
             ~rng:(Prng.Rng.create 29)));
    Test.make ~name:"byz:eig-n7-liar"
      (Staged.stage (fun () ->
           Byz.Engine.run (Byz.Eig.protocol ~t:2) (Byz.Eig.liar ())
             ~inputs:[| 1; 0; 1; 0; 1; 0; 1 |]
             ~t:2
             ~rng:(Prng.Rng.create 31)));
  ]

let run_bechamel () =
  let tests =
    Test.make_grouped ~name:"bench" (experiment_tests @ micro_tests)
  in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let table =
    Stats.Table.create ~title:"Bechamel microbenchmarks (monotonic clock)"
      ~columns:[ "benchmark"; "ns/run"; "r^2" ]
  in
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Stats.Table.Float e
        | Some [] | None -> Stats.Table.Str "-"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Stats.Table.Float r
        | None -> Stats.Table.Str "-"
      in
      Stats.Table.add_row table [ Stats.Table.Str name; estimate; r2 ])
    rows;
  print_endline (Stats.Table.render table)

let () =
  let args = Array.to_list Sys.argv in
  let profile =
    if List.mem "full" args then Core.Experiments.Full else Core.Experiments.Quick
  in
  let tables_only = List.mem "--tables-only" args in
  let micro_only = List.mem "--micro-only" args in
  let hotpath_only = List.mem "--hotpath-only" args in
  let bitkernel_only = List.mem "--bitkernel-only" args in
  let jobs =
    let rec find = function
      | "--jobs" :: v :: _ -> (
          match int_of_string_opt v with
          (* More domains than cores only adds scheduling overhead (and on
             this box, a 2.2x slowdown), so clamp to the core count. Tables
             are bit-identical at any jobs value, so clamping is safe. *)
          | Some j when j >= 1 -> Stdlib.min j (Sim.Parallel.default_jobs ())
          | _ -> failwith ("bad --jobs value " ^ v))
      | _ :: rest -> find rest
      | [] -> Sim.Parallel.default_jobs ()
    in
    find args
  in
  let resume = List.mem "--resume" args in
  let attribute = List.mem "--attribute" args in
  let deadline_s =
    let rec find = function
      | "--deadline-s" :: v :: _ -> (
          match float_of_string_opt v with
          | Some d when d > 0.0 -> Some d
          | _ -> failwith ("bad --deadline-s value " ^ v))
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let path_opt flag =
    let rec find = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let metrics_out = path_opt "--metrics-out" in
  let events_out = path_opt "--events-out" in
  if attribute then attribute_bench ~jobs profile
  else if hotpath_only then hotpath_bench ()
  else if bitkernel_only then bitkernel_bench ()
  else begin
    if not micro_only then
      print_tables ~jobs ~resume ~deadline_s ?metrics_out ?events_out profile;
    if not tables_only then begin
      parallel_bench ();
      hotpath_bench ();
      bitkernel_bench ();
      run_bechamel ()
    end
  end
