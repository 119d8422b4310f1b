(* Delivery smoke test: one quick engine-vs-reference equivalence
   workload, wired into tier-1 as `dune build @bench-smoke` (a dep of
   @runtest). Exits non-zero on any divergence between the engine's
   shared-fold delivery and Sim_reference's materialized exchange, so a
   delivery regression fails plain `dune runtest` — the QCheck
   differential properties in test_delivery.ml then localize it. The bitkernel leg
   replays the same discipline against the bit-packed engine (outcomes,
   traces, metrics digest, event-stream digest — any byte of difference
   fails tier-1).

   Also smoke-validates the observability layer: one captured band-control
   workload at --jobs 1 vs --jobs 3 must produce byte-identical metrics
   JSON and event JSONL, and the jobs=1 registry lands in
   results/metrics.json as the checked-in export shape. *)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "bench-smoke: DIVERGENCE: %s\n" what
  end

let outcomes_equal (a : Sim.Engine.outcome) (b : Sim.Engine.outcome) =
  a.Sim.Engine.rounds_executed = b.Sim.Engine.rounds_executed
  && a.rounds_to_decide = b.rounds_to_decide
  && a.decisions = b.decisions
  && a.faulty = b.faulty
  && a.halted = b.halted
  && a.kills_used = b.kills_used
  && a.quiescent = b.quiescent
  && Option.map Sim.Trace.records a.trace = Option.map Sim.Trace.records b.trace

let compare_runs name protocol adversary ~n ~t ~seed =
  let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
  let engine =
    Sim.Engine.run ~record_trace:true ~max_rounds:2000 protocol (adversary ())
      ~inputs ~t ~rng:(Prng.Rng.create seed)
  in
  let reference =
    Sim_reference.run ~record_trace:true ~max_rounds:2000 protocol
      (adversary ()) ~inputs ~t ~rng:(Prng.Rng.create seed)
  in
  check name (outcomes_equal engine reference)

let obs_smoke () =
  let n = 32 and trials = 40 and seed = 7 in
  let protocol = Core.Synran.protocol n in
  let make_adversary () =
    Core.Lb_adversary.band_control ~rules:Core.Onesided.paper
      ~bit_of_msg:Core.Synran.bit_of_msg ()
  in
  let captured jobs =
    let capture = Obs.Capture.create ~events:true () in
    let s =
      Sim.Runner.run_trials ~max_rounds:2000 ~jobs ~capture ~trials ~seed
        ~gen_inputs:(Sim.Runner.input_gen_random ~n)
        ~t:(n - 1) protocol make_adversary
    in
    (s, capture)
  in
  let s1, c1 = captured 1 in
  let s3, c3 = captured 3 in
  check "obs: summaries identical at jobs 1 vs 3"
    (Sim.Runner.mean_rounds s1 = Sim.Runner.mean_rounds s3
    && Stats.Histogram.bins s1.Sim.Runner.rounds_hist
       = Stats.Histogram.bins s3.Sim.Runner.rounds_hist);
  check "obs: metrics JSON byte-identical at jobs 1 vs 3"
    (Obs.Capture.metrics_json c1 = Obs.Capture.metrics_json c3);
  check "obs: event JSONL byte-identical at jobs 1 vs 3"
    (Obs.Capture.events_jsonl c1 = Obs.Capture.events_jsonl c3);
  check "obs: metrics registry is non-empty"
    (not (Obs.Metrics.is_empty (Obs.Capture.metrics c1)));
  check "obs: runner.trials counts every trial"
    (Obs.Metrics.counter_value (Obs.Capture.metrics c1) "runner.trials"
    = trials);
  let json = Obs.Capture.metrics_json c1 in
  check "obs: metrics export carries its schema tag"
    (let tag = "\"schema\": \"metrics/v1\"" in
     let tl = String.length tag and jl = String.length json in
     let rec scan i = i + tl <= jl && (String.sub json i tl = tag || scan (i + 1)) in
     scan 0);
  (* The dune rule declares metrics.json as a target and promotes it to
     results/metrics.json, so the export ships with the repo. *)
  Obs.Export.write_metrics ~path:"metrics.json" (Obs.Capture.metrics c1);
  print_endline
    "bench-smoke: obs capture identical at jobs 1 and 3 -> results/metrics.json"

(* Run one engine invocation under a fresh metrics registry + recorder;
   returns the outcome with both digests, so engine comparisons cover the
   full observability stream, not just outcomes. *)
let observed run =
  let m = Obs.Metrics.create () and rc = Obs.Recorder.create () in
  let sink =
    Obs.Sink.create (fun ev ->
        Obs.Metrics.absorb_event m ev;
        Obs.Recorder.push rc ev)
  in
  let o = run sink in
  (o, Obs.Metrics.digest m, Obs.Recorder.digest rc)

(* Bitkernel-vs-concrete replay: outcomes, traces, metrics digest and
   event-stream digest must all match Sim.Engine. The null adversary
   keeps every round packed; band-control and the valency-steer killer
   force adaptive-kill fallbacks and re-packs, so both halves of the
   kernel are diffed. *)
let bitkernel_compare name protocol ?observer adversary ~n ~t ~seed =
  let inputs = Prng.Sample.random_bits (Prng.Rng.create (seed + 1)) n in
  let o1, m1, r1 =
    observed (fun sink ->
        Sim.Engine.run ~record_trace:true ?observer ~sink ~max_rounds:2000
          protocol (adversary ()) ~inputs ~t
          ~rng:(Prng.Rng.create seed))
  in
  let o2, m2, r2 =
    observed (fun sink ->
        Sim.Bitkernel.run ~record_trace:true ?observer ~sink ~max_rounds:2000
          protocol (adversary ()) ~inputs ~t
          ~rng:(Prng.Rng.create seed))
  in
  check (name ^ ": outcome+trace") (outcomes_equal o1 o2);
  check (name ^ ": metrics digest") (m1 = m2);
  check (name ^ ": event-stream digest") (r1 = r2)

let bitkernel_smoke () =
  let rules = Core.Onesided.paper in
  for seed = 1 to 3 do
    bitkernel_compare
      (Printf.sprintf "bitkernel synran n=96 vs null (seed %d)" seed)
      (Core.Synran.protocol 96) ~observer:Core.Synran.msg_is_one
      (fun () -> Sim.Adversary.null)
      ~n:96 ~t:0 ~seed;
    bitkernel_compare
      (Printf.sprintf "bitkernel synran n=96 vs band-control (seed %d)" seed)
      (Core.Synran.protocol 96) ~observer:Core.Synran.msg_is_one
      (fun () ->
        Core.Lb_adversary.band_control ~rules
          ~bit_of_msg:Core.Synran.bit_of_msg ())
      ~n:96 ~t:95 ~seed;
    bitkernel_compare
      (Printf.sprintf "bitkernel synran n=64 vs valency-steer (seed %d)" seed)
      (Core.Synran.protocol 64) ~observer:Core.Synran.msg_is_one
      (fun () ->
        Baselines.Adversaries.valency_steer ~per_round:2
          ~msg_is_one:Core.Synran.msg_is_one ())
      ~n:64 ~t:32 ~seed;
    bitkernel_compare
      (Printf.sprintf "bitkernel floodset n=48 vs null (seed %d)" seed)
      (Baselines.Floodset.protocol ~rounds:9 ())
      (fun () -> Sim.Adversary.null)
      ~n:48 ~t:0 ~seed;
    bitkernel_compare
      (Printf.sprintf "bitkernel floodset n=48 vs valency-steer (seed %d)"
         seed)
      (Baselines.Floodset.protocol ~rounds:9 ())
      (fun () ->
        Baselines.Adversaries.valency_steer ~per_round:2
          ~msg_is_one:(fun (m : Baselines.Floodset.msg) -> m.has_one)
          ())
      ~n:48 ~t:24 ~seed
  done;
  print_endline "bench-smoke: bitkernel engine byte-identical to concrete"

(* Chaos replay: a pinned survivable fault plan — three faults across
   three sites, one of them a torn checkpoint write that the retry must
   quarantine and recompute — replayed at jobs 1 and jobs 3. The whole
   point of the fault harness is that recovery is byte-invisible: the
   summary, the metrics JSON, the event JSONL, and the supervisor's
   manifest-bound metrics digest must all equal the fault-free run's. An
   every-hit arm then exhausts the retry budget on purpose and must land
   as a structured terminal failure carrying the injected fault. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let chaos_pinned_plan = "body@1#2:raise,store@2#0:torn,sink@3#5:raise"

let chaos_smoke () =
  let trials = 40 and seed = 17 and n = 8 in
  let plan_exn s =
    match Sim.Fault.plan_of_string s with
    | Ok p -> p
    | Error e -> failwith ("bench-smoke: bad pinned plan: " ^ e)
  in
  let plan = plan_exn chaos_pinned_plan in
  let root = Filename.temp_dir "bench_chaos_" "" in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let run ?fault ?(retries = 0) ~tag ~jobs () =
    let capture = Obs.Capture.create ~events:true () in
    let checkpoint =
      Sim.Checkpoint.create ~root ~exp:tag ~seed ~chunk_size:8 ~n:trials
    in
    let r =
      Sim.Runner.run_trials_supervised ~max_rounds:500 ~jobs ~chunk_size:8
        ~checkpoint ~capture ?fault ~retries ~trials ~seed
        ~gen_inputs:(Sim.Runner.input_gen_random ~n)
        ~t:2 (Core.Synran.protocol n)
        (fun () -> Sim.Adversary.null)
    in
    (r, Obs.Capture.metrics_json capture, Obs.Capture.events_jsonl capture)
  in
  let summary_fields (s : Sim.Runner.summary) =
    ( s.Sim.Runner.trials,
      Stats.Welford.mean s.Sim.Runner.rounds,
      Stats.Histogram.bins s.Sim.Runner.rounds_hist,
      (s.Sim.Runner.decided_zero, s.Sim.Runner.decided_one) )
  in
  let rb, mb, eb = run ~tag:"base" ~jobs:1 () in
  check "chaos: fault-free baseline is clean"
    (rb.Sim.Runner.failures = [] && rb.Sim.Runner.partial <> None);
  List.iter
    (fun jobs ->
      let tag = Printf.sprintf "chaos-j%d" jobs in
      let r, m, e = run ~fault:plan ~retries:2 ~tag ~jobs () in
      check
        (Printf.sprintf "chaos: plan survived the retry budget at jobs %d"
           jobs)
        (r.Sim.Runner.failures = []);
      check
        (Printf.sprintf "chaos: all three faults fired at jobs %d" jobs)
        (List.length r.Sim.Runner.retried = 3);
      check
        (Printf.sprintf "chaos: summary byte-identical at jobs %d" jobs)
        (Option.map summary_fields r.Sim.Runner.partial
        = Option.map summary_fields rb.Sim.Runner.partial);
      check
        (Printf.sprintf "chaos: metrics JSON byte-identical at jobs %d" jobs)
        (m = mb);
      check
        (Printf.sprintf "chaos: event JSONL byte-identical at jobs %d" jobs)
        (e = eb))
    [ 1; 3 ];
  (* The manifest-bound view: run the same workload under Core.Supervise
     with and without the plan; the per-experiment metrics registry (the
     manifest's metrics_digest) must not change, while the retries land
     in the manifest-only chunk_retries counter. *)
  let sup_run ?fault ~retries ~tag () =
    let ctx = Core.Supervise.create ?fault ~retries () in
    Core.Supervise.run_experiment ctx ~id:"chaos" (fun () ->
        let checkpoint =
          Sim.Checkpoint.create ~root ~exp:tag ~seed ~chunk_size:8 ~n:trials
        in
        (* The sink-site arm only fires when events actually flow, so the
           supervised leg captures too. *)
        let capture = Obs.Capture.create ~events:true () in
        ignore
          (Core.Supervise.commit (Some ctx)
             (Sim.Runner.run_trials_supervised ~max_rounds:500 ~jobs:1
                ~chunk_size:8 ~checkpoint ~capture
                ?retries:(Core.Supervise.retries (Some ctx))
                ?fault:(Core.Supervise.fault_plan (Some ctx))
                ~trials ~seed
                ~gen_inputs:(Sim.Runner.input_gen_random ~n)
                ~t:2 (Core.Synran.protocol n)
                (fun () -> Sim.Adversary.null)));
        Stats.Table.create ~title:"chaos" ~columns:[ "c" ])
  in
  let r_free = sup_run ~retries:0 ~tag:"sup-base" () in
  let r_chaos = sup_run ~fault:plan ~retries:2 ~tag:"sup-chaos" () in
  check "chaos: supervised run recovered"
    (not (Core.Supervise.failed r_chaos));
  check "chaos: manifest counts the retried passes"
    (r_chaos.Core.Supervise.chunk_retries = 3);
  check "chaos: manifest metrics_digest identical to fault-free"
    (Obs.Metrics.digest r_free.Core.Supervise.metrics
    = Obs.Metrics.digest r_chaos.Core.Supervise.metrics);
  (* Budget exhaustion is loud, structured, and keeps the original
     exception. *)
  let rx, _, _ =
    run ~fault:(plan_exn "body@1#*:raise") ~retries:1 ~tag:"exhaust" ~jobs:1
      ()
  in
  check "chaos: exhausted budget is a terminal failure"
    (match rx.Sim.Runner.failures with
    | [ f ] -> (
        f.Sim.Parallel.attempt = 1
        && match f.Sim.Parallel.exn with
           | Sim.Fault.Injected { site = Sim.Fault.Chunk_body; _ } -> true
           | _ -> false)
    | _ -> false);
  print_endline
    "bench-smoke: pinned chaos plan byte-invisible at jobs 1 and 3; \
     exhausted budget fails loudly"

let () =
  let rules = Core.Onesided.paper in
  for seed = 1 to 5 do
    compare_runs
      (Printf.sprintf "synran n=64 vs band-control (seed %d)" seed)
      (Core.Synran.protocol 64)
      (fun () ->
        Core.Lb_adversary.band_control ~rules
          ~bit_of_msg:Core.Synran.bit_of_msg ())
      ~n:64 ~t:63 ~seed;
    compare_runs
      (Printf.sprintf "synran n=48 vs random-partial (seed %d)" seed)
      (Core.Synran.protocol 48)
      (fun () -> Baselines.Adversaries.random_partial ~p:0.1)
      ~n:48 ~t:24 ~seed;
    compare_runs
      (Printf.sprintf "floodset n=32 vs drip (seed %d)" seed)
      (Baselines.Floodset.protocol ~rounds:9 ())
      (fun () -> Baselines.Adversaries.drip ~per_round:1)
      ~n:32 ~t:8 ~seed
  done;
  bitkernel_smoke ();
  obs_smoke ();
  chaos_smoke ();
  if !failures > 0 then begin
    Printf.eprintf "bench-smoke: %d divergence(s)\n" !failures;
    exit 1
  end;
  print_endline "bench-smoke: engine and reference delivery agree"
