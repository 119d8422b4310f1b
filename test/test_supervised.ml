(* Tests for the supervision layer: structured failure capture and partial
   salvage in Sim.Parallel.fold_chunks_supervised, the chunk checkpoint
   store, exact checkpoint/resume through Sim.Runner, and Core.Supervise's
   per-experiment watchdog, failure records and run manifest. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* List-of-indices accumulator: the merged value spells out exactly which
   indices were folded in, in merge order. *)
let indices_fold ?jobs ?cancel ?retries ?fault ?saved ?persist ~chunk_size ~n
    ~crash_at () =
  Sim.Parallel.fold_chunks_supervised ?jobs ?cancel ?retries ?fault ?saved
    ?persist ~chunk_size ~n
    ~create:(fun () -> ref [])
    ~work:(fun i acc ->
      if List.mem i crash_at then failwith (Printf.sprintf "boom %d" i);
      acc := !acc @ [ i ])
    ~merge:(fun a b ->
      a := !a @ !b;
      a)
    ()

(* --- fold_chunks_supervised: failure capture & salvage ----------------- *)

let test_crash_structured () =
  (* Sequential workers make the poisoning deterministic: chunks 0-2
     complete, chunk 3 (index 13) fails, chunks 4-9 never start. *)
  let s = indices_fold ~jobs:1 ~chunk_size:4 ~n:40 ~crash_at:[ 13 ] () in
  check_int "chunks_total" 10 s.Sim.Parallel.chunks_total;
  check_int "chunks_done" 3 s.Sim.Parallel.chunks_done;
  check_int "chunks_resumed" 0 s.Sim.Parallel.chunks_resumed;
  check_bool "not cancelled" false s.Sim.Parallel.cancelled;
  (match s.Sim.Parallel.failures with
  | [ f ] ->
      check_int "failing chunk" 3 f.Sim.Parallel.chunk;
      check_int "failing trial" 13 f.Sim.Parallel.trial;
      check_bool "original exception" true
        (f.Sim.Parallel.exn = Failure "boom 13");
      check_string "pp_chunk_failed" "chunk 3, trial 13: Failure(\"boom 13\")"
        (Sim.Parallel.pp_chunk_failed f)
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs));
  match s.Sim.Parallel.value with
  | Some v -> Alcotest.(check (list int)) "salvaged prefix" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ] !v
  | None -> Alcotest.fail "partial value missing"

let test_crash_salvage_parallel () =
  (* Under real parallelism the set of completed chunks is timing-dependent,
     but the invariants are not: the failing chunk is captured exactly,
     nothing from it is merged, and the merge stays in chunk order. *)
  let s = indices_fold ~jobs:4 ~chunk_size:4 ~n:40 ~crash_at:[ 13 ] () in
  check_bool "not cancelled" false s.Sim.Parallel.cancelled;
  (match s.Sim.Parallel.failures with
  | [ f ] ->
      check_int "failing chunk" 3 f.Sim.Parallel.chunk;
      check_int "failing trial" 13 f.Sim.Parallel.trial
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs));
  let v = match s.Sim.Parallel.value with Some v -> !v | None -> [] in
  check_int "value covers exactly the completed chunks"
    (4 * s.Sim.Parallel.chunks_done)
    (List.length v);
  check_bool "nothing from the failed chunk leaks in" true
    (List.for_all (fun i -> i < 12 || i > 15) v);
  check_bool "merge order is chunk order" true (List.sort compare v = v)

let test_persist_failure_recorded () =
  (* A raising persist hook is the chunk's failure; its [trial] is one past
     the chunk so it cannot be mistaken for a work-call index. *)
  let persist c _ = if c = 2 then failwith "disk full" in
  let s =
    indices_fold ~jobs:1 ~chunk_size:4 ~n:16 ~crash_at:[] ~persist ()
  in
  check_int "chunks_done" 2 s.Sim.Parallel.chunks_done;
  (match s.Sim.Parallel.failures with
  | [ f ] ->
      check_int "failing chunk" 2 f.Sim.Parallel.chunk;
      check_int "trial is one past the chunk" 12 f.Sim.Parallel.trial;
      check_bool "persist's exception" true (f.Sim.Parallel.exn = Failure "disk full")
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs));
  match s.Sim.Parallel.value with
  | Some v -> Alcotest.(check (list int)) "only durable chunks merged" [ 0; 1; 2; 3; 4; 5; 6; 7 ] !v
  | None -> Alcotest.fail "partial value missing"

(* --- fold_chunks_supervised: retry budget ------------------------------ *)

let plan_of_string_exn s =
  match Sim.Fault.plan_of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad plan %S: %s" s e

let test_retry_recovers () =
  (* An armed fault on chunk 1's third work call (index 6) fires exactly
     once — hit counters persist across retries — so the retried pass
     runs clean and the final value is the complete fold. *)
  let fault =
    Sim.Fault.injector ~nchunks:4 (plan_of_string_exn "body@1#2:raise")
  in
  let s =
    indices_fold ~jobs:1 ~chunk_size:4 ~n:16 ~crash_at:[] ~retries:1 ~fault ()
  in
  check_bool "no terminal failures" true (s.Sim.Parallel.failures = []);
  check_int "all chunks done" 4 s.Sim.Parallel.chunks_done;
  (match s.Sim.Parallel.retried with
  | [ f ] ->
      check_int "retried chunk" 1 f.Sim.Parallel.chunk;
      check_int "retried trial" 6 f.Sim.Parallel.trial;
      check_int "retried attempt" 0 f.Sim.Parallel.attempt;
      check_bool "injected exception preserved" true
        (match f.Sim.Parallel.exn with
        | Sim.Fault.Injected
            { site = Sim.Fault.Chunk_body; scope = 1; kind = Sim.Fault.Crash }
          ->
            true
        | _ -> false);
      check_string "pp renders the injected fault"
        "chunk 1, trial 6: injected fault: body@1:raise"
        (Sim.Parallel.pp_chunk_failed f)
  | fs ->
      Alcotest.failf "expected exactly one retried attempt, got %d"
        (List.length fs));
  match s.Sim.Parallel.value with
  | Some v ->
      Alcotest.(check (list int))
        "retried fold is complete"
        [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]
        !v
  | None -> Alcotest.fail "value missing"

let test_retry_budget_exhausted () =
  (* An every-hit arm defeats any budget: [retries] extra passes all land
     in [retried], the terminal attempt in [failures] with the original
     exception, and the chunk contributes nothing. *)
  let fault =
    Sim.Fault.injector ~nchunks:4 (plan_of_string_exn "body@1#*:raise")
  in
  let s =
    indices_fold ~jobs:1 ~chunk_size:4 ~n:16 ~crash_at:[] ~retries:2 ~fault ()
  in
  (match s.Sim.Parallel.failures with
  | [ f ] ->
      check_int "terminal chunk" 1 f.Sim.Parallel.chunk;
      check_int "terminal attempt is the budget" 2 f.Sim.Parallel.attempt
  | fs -> Alcotest.failf "expected one terminal failure, got %d" (List.length fs));
  Alcotest.(check (list int))
    "every non-terminal attempt recorded" [ 0; 1 ]
    (List.map (fun f -> f.Sim.Parallel.attempt) s.Sim.Parallel.retried);
  check_bool "retried attempts are all chunk 1" true
    (List.for_all (fun f -> f.Sim.Parallel.chunk = 1) s.Sim.Parallel.retried);
  (* Only a terminal failure poisons the pool: with one worker, chunk 0
     completed before the budget ran out and chunks 2-3 never started. *)
  match s.Sim.Parallel.value with
  | Some v ->
      Alcotest.(check (list int))
        "failed chunk contributes nothing" [ 0; 1; 2; 3 ] !v
  | None -> Alcotest.fail "salvaged value missing"

let test_retries_validated () =
  Alcotest.check_raises "negative retries rejected"
    (Invalid_argument "Parallel.fold_chunks: retries") (fun () ->
      ignore
        (indices_fold ~jobs:1 ~chunk_size:4 ~n:8 ~crash_at:[] ~retries:(-1) ()))

(* --- fold_chunks_supervised: cooperative cancellation ------------------ *)

let test_cancel_before_first_chunk () =
  let s =
    indices_fold ~jobs:1 ~chunk_size:4 ~n:40 ~crash_at:[]
      ~cancel:(fun () -> true)
      ()
  in
  check_bool "cancelled" true s.Sim.Parallel.cancelled;
  check_int "no chunks ran" 0 s.Sim.Parallel.chunks_done;
  check_bool "no failures" true (s.Sim.Parallel.failures = []);
  check_bool "no value" true (s.Sim.Parallel.value = None)

let test_cancel_at_chunk_boundary () =
  (* The watchdog is polled before claiming each chunk, never mid-chunk:
     with one worker, firing on the third poll stops after exactly two
     whole chunks. *)
  let polls = ref 0 in
  let cancel () =
    incr polls;
    !polls > 2
  in
  let s = indices_fold ~jobs:1 ~chunk_size:4 ~n:40 ~crash_at:[] ~cancel () in
  check_bool "cancelled" true s.Sim.Parallel.cancelled;
  check_int "two whole chunks" 2 s.Sim.Parallel.chunks_done;
  match s.Sim.Parallel.value with
  | Some v -> Alcotest.(check (list int)) "partial prefix" [ 0; 1; 2; 3; 4; 5; 6; 7 ] !v
  | None -> Alcotest.fail "partial value missing"

(* --- checkpoint store -------------------------------------------------- *)

(* Every checkpoint store in these tests lives under a per-test temp root,
   removed on teardown — `dune runtest` must leave no ckpt_test_* debris in
   the repository root. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_root name f =
  let dir = Filename.temp_dir "ckpt_test_" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () -> f (Filename.concat dir name))

let test_checkpoint_roundtrip () =
  with_temp_root "ckpt_test_roundtrip" @@ fun root ->
  let ck =
    Sim.Checkpoint.create ~root ~exp:"unit" ~seed:7
      ~chunk_size:4 ~n:16
  in
  check_bool "missing chunk loads None" true
    ((Sim.Checkpoint.load ck ~chunk:0 : float option) = None);
  Sim.Checkpoint.store ck ~chunk:2 (3.5, [ 1; 2; 3 ]);
  (match (Sim.Checkpoint.load ck ~chunk:2 : (float * int list) option) with
  | Some v -> check_bool "round-trips exactly" true (v = (3.5, [ 1; 2; 3 ]))
  | None -> Alcotest.fail "stored chunk did not load");
  Sim.Checkpoint.clear ck;
  check_bool "clear removes the store" false
    (Sys.file_exists (Sim.Checkpoint.dir ck))

let test_checkpoint_key_mismatch () =
  (* Same directory, different key (n differs): a chunk written under one
     configuration is alien to the other and gets quarantined on load —
     the store never trusts a file it cannot verify, so the original is
     gone afterwards (it will be recomputed, not silently reused). *)
  with_temp_root "ckpt_test_key" @@ fun root ->
  let ck16 =
    Sim.Checkpoint.create ~root ~exp:"e" ~seed:3 ~chunk_size:4 ~n:16
  in
  let ck24 =
    Sim.Checkpoint.create ~root ~exp:"e" ~seed:3 ~chunk_size:4 ~n:24
  in
  check_string "same directory" (Sim.Checkpoint.dir ck16)
    (Sim.Checkpoint.dir ck24);
  Sim.Checkpoint.store ck16 ~chunk:0 [ 42 ];
  check_bool "mismatched key rejected" true
    ((Sim.Checkpoint.load ck24 ~chunk:0 : int list option) = None);
  let quarantined =
    Filename.concat (Sim.Checkpoint.dir ck24) "chunk-0.corrupt"
  in
  check_bool "alien file quarantined" true (Sys.file_exists quarantined);
  check_bool "original consumed by quarantine" true
    ((Sim.Checkpoint.load ck16 ~chunk:0 : int list option) = None);
  (* A re-store under the right key wins back the slot. *)
  Sim.Checkpoint.store ck16 ~chunk:0 [ 42 ];
  check_bool "re-stored chunk loads" true
    ((Sim.Checkpoint.load ck16 ~chunk:0 : int list option) = Some [ 42 ]);
  Sim.Checkpoint.clear ck16

let test_checkpoint_sanitized_dir () =
  with_temp_root "ckpt_test_san" @@ fun root ->
  let ck =
    Sim.Checkpoint.create ~root ~exp:"e5;n=24/gen=split"
      ~seed:1 ~chunk_size:8 ~n:10
  in
  let base = Filename.basename (Sim.Checkpoint.dir ck) in
  check_bool "store name survives exp punctuation" true
    (String.for_all
       (fun ch ->
         match ch with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       base)

let test_checkpoint_collision_distinct () =
  (* Regression: sanitization is lossy — "e1/a" and "e1 a" both sanitize
     to "e1_a" and used to share (and clobber) one store directory. The
     short raw-id hash in the directory name keeps them apart. *)
  with_temp_root "ckpt_test_collide" @@ fun root ->
  let mk exp =
    Sim.Checkpoint.create ~root ~exp ~seed:1 ~chunk_size:4 ~n:8
  in
  let ck_slash = mk "e1/a" and ck_space = mk "e1 a" in
  check_bool "lossy-sanitizing ids get distinct directories" true
    (Sim.Checkpoint.dir ck_slash <> Sim.Checkpoint.dir ck_space);
  (* And the stores really are independent: each loads only its own data. *)
  Sim.Checkpoint.store ck_slash ~chunk:0 [ 1 ];
  Sim.Checkpoint.store ck_space ~chunk:0 [ 2 ];
  check_bool "slash store unclobbered" true
    ((Sim.Checkpoint.load ck_slash ~chunk:0 : int list option) = Some [ 1 ]);
  check_bool "space store unclobbered" true
    ((Sim.Checkpoint.load ck_space ~chunk:0 : int list option) = Some [ 2 ]);
  Sim.Checkpoint.clear ck_slash;
  Sim.Checkpoint.clear ck_space

let test_checkpoint_tmp_sweep () =
  (* Regression: a SIGKILL between [open_out_bin] and [Sys.rename] inside
     [store] leaves a stale [chunk-N.tmp]. Re-opening the store (a resume)
     sweeps them; real chunk files are untouched. *)
  with_temp_root "ckpt_test_sweep" @@ fun root ->
  let mk () =
    Sim.Checkpoint.create ~root ~exp:"sweep" ~seed:2 ~chunk_size:4 ~n:8
  in
  let ck = mk () in
  Sim.Checkpoint.store ck ~chunk:1 [ 7 ];
  let stale = Filename.concat (Sim.Checkpoint.dir ck) "chunk-5.tmp" in
  let oc = open_out_bin stale in
  output_string oc "truncated garbage";
  close_out oc;
  let ck' = mk () in
  check_bool "stale .tmp swept on re-create" false (Sys.file_exists stale);
  check_bool "real chunk survives the sweep" true
    ((Sim.Checkpoint.load ck' ~chunk:1 : int list option) = Some [ 7 ]);
  Sim.Checkpoint.clear ck'

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_checkpoint_corruption_quarantined () =
  (* Satellite: every way a chunk file can rot on disk — truncation,
     a flipped bit, an empty file — must load as None (recompute) and
     leave the evidence under [chunk-N.corrupt], never a wrong value and
     never a crash. *)
  with_temp_root "ckpt_test_corrupt" @@ fun root ->
  let ck =
    Sim.Checkpoint.create ~root ~exp:"rot" ~seed:3 ~chunk_size:4 ~n:16
  in
  let path = Filename.concat (Sim.Checkpoint.dir ck) "chunk-0" in
  let quarantined = path ^ ".corrupt" in
  let check_rot label corrupt =
    Sim.Checkpoint.store ck ~chunk:0 [ 1; 2; 3 ];
    corrupt (read_file path);
    check_bool (label ^ " loads None") true
      ((Sim.Checkpoint.load ck ~chunk:0 : int list option) = None);
    check_bool (label ^ " quarantined") true (Sys.file_exists quarantined);
    check_bool (label ^ " original gone") false (Sys.file_exists path)
  in
  check_rot "truncated file" (fun good ->
      write_file path (String.sub good 0 (String.length good / 2)));
  check_rot "bit-flipped payload" (fun good ->
      let b = Bytes.of_string good in
      let i = String.length good - 3 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      write_file path (Bytes.to_string b));
  check_rot "empty file" (fun _ -> write_file path "");
  (* Quarantine keeps only the latest casualty; a clean re-store wins the
     slot back regardless. *)
  Sim.Checkpoint.store ck ~chunk:0 [ 1; 2; 3 ];
  check_bool "clean re-store loads" true
    ((Sim.Checkpoint.load ck ~chunk:0 : int list option) = Some [ 1; 2; 3 ]);
  Sim.Checkpoint.clear ck

let test_checkpoint_corrupt_sweep () =
  (* Quarantined leftovers are diagnostic debris: a fresh (non-resume)
     store open sweeps [.corrupt] files along with [.tmp] ones. *)
  with_temp_root "ckpt_test_corrupt_sweep" @@ fun root ->
  let mk () =
    Sim.Checkpoint.create ~root ~exp:"sweepc" ~seed:2 ~chunk_size:4 ~n:8
  in
  let ck = mk () in
  Sim.Checkpoint.store ck ~chunk:0 [ 1 ];
  let stale = Filename.concat (Sim.Checkpoint.dir ck) "chunk-3.corrupt" in
  write_file stale "old quarantined bytes";
  let ck' = mk () in
  check_bool "stale .corrupt swept on re-create" false (Sys.file_exists stale);
  Sim.Checkpoint.clear ck'

(* --- Sim.Runner: supervised runs --------------------------------------- *)

let summary_key (s : Sim.Runner.summary) =
  ( s.Sim.Runner.trials,
    Stats.Welford.mean s.Sim.Runner.rounds,
    Stats.Welford.variance s.Sim.Runner.rounds,
    Stats.Histogram.bins s.Sim.Runner.rounds_hist,
    Stats.Welford.mean s.Sim.Runner.kills,
    (s.Sim.Runner.decided_zero, s.Sim.Runner.decided_one) )

let test_runner_crash_salvage () =
  (* A crash at a known trial: with one worker the 14th adversary build is
     trial index 13 (chunk 3 at chunk_size 4); the salvaged partial is
     exactly the summary of the 12 trials that completed — bit-identical
     to a fresh 12-trial run, because each trial's randomness is a pure
     function of (seed, index). *)
  let n = 8 in
  let protocol = Core.Synran.protocol n in
  let builds = ref 0 in
  let make_adversary () =
    incr builds;
    if !builds = 14 then failwith "adversary exploded";
    Sim.Adversary.null
  in
  let r =
    Sim.Runner.run_trials_supervised ~max_rounds:500 ~jobs:1 ~chunk_size:4
      ~trials:20 ~seed:5
      ~gen_inputs:(Sim.Runner.input_gen_random ~n)
      ~t:2 protocol make_adversary
  in
  check_bool "not cancelled" false r.Sim.Runner.cancelled;
  check_int "chunks_total" 5 r.Sim.Runner.chunks_total;
  check_int "chunks_done" 3 r.Sim.Runner.chunks_done;
  check_int "completed_trials" 12 r.Sim.Runner.completed_trials;
  check_int "total_trials" 20 r.Sim.Runner.total_trials;
  (match r.Sim.Runner.failures with
  | [ f ] ->
      check_int "failing chunk" 3 f.Sim.Parallel.chunk;
      check_int "failing trial" 13 f.Sim.Parallel.trial
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs));
  (* The fresh run must use the same chunk boundaries: Welford merging is
     a non-associative float fold, so only identical chunking is
     bit-identical. *)
  let fresh =
    match
      (Sim.Runner.run_trials_supervised ~max_rounds:500 ~jobs:1 ~chunk_size:4
         ~trials:12 ~seed:5
         ~gen_inputs:(Sim.Runner.input_gen_random ~n)
         ~t:2 protocol
         (fun () -> Sim.Adversary.null))
        .Sim.Runner.partial
    with
    | Some s -> s
    | None -> Alcotest.fail "fresh run produced no summary"
  in
  match r.Sim.Runner.partial with
  | Some p ->
      check_bool "salvaged partial = fresh 12-trial run" true
        (summary_key p = summary_key fresh)
  | None -> Alcotest.fail "partial summary missing"

let test_runner_checkpoint_resume_exact () =
  let n = 8 and trials = 24 and seed = 11 in
  let protocol = Core.Synran.protocol n in
  let gen_inputs = Sim.Runner.input_gen_random ~n in
  let make_adversary () = Sim.Adversary.null in
  let run_supervised ?cancel ?checkpoint ~jobs () =
    Sim.Runner.run_trials_supervised ~max_rounds:500 ~jobs ~chunk_size:4
      ?cancel ?checkpoint ~trials ~seed ~gen_inputs ~t:3 protocol
      make_adversary
  in
  let baseline =
    match (run_supervised ~jobs:1 ()).Sim.Runner.partial with
    | Some s -> s
    | None -> Alcotest.fail "baseline run failed"
  in
  with_temp_root "ckpt_test_resume" @@ fun ck_root ->
  let make_ck () =
    Sim.Checkpoint.create ~root:ck_root ~exp:"resume" ~seed
      ~chunk_size:4 ~n:trials
  in
  (* Interrupt after three whole chunks; their accumulators hit disk. *)
  let polls = ref 0 in
  let cancel () =
    incr polls;
    !polls > 3
  in
  let interrupted = run_supervised ~cancel ~checkpoint:(make_ck ()) ~jobs:1 () in
  check_bool "interrupted run cancelled" true interrupted.Sim.Runner.cancelled;
  check_int "three chunks persisted" 3 interrupted.Sim.Runner.chunks_done;
  check_bool "checkpoint files survive the interrupt" true
    (Sys.file_exists (Sim.Checkpoint.dir (make_ck ())));
  (* A kill mid-[store] leaves a stale atomic-write temporary; plant one
     and check the resume's store open sweeps it. *)
  let stale =
    Filename.concat (Sim.Checkpoint.dir (make_ck ())) "chunk-1.tmp"
  in
  let oc = open_out_bin stale in
  output_string oc "half-written";
  close_out oc;
  (* Resume at a different worker count: saved chunks short-circuit, the
     rest recompute, and the merged summary is byte-identical. *)
  let resume_ck = make_ck () in
  check_bool "stale .tmp swept on resume" false (Sys.file_exists stale);
  let resumed = run_supervised ~checkpoint:resume_ck ~jobs:3 () in
  check_bool "no failures" true (resumed.Sim.Runner.failures = []);
  check_bool "not cancelled" false resumed.Sim.Runner.cancelled;
  check_int "all chunks done" resumed.Sim.Runner.chunks_total
    resumed.Sim.Runner.chunks_done;
  check_int "three chunks came from disk" 3 resumed.Sim.Runner.chunks_resumed;
  (match resumed.Sim.Runner.partial with
  | Some s ->
      check_bool "resumed summary = uninterrupted summary" true
        (summary_key s = summary_key baseline)
  | None -> Alcotest.fail "resumed summary missing");
  check_bool "completed run retires its checkpoints" false
    (Sys.file_exists (Sim.Checkpoint.dir (make_ck ())))

let test_runner_chunk_size_validated () =
  (* [chunk_size] is now accepted (and validated) at the runner layer; a
     non-positive value fails fast with the Parallel invariant instead of
     deep inside a worker. The CLI rejects it even earlier, at argument
     parsing ("--chunk-size 0" never reaches this code). *)
  Alcotest.check_raises "chunk_size 0 rejected"
    (Invalid_argument "Parallel.fold_chunks: chunk_size") (fun () ->
      ignore
        (Sim.Runner.run_trials ~chunk_size:0 ~jobs:1 ~trials:4 ~seed:5
           ~gen_inputs:(Sim.Runner.input_gen_random ~n:8) ~t:3
           (Core.Synran.protocol 8)
           (fun () -> Sim.Adversary.null)))

let test_runner_chunk_size_identity () =
  (* Like [jobs], [chunk_size] must not change the summary. *)
  let run chunk_size =
    Sim.Runner.run_trials ~max_rounds:500 ~jobs:1 ~chunk_size ~trials:12
      ~seed:9
      ~gen_inputs:(Sim.Runner.input_gen_random ~n:8)
      ~t:3
      (Core.Synran.protocol 8)
      (fun () -> Sim.Adversary.null)
  in
  check_bool "chunk_size 1 = chunk_size 5" true
    (summary_key (run 1) = summary_key (run 5))

let test_runner_auto_engine () =
  (* [`Auto] is a pure performance decision: whatever it resolves to must
     produce a summary byte-identical to naming that engine explicitly,
     and the resolution must be auditable through [engine_used] and the
     manifest's [engines] list. Small populations stay on the concrete
     engine; above the crossover a bitkernel-capable protocol takes the
     bit-packed kernel, and any other protocol falls back to concrete. *)
  let run ~engine ~n ~trials protocol =
    Sim.Runner.run_trials_supervised ~max_rounds:500 ~jobs:1 ~chunk_size:2
      ~trials ~seed:11 ~engine
      ~gen_inputs:(Sim.Runner.input_gen_random ~n)
      ~t:2 protocol
      (fun () -> Sim.Adversary.null)
  in
  let key (r : Sim.Runner.report) =
    match r.Sim.Runner.partial with
    | Some s -> summary_key s
    | None -> Alcotest.fail "summary missing"
  in
  (* n = 8 <= crossover: auto must stay concrete. *)
  let small = Core.Synran.protocol 8 in
  let auto_small = run ~engine:`Auto ~n:8 ~trials:6 small in
  let conc_small = run ~engine:`Concrete ~n:8 ~trials:6 small in
  check_string "small n resolves concrete" "concrete"
    auto_small.Sim.Runner.engine_used;
  check_bool "auto = explicit concrete" true
    (key auto_small = key conc_small);
  (* n = 4100 > crossover, FloodSet publishes bitops: auto goes packed.
     rounds = 3 keeps the trial cheap at this width. *)
  let large = Baselines.Floodset.protocol ~rounds:3 () in
  let auto_large = run ~engine:`Auto ~n:4100 ~trials:2 large in
  let bitk_large = run ~engine:`Bitkernel ~n:4100 ~trials:2 large in
  let conc_large = run ~engine:`Concrete ~n:4100 ~trials:2 large in
  check_string "large bitops n resolves bitkernel" "bitkernel"
    auto_large.Sim.Runner.engine_used;
  check_string "explicit engine is reported as-is" "concrete"
    conc_large.Sim.Runner.engine_used;
  check_bool "auto = explicit bitkernel" true (key auto_large = key bitk_large);
  check_bool "bitkernel = concrete" true (key bitk_large = key conc_large);
  (* n = 4100 > crossover, but early-stopping FloodSet declares no bitops:
     the only fallback left is the concrete engine. *)
  let plain = Baselines.Early_stop.protocol ~rounds:3 () in
  let auto_plain = run ~engine:`Auto ~n:4100 ~trials:2 plain in
  let conc_plain = run ~engine:`Concrete ~n:4100 ~trials:2 plain in
  check_string "large n without bitops resolves concrete" "concrete"
    auto_plain.Sim.Runner.engine_used;
  check_bool "auto = explicit concrete above the crossover" true
    (key auto_plain = key conc_plain);
  (* The manifest audit trail: committing reports from two engines leaves
     both in the experiment record, in first-use order, and the engines
     list never perturbs the metrics digest (it is manifest-only). *)
  let ctx = Core.Supervise.create () in
  let res =
    Core.Supervise.run_experiment ctx ~id:"auto" (fun () ->
        ignore (Core.Supervise.commit (Some ctx) auto_small);
        ignore (Core.Supervise.commit (Some ctx) auto_large);
        ignore (Core.Supervise.commit (Some ctx) auto_large);
        Stats.Table.create ~title:"auto" ~columns:[ "engine" ])
  in
  Alcotest.(check (list string))
    "engines in first-use order, deduplicated" [ "concrete"; "bitkernel" ]
    res.Core.Supervise.engines;
  with_temp_root "manifest_engines_tmp" @@ fun root ->
  let path = Filename.concat root "run_manifest.json" in
  Core.Supervise.write_manifest ~path ~profile:"quick" ~seed:11 ~jobs:1
    ~resume:false ~deadline_s:None [ res ];
  let ic = open_in path in
  let json = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let mem needle =
    let lw = String.length needle in
    let rec go i =
      i + lw <= String.length json
      && (String.sub json i lw = needle || go (i + 1))
    in
    go 0
  in
  check_bool "manifest records both engines" true
    (mem "\"engines\": [\"concrete\", \"bitkernel\"]")

(* --- Core.Supervise ----------------------------------------------------- *)

let test_supervise_failure_record () =
  let ctx = Core.Supervise.create () in
  let r = Core.Supervise.run_experiment ctx ~id:"ex" (fun () -> failwith "kaput") in
  check_bool "failed" true (Core.Supervise.failed r);
  (match r.Core.Supervise.status with
  | Core.Supervise.Failed { message; _ } ->
      check_string "message" "Failure(\"kaput\")" message
  | _ -> Alcotest.fail "expected Failed");
  check_bool "no table registered" true (r.Core.Supervise.table = None);
  check_bool "status line names the experiment" true
    (String.length (Core.Supervise.status_line r) > 0
    && String.sub (Core.Supervise.status_line r) 0 2 = "ex")

let test_supervise_timeout_salvages_table () =
  let ctx = Core.Supervise.create () in
  let r =
    Core.Supervise.run_experiment ctx ~id:"ex" (fun () ->
        let tbl =
          Core.Supervise.register (Some ctx)
            (Stats.Table.create ~title:"partial" ~columns:[ "a" ])
        in
        Stats.Table.add_row tbl [ Stats.Table.Str "row" ];
        raise Sim.Parallel.Cancelled)
  in
  (match r.Core.Supervise.status with
  | Core.Supervise.Timed_out -> ()
  | _ -> Alcotest.fail "expected Timed_out");
  match r.Core.Supervise.table with
  | Some tbl -> check_int "partial rows survive" 1 (List.length (Stats.Table.rows tbl))
  | None -> Alcotest.fail "partial table lost"

let test_supervise_armed_watchdog () =
  (* A deadline in the past fires on the first poll: cancel reports true
     and check raises, without any sleeping in the test. *)
  let ctx = Core.Supervise.create ~deadline_s:(-1.0) () in
  let r =
    Core.Supervise.run_experiment ctx ~id:"ex" (fun () ->
        (match Core.Supervise.cancel (Some ctx) with
        | Some poll -> check_bool "expired deadline polls true" true (poll ())
        | None -> Alcotest.fail "watchdog not armed");
        Core.Supervise.check (Some ctx);
        Alcotest.fail "check did not raise past the deadline")
  in
  (match r.Core.Supervise.status with
  | Core.Supervise.Timed_out -> ()
  | _ -> Alcotest.fail "expected Timed_out");
  (* Unarmed supervisors are inert. *)
  check_bool "no deadline, no cancel hook" true
    (Core.Supervise.cancel (Some (Core.Supervise.create ())) = None);
  Core.Supervise.check None;
  check_bool "cancel None is None" true (Core.Supervise.cancel None = None)

let test_supervise_isolation_and_exit () =
  (* One crashing experiment neither prevents nor poisons the next — the
     supervisor's whole point. *)
  let ctx = Core.Supervise.create () in
  let bad = Core.Supervise.run_experiment ctx ~id:"e_bad" (fun () -> failwith "x") in
  let good =
    Core.Supervise.run_experiment ctx ~id:"e_good" (fun () ->
        Stats.Table.create ~title:"ok" ~columns:[ "c" ])
  in
  check_bool "good experiment unaffected" false (Core.Supervise.failed good);
  check_bool "exit code trips on any failure" true
    (Core.Supervise.any_failed [ good; bad ]);
  check_bool "all-clean run exits zero" false
    (Core.Supervise.any_failed [ good ])

let supervised_fold ctx =
  (* The production wiring in miniature: the supervisor carries the fault
     plan and retry budget, the runner fold consumes them via the same
     accessors Core.Experiments uses, and commit folds the report back. *)
  Core.Supervise.commit (Some ctx)
    (Sim.Runner.run_trials_supervised ~max_rounds:500 ~jobs:1 ~chunk_size:4
       ?retries:(Core.Supervise.retries (Some ctx))
       ?fault:(Core.Supervise.fault_plan (Some ctx))
       ~trials:16 ~seed:5
       ~gen_inputs:(Sim.Runner.input_gen_random ~n:8)
       ~t:2 (Core.Synran.protocol 8)
       (fun () -> Sim.Adversary.null))

let test_supervise_retry_accounting () =
  let ctx =
    Core.Supervise.create ~retries:1
      ~fault:(plan_of_string_exn "body@1#2:raise") ()
  in
  let r =
    Core.Supervise.run_experiment ctx ~id:"er" (fun () ->
        let s = supervised_fold ctx in
        check_int "all trials completed despite the fault" 16
          s.Sim.Runner.trials;
        Stats.Table.create ~title:"t" ~columns:[ "c" ])
  in
  check_bool "completed" false (Core.Supervise.failed r);
  check_int "one retry accounted" 1 r.Core.Supervise.chunk_retries;
  check_bool "status line reports the retry" true
    (let line = Core.Supervise.status_line r in
     let needle = "1 retried" in
     let lw = String.length needle in
     let rec go i =
       i + lw <= String.length line
       && (String.sub line i lw = needle || go (i + 1))
     in
     go 0);
  (match
     List.filter
       (function Obs.Event.Chunk_retry _ -> true | _ -> false)
       (Core.Supervise.events ctx)
   with
  | [ Obs.Event.Chunk_retry { chunk; attempt; trial; error } ] ->
      check_int "event chunk" 1 chunk;
      check_int "event attempt" 0 attempt;
      check_int "event trial" 6 trial;
      check_string "event error" "injected fault: body@1:raise" error
  | evs -> Alcotest.failf "expected one Chunk_retry event, got %d"
             (List.length evs));
  with_temp_root "manifest_retry_tmp" @@ fun root ->
  let path = Filename.concat root "m.json" in
  Core.Supervise.write_manifest ~path ~profile:"quick" ~seed:5 ~jobs:1
    ~resume:false ~deadline_s:None [ r ];
  let json = read_file path in
  let mem needle =
    let lw = String.length needle in
    let rec go i =
      i + lw <= String.length json
      && (String.sub json i lw = needle || go (i + 1))
    in
    go 0
  in
  check_bool "manifest records the retries" true (mem "\"chunk_retries\": 1")

let test_supervise_fault_budget_exhausted () =
  (* An every-hit arm outlasts the budget: the experiment lands as Failed
     with the injected fault's message and original backtrace, and the
     run-level stream carries both the retried passes and the terminal
     Chunk_failed. *)
  let ctx =
    Core.Supervise.create ~retries:1
      ~fault:(plan_of_string_exn "body@1#*:raise") ()
  in
  let r =
    Core.Supervise.run_experiment ctx ~id:"ef" (fun () ->
        let _ = supervised_fold ctx in
        Alcotest.fail "commit did not re-raise the terminal failure")
  in
  (match r.Core.Supervise.status with
  | Core.Supervise.Failed { message; backtrace = _ } ->
      check_string "original fault message"
        "chunk 1, trial 4 (attempt 1): injected fault: body@1:raise" message
  | _ -> Alcotest.fail "expected Failed");
  check_int "the recovered pass is still accounted" 1
    r.Core.Supervise.chunk_retries;
  match
    List.filter
      (function Obs.Event.Chunk_failed _ -> true | _ -> false)
      (Core.Supervise.events ctx)
  with
  | [ Obs.Event.Chunk_failed { chunk; attempts; trial; error } ] ->
      check_int "terminal chunk" 1 chunk;
      check_int "total attempts" 2 attempts;
      check_int "terminal trial" 4 trial;
      check_string "terminal error" "injected fault: body@1:raise" error
  | evs ->
      Alcotest.failf "expected one Chunk_failed event, got %d"
        (List.length evs)

let test_manifest_shape () =
  let ctx = Core.Supervise.create () in
  let ok =
    Core.Supervise.run_experiment ctx ~id:"e1" (fun () ->
        Stats.Table.create ~title:"t" ~columns:[ "c" ])
  in
  let bad =
    Core.Supervise.run_experiment ctx ~id:"e2" (fun () -> failwith "boom-q")
  in
  with_temp_root "manifest_test_tmp" @@ fun root ->
  let path = Filename.concat root "run_manifest.json" in
  Core.Supervise.write_manifest ~path ~profile:"quick" ~seed:42 ~jobs:2
    ~resume:false ~deadline_s:(Some 30.0) [ ok; bad ];
  let ic = open_in path in
  let len = in_channel_length ic in
  let json = really_input_string ic len in
  close_in ic;
  let mem needle =
    let lw = String.length needle in
    let rec go i =
      i + lw <= String.length json
      && (String.sub json i lw = needle || go (i + 1))
    in
    go 0
  in
  check_bool "schema tag" true (mem "\"schema\": \"run_manifest/v1\"");
  check_bool "run parameters" true (mem "\"deadline_s\": 30");
  check_bool "completed record" true (mem "\"id\": \"e1\", \"status\": \"completed\"");
  check_bool "failed record" true (mem "\"id\": \"e2\", \"status\": \"failed\"");
  (* Printexc renders Failure "boom-q" as Failure("boom-q"); json_escape
     then escapes those inner quotes for the manifest. *)
  check_bool "failure message escaped" true (mem "Failure(\\\"boom-q\\\")");
  check_bool "failed count" true (mem "\"failed\": 1")

let suites =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "supervised.fold",
      [
        tc "crash yields structured failure + salvaged prefix"
          test_crash_structured;
        tc "salvage invariants hold under parallel workers"
          test_crash_salvage_parallel;
        tc "persist failure recorded as the chunk's failure"
          test_persist_failure_recorded;
        tc "cancel before the first chunk" test_cancel_before_first_chunk;
        tc "cancel fires only at chunk boundaries"
          test_cancel_at_chunk_boundary;
        tc "armed fault fires once; the retried pass recovers"
          test_retry_recovers;
        tc "exhausted retry budget is a terminal failure"
          test_retry_budget_exhausted;
        tc "negative retries rejected" test_retries_validated;
      ] );
    ( "supervised.checkpoint",
      [
        tc "store/load round-trip and clear" test_checkpoint_roundtrip;
        tc "key mismatch is rejected" test_checkpoint_key_mismatch;
        tc "experiment names are sanitized" test_checkpoint_sanitized_dir;
        tc "lossy-sanitizing ids do not collide"
          test_checkpoint_collision_distinct;
        tc "stale .tmp files are swept" test_checkpoint_tmp_sweep;
        tc "corrupt files load None and are quarantined"
          test_checkpoint_corruption_quarantined;
        tc "stale .corrupt files are swept" test_checkpoint_corrupt_sweep;
      ] );
    ( "supervised.runner",
      [
        tc "crash salvages the completed-trial prefix exactly"
          test_runner_crash_salvage;
        tc "interrupt + resume is byte-identical"
          test_runner_checkpoint_resume_exact;
        tc "chunk_size is validated" test_runner_chunk_size_validated;
        tc "chunk_size does not change the summary"
          test_runner_chunk_size_identity;
        tc "auto engine resolution is identical and audited"
          test_runner_auto_engine;
      ] );
    ( "supervised.ctx",
      [
        tc "failure becomes a structured record" test_supervise_failure_record;
        tc "timeout salvages the registered table"
          test_supervise_timeout_salvages_table;
        tc "armed watchdog cancels and raises" test_supervise_armed_watchdog;
        tc "failures are isolated; exit code trips"
          test_supervise_isolation_and_exit;
        tc "retries are accounted in events, status and manifest"
          test_supervise_retry_accounting;
        tc "exhausted budget fails the experiment with the fault"
          test_supervise_fault_budget_exhausted;
        tc "manifest shape" test_manifest_shape;
      ] );
  ]
