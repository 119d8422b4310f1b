(* The indexed async engine against its test-only references
   ([Async_reference]):

   [async.pending]: random push / deliver-by-id / crash-removal / select
     sequences on [Async.Pending] against a plain list model, across the
     store's growth and compaction boundaries.
   [async.differential]: [Async.Engine.run] = the list-materialising
     reference loop under the same schedulers, and the bucketed splitter =
     the full-scan splitter on the same engine — full outcomes plus the
     event-stream digest. *)

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- Pending store vs a list model ------------------------------------ *)

(* Entries are (id, tag); a crash removes every entry with one tag. *)
type op = Push of int list | Deliver of int | Crash of int | Select of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun l -> Push l) (list_size (int_range 1 40) (int_bound 5)));
        (5, map (fun k -> Deliver k) (int_bound 1000));
        (1, map (fun c -> Crash c) (int_bound 5));
        (2, map (fun k -> Select k) (int_bound 1000));
      ])

let op_print = function
  | Push l -> Printf.sprintf "Push %d" (List.length l)
  | Deliver k -> Printf.sprintf "Deliver %d" k
  | Crash c -> Printf.sprintf "Crash %d" c
  | Select k -> Printf.sprintf "Select %d" k

let check_store store model =
  let arr = Array.of_list model in
  let ok = ref (Async.Pending.count store = Array.length arr) in
  Array.iteri
    (fun k e -> if Async.Pending.nth store k <> e then ok := false)
    arr;
  Array.iter
    (fun ((id, _) as e) ->
      if Async.Pending.find store id <> Some e then ok := false)
    arr;
  let seen = ref [] in
  Async.Pending.iter store (fun e -> seen := e :: !seen);
  !ok && List.rev !seen = model

let prop_pending_model =
  QCheck.Test.make ~name:"pending store = list model" ~count:200
    QCheck.(make ~print:(Print.list op_print) Gen.(list_size (int_range 1 120) op_gen))
    (fun ops ->
      let store = Async.Pending.create () in
      let model = ref [] and next = ref 0 in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | Push tags ->
                List.iter
                  (fun tag ->
                    let e = (!next, tag) in
                    Async.Pending.push store ~id:!next e;
                    model := !model @ [ e ];
                    incr next)
                  tags;
                true
            | Deliver k ->
                (* Even k: a live id; odd k: an id that is not in flight. *)
                let len = List.length !model in
                if k mod 2 = 0 && len > 0 then begin
                  let ((id, _) as e) = List.nth !model (k / 2 mod len) in
                  model := List.filter (fun (i, _) -> i <> id) !model;
                  Async.Pending.remove store id = Some e
                end
                else
                  let id = if k mod 4 = 1 then !next + k else -1 - k in
                  Async.Pending.remove store id = None
                  && Async.Pending.find store id = None
            | Crash c ->
                model := List.filter (fun (_, tag) -> tag <> c) !model;
                Async.Pending.remove_if store (fun (_, tag) -> tag = c);
                true
            | Select k ->
                let len = List.length !model in
                len = 0 || Async.Pending.nth store (k mod len) = List.nth !model (k mod len)
          in
          step_ok && check_store store !model)
        ops)

let test_pending_boundaries () =
  (* Grow past several doublings, drain to a few entries, then push until
     the array is full again: the next push compacts and shrinks it. *)
  let store = Async.Pending.create () in
  let cap0 = Async.Pending.capacity store in
  for id = 0 to 199 do
    Async.Pending.push store ~id id
  done;
  let grown = Async.Pending.capacity store in
  Alcotest.(check bool) "grew" true (grown >= 200 && grown > cap0);
  for id = 0 to 194 do
    ignore (Async.Pending.remove store id)
  done;
  Alcotest.(check int) "five live" 5 (Async.Pending.count store);
  let id = ref 200 in
  while Async.Pending.capacity store = grown do
    Async.Pending.push store ~id:!id !id;
    incr id
  done;
  Alcotest.(check bool) "shrank on compaction" true
    (Async.Pending.capacity store < grown);
  let expect = List.init (!id - 195) (fun i -> 195 + i) in
  let seen = ref [] in
  Async.Pending.iter store (fun v -> seen := v :: !seen);
  Alcotest.(check (list int)) "order kept" expect (List.rev !seen);
  Alcotest.(check int) "select after compaction" 195 (Async.Pending.nth store 0);
  Alcotest.check_raises "out-of-order push"
    (Invalid_argument "Async.Pending.push: ids must increase") (fun () ->
      Async.Pending.push store ~id:3 3)

(* --- Engine vs reference ----------------------------------------------- *)

(* Crashes its whole budget first (victims drawn from the scheduler's
   stream), then delivers fairly. *)
let crash_first =
  {
    Async.Scheduler.name = "crash-first";
    pick =
      (fun view rng ->
        if view.Async.Scheduler.crash_budget_left > 0 then begin
          let pid = ref (Prng.Rng.int rng view.Async.Scheduler.n) in
          while view.Async.Scheduler.crashed !pid do
            pid := (!pid + 1) mod view.Async.Scheduler.n
          done;
          Async.Scheduler.Crash !pid
        end
        else Async.Scheduler.fair.Async.Scheduler.pick view rng);
  }

(* Defers to [s] but crashes one process at step 25 (victim drawn from the
   scheduler's stream), so messages already in the splitter's buckets
   leave the network without being picked. *)
let crash_at_step_25 (s : Async.Benor.msg Async.Scheduler.t) =
  {
    s with
    Async.Scheduler.pick =
      (fun view rng ->
        if
          view.Async.Scheduler.steps_taken = 25
          && view.Async.Scheduler.crash_budget_left > 0
        then Async.Scheduler.Crash (Prng.Rng.int rng view.Async.Scheduler.n)
        else s.Async.Scheduler.pick view rng);
  }

let scheduler_of_tag = function
  | 0 -> Async.Scheduler.fair
  | 1 -> Async.Scheduler.fifo
  | 2 -> Async.Scheduler.random_crash ~p:0.1
  | 3 -> crash_first
  | _ -> Async.Benor.splitter ()

(* Full outcomes (every field but the work counter) and event-stream
   digests agree. *)
let same ((a : Async.Engine.outcome), da) ((b : Async.Engine.outcome), db) =
  a.decisions = b.decisions && a.crashed = b.crashed
  && a.deliveries = b.deliveries && a.sends = b.sends
  && a.coin_flips = b.coin_flips && a.all_decided = b.all_decided
  && a.steps = b.steps && a.max_phase = b.max_phase && String.equal da db

let engine ~max_steps ~sink =
  Async.Engine.run ~max_steps ~phase_of:Async.Benor.phase ~sink

let reference ~max_steps ~sink =
  Async_reference.run ~max_steps ~phase_of:Async.Benor.phase ~sink

(* n in 3..10, t <= (n-1)/2; splitter runs at n >= 7 are capped partway. *)
let case_gen =
  QCheck.(
    make
      ~print:(fun (n, t, tag, seed, cap) ->
        Printf.sprintf "n=%d t=%d sched=%d seed=%d cap=%d" n t tag seed cap)
      Gen.(
        int_range 3 10 >>= fun n ->
        int_bound ((n - 1) / 2) >>= fun t ->
        int_bound 4 >>= fun tag ->
        int_bound 100_000 >>= fun seed ->
        oneofl [ 40; 700; 200_000 ] >>= fun cap ->
        let cap = if tag = 4 && n >= 7 then Int.min cap 1500 else cap in
        return (n, t, tag, seed, cap)))

(* Ben-Or on [run] with a recorder attached: the outcome and the digest
   of its event stream. *)
let run_case run (n, t, _, seed, cap) scheduler =
  let rng = Prng.Rng.create seed in
  let inputs = Prng.Sample.random_bits rng n in
  let recorder = Obs.Recorder.create () in
  let sink = Obs.Sink.create (Obs.Recorder.push recorder) in
  let o =
    run ~max_steps:cap ~sink (Async.Benor.protocol ~t) scheduler ~inputs ~t
      ~rng
  in
  (o, Obs.Recorder.digest recorder)

let prop_engine_vs_reference =
  QCheck.Test.make ~name:"engine = list-materialising reference" ~count:120
    case_gen (fun ((_, _, tag, _, _) as case) ->
      same
        (run_case engine case (scheduler_of_tag tag))
        (run_case reference case (scheduler_of_tag tag)))

let prop_splitter_vs_full_scan =
  QCheck.Test.make ~name:"bucketed splitter = full-scan splitter" ~count:60
    case_gen (fun (n, t, _, seed, cap) ->
      let case = (n, t, 4, seed, if n >= 7 then Int.min cap 3000 else cap) in
      same
        (run_case engine case (crash_at_step_25 (Async.Benor.splitter ())))
        (run_case engine case (crash_at_step_25 (Async_reference.splitter ()))))

let test_splitter_reused_across_runs () =
  (* One splitter instance over many trials (as E9 uses it) must reset per
     run exactly as the full-scan one does. *)
  let summary scheduler =
    Async.Engine.run_trials ~max_steps:20_000 ~phase_of:Async.Benor.phase
      ~trials:6 ~seed:5
      ~gen_inputs:(fun rng -> Prng.Sample.random_bits rng 6)
      ~t:2 (Async.Benor.protocol ~t:2) scheduler
  in
  let a = summary (Async.Benor.splitter ())
  and b = summary (Async_reference.splitter ()) in
  Alcotest.(check (float 0.0)) "mean phases"
    (Stats.Welford.mean b.Async.Engine.phases)
    (Stats.Welford.mean a.Async.Engine.phases);
  Alcotest.(check (float 0.0)) "mean flips"
    (Stats.Welford.mean b.Async.Engine.flips)
    (Stats.Welford.mean a.Async.Engine.flips)

let suites =
  [
    ( "async.pending",
      [
        to_alcotest prop_pending_model;
        Alcotest.test_case "growth and compaction" `Quick
          test_pending_boundaries;
      ] );
    ( "async.differential",
      [
        to_alcotest prop_engine_vs_reference;
        to_alcotest prop_splitter_vs_full_scan;
        Alcotest.test_case "splitter reused across runs" `Quick
          test_splitter_reused_across_runs;
      ] );
  ]
