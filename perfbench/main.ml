(* The repository benchmark's measuring half: runs one named workload and
   prints one machine-readable line, [PERFBENCH_RAW {json}], which
   perfbench/run.py checks against the expected digests and turns into the
   reported metrics. See perfbench/README.md for the workloads, the
   metrics, and what each layer counter means.

   Two modes:
   - timed (default): the workload's groups at one domain, repeated in
     passes for about [--seconds]: each replay row's trials, one
     Sim/Async/Byz.Engine.run call at a time, and the outputs with no rows
     (E1 and E2 through Core.Experiments, the large-n Sim.Runner calls
     with [`Auto]). Reports per pass its wall time, its time adjusted by
     the host speed probe (below), process-wide allocation, and one
     output digest per group.
   - traced ([--trace 1]): one untraced pass of the items (which gives the
     [table_s.*] table times), then a replay of the workload's
     rows at one domain through the single-execution entry points, once
     with plain records and once with every layer callback wrapped in a
     timer and a counter. The wrapping is record-update only: no program
     code changes, so the layers are timed from the outside.

   [--setup-only] stops at the workload's first engine call and reports
   the time since [--t0] (the caller's clock reading just before it
   started this process). [--items-only] runs the items once, as the
   traced run's untraced pass does, for recording their digests. *)

let jobs = 2

let now = Obs.Clock.now_s

(* ------------------------------------------------------------------ *)
(* Process-wide measurements                                            *)
(* ------------------------------------------------------------------ *)

(* Words allocated by the whole process: OCaml 5 folds a joined domain's
   counts into the totals [Gc.quick_stat] reports, so read it only once
   every worker domain of a fold has joined (every fold here joins its
   workers before returning). *)
let allocated_mb () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

(* Peak resident set of this process, from /proc/self/status. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

let digest s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* Layer counters, filled only by the traced replay (one domain)        *)
(* ------------------------------------------------------------------ *)

module L = struct
  let async_steps = ref 0
  let async_deliveries = ref 0
  let async_sends = ref 0
  let async_handler = ref 0.0
  let byz_phase_a = ref 0.0
  let byz_phase_b_eig = ref 0.0
  let byz_phase_b_other = ref 0.0
  let byz_act = ref 0.0
  let byz_rounds = ref 0
  let byz_span = ref 0.0
  let sim_rounds = ref 0
  let sim_kill_rounds = ref 0
  let sim_kills = ref 0
  let sim_plan_calls = ref 0
  let sim_plan = ref 0.0
  let sim_phase_a_calls = ref 0
  let sim_phase_a = ref 0.0
  let sim_span = ref 0.0
  let sim_process_rounds = ref 0
  let large_phase_a_calls = ref 0
  let large_process_rounds = ref 0
end

(* Run [f], adding its duration to [acc] whether or not it raises. *)
let clocked acc f =
  let t0 = now () in
  match f () with
  | r ->
      acc := !acc +. (now () -. t0);
      r
  | exception e ->
      acc := !acc +. (now () -. t0);
      raise e

let add r k = r := !r + k

let wrap_sim_protocol (p : ('s, 'm) Sim.Protocol.t) =
  let phase_a = p.Sim.Protocol.phase_a in
  {
    p with
    Sim.Protocol.phase_a =
      (fun s rng ->
        incr L.sim_phase_a_calls;
        clocked L.sim_phase_a (fun () -> phase_a s rng));
  }

let wrap_sim_adversary (a : ('s, 'm) Sim.Adversary.t) =
  let plan = a.Sim.Adversary.plan in
  {
    a with
    Sim.Adversary.plan =
      (fun view rng ->
        incr L.sim_plan_calls;
        let kills = clocked L.sim_plan (fun () -> plan view rng) in
        if kills <> [] then begin
          incr L.sim_kill_rounds;
          add L.sim_kills (List.length kills)
        end;
        kills);
  }

let wrap_scheduler acc (s : 'm Async.Scheduler.t) =
  let pick = s.Async.Scheduler.pick in
  {
    s with
    Async.Scheduler.pick = (fun v rng -> clocked acc (fun () -> pick v rng));
  }

let wrap_async_protocol (p : ('s, 'm) Async.Protocol.t) =
  let on_message = p.Async.Protocol.on_message in
  {
    p with
    Async.Protocol.on_message =
      (fun st ~sender m rng ->
        clocked L.async_handler (fun () -> on_message st ~sender m rng));
  }

let wrap_byz_protocol ~eig (p : ('s, 'm) Byz.Protocol.t) =
  let phase_a = p.Byz.Protocol.phase_a and phase_b = p.Byz.Protocol.phase_b in
  let b_acc = if eig then L.byz_phase_b_eig else L.byz_phase_b_other in
  {
    p with
    Byz.Protocol.phase_a =
      (fun s rng -> clocked L.byz_phase_a (fun () -> phase_a s rng));
    phase_b =
      (fun s ~round ~received ->
        clocked b_acc (fun () -> phase_b s ~round ~received));
  }

let wrap_byz_adversary (a : ('s, 'm) Byz.Adversary.t) =
  let act = a.Byz.Adversary.act in
  {
    a with
    Byz.Adversary.act = (fun v rng -> clocked L.byz_act (fun () -> act v rng));
  }

(* ------------------------------------------------------------------ *)
(* Host speed probe (timed mode only)                                   *)
(* ------------------------------------------------------------------ *)

(* On a shared host a core's speed moves by a third within seconds and
   drifts over minutes. The timed mode measures it alongside the
   workload: a slice of fixed work, a chase of 20k dependent loads through
   a random cycle over 8 MB outside the OCaml heap, taken at least every
   [probe_interval] seconds between engine calls and, through wrapped
   scheduler and adversary callbacks, inside long ones. Each call's time
   is divided by the speed the slices around it saw. The probe runs no
   program code, so a program change moves the workload's time and not
   the probe's. *)
let probe_interval = 0.05

let probe_words = 1 lsl 20

let probe_cycle =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout probe_words in
     (* A full-period LCG: i -> a.{i} visits every index once per cycle. *)
     for i = 0 to probe_words - 1 do
       a.{i} <- ((i * 1664525) + 1013904223) land (probe_words - 1)
     done;
     a)

let probing = ref false

let last_probe_at = ref neg_infinity

(* The latest slice's duration, and for the current call: the slices
   taken inside it (count and sum) and the time they took. *)
let last_slice = ref nan
let call_slices = ref 0
let call_slice_sum = ref 0.0
let call_probe_s = ref 0.0

let take_probe () =
  let a = Lazy.force probe_cycle in
  let t0 = now () in
  let j = ref 0 in
  for _ = 1 to 20_000 do
    j := a.{!j}
  done;
  ignore (Sys.opaque_identity !j);
  let t1 = now () in
  last_slice := t1 -. t0;
  last_probe_at := t1;
  incr call_slices;
  call_slice_sum := !call_slice_sum +. !last_slice;
  call_probe_s := !call_probe_s +. !last_slice

let probe_due () = !probing && now () -. !last_probe_at >= probe_interval

let probe_tick () = if probe_due () then take_probe ()

(* Time one engine call: returns its result, its time less the slices
   taken inside it, and the mean slice around it (the one before it and
   those inside it). *)
let probed_call f =
  if probe_due () || Float.is_nan !last_slice then take_probe ();
  let before = !last_slice in
  call_slices := 0;
  call_slice_sum := 0.0;
  call_probe_s := 0.0;
  let c0 = now () in
  let r = f () in
  let dt = now () -. c0 -. !call_probe_s in
  let slice = (before +. !call_slice_sum) /. float_of_int (1 + !call_slices) in
  (r, dt, slice)

let probed_scheduler (s : 'm Async.Scheduler.t) =
  let pick = s.Async.Scheduler.pick in
  { s with Async.Scheduler.pick = (fun v rng -> probe_tick (); pick v rng) }

let probed_adversary (a : ('s, 'm) Sim.Adversary.t) =
  let plan = a.Sim.Adversary.plan in
  { a with Sim.Adversary.plan = (fun v rng -> probe_tick (); plan v rng) }

(* ------------------------------------------------------------------ *)
(* Replay rows: the trials of each table row, one execution at a time   *)
(* ------------------------------------------------------------------ *)

(* A row's [pass ~traced] returns the function that runs trial [i]
   (called for i = 0, 1, ... in order: rows that draw their trial streams
   from a master generator keep it in the closure). Traced passes use the
   wrapped records, built once with the row. *)
type 'o row = { trials : int; pass : traced:bool -> int -> 'o }

type sim_row = { sim_n : int; sim : Sim.Engine.outcome row }

(* Async rows are grouped by scheduler for the per-step self time:
   splitter rows, fair rows (E9's and the n=16 run), and the rest. *)
type async_class = {
  pick : float ref;
  mutable steps : int;
  mutable span : float;
  mutable handler : float;
}

let async_class () = { pick = ref 0.0; steps = 0; span = 0.0; handler = 0.0 }

let splitter = async_class ()

let fair = async_class ()

let other = async_class ()

type async_row = { a_class : async_class; async : Async.Engine.outcome row }

type byz_row = Byz.Engine.outcome row

let pick p ~quick ~full =
  match p with Core.Experiments.Quick -> quick | Core.Experiments.Full -> full

let runner_row ?(max_rounds = 2000) ?(gen = `Random) ~n ~t ~trials ~seed
    protocol make_adversary =
  let gen_inputs =
    match gen with
    | `Random -> Sim.Runner.input_gen_random ~n
    | `Split -> Sim.Runner.input_gen_split ~n
    | `Const v -> Sim.Runner.input_gen_const ~n v
  in
  let wrapped = wrap_sim_protocol protocol in
  let pass ~traced index =
    let rng = Prng.Rng.of_seed_index ~seed ~index in
    let inputs = gen_inputs rng in
    if traced then
      Sim.Engine.run ~max_rounds wrapped
        (wrap_sim_adversary (make_adversary ()))
        ~inputs ~t ~rng
    else Sim.Engine.run ~max_rounds protocol (make_adversary ()) ~inputs ~t ~rng
  in
  { sim_n = n; sim = { trials; pass } }

let band ?(config = Core.Lb_adversary.default_config) rules () =
  Core.Lb_adversary.band_control ~config ~rules
    ~bit_of_msg:Core.Synran.bit_of_msg ()

let voting rules () = band ~config:Core.Lb_adversary.voting_config rules ()

let leader_killer () =
  Core.Lb_adversary.leader_killer ~rules:Core.Onesided.paper
    ~bit_of_msg:Core.Synran.bit_of_msg ~prio_of_msg:Core.Synran.prio_of_msg ()

let paper = Core.Onesided.paper

(* The rows of E3-E8 and E10, in the order the tables run them, with the
   same populations, budgets, round caps, input generators and per-trial
   seeding as Core.Experiments. *)
let sim_rows p ~seed =
  let synran ?rules ?coin ?max_rounds ?gen ~n ~t ~trials make =
    runner_row ?max_rounds ?gen ~n ~t ~trials ~seed
      (Core.Synran.protocol ?rules ?coin n)
      make
  in
  let e3 =
    let trials = pick p ~quick:40 ~full:200 in
    List.concat_map
      (fun n ->
        let t = n - 1 in
        [ synran ~n ~t ~trials (band paper); synran ~n ~t ~trials (voting paper) ])
      (pick p ~quick:[ 32; 64; 128 ] ~full:[ 32; 64; 128; 256; 512 ])
  in
  let e4 =
    let n = pick p ~quick:96 ~full:256 in
    let trials = pick p ~quick:40 ~full:200 in
    List.map
      (fun f -> int_of_float (f *. float_of_int n))
      [ 0.1; 0.25; 0.5; 0.75; 0.9 ]
    @ [ n - 1 ]
    |> List.concat_map (fun t ->
           [
             synran ~n ~t ~trials (band paper);
             synran ~n ~t ~trials (voting paper);
           ])
  in
  let e5 =
    let n = pick p ~quick:10 ~full:16 in
    let t = n - 2 in
    let trials = pick p ~quick:20 ~full:60 in
    let simple make = synran ~max_rounds:500 ~gen:`Split ~n ~t ~trials make in
    let small_band () =
      Core.Lb_adversary.band_control
        ~config:{ Core.Lb_adversary.default_config with min_active = 4 }
        ~rules:paper ~bit_of_msg:Core.Synran.bit_of_msg ()
    in
    let protocol = Core.Synran.protocol n in
    let wrapped = wrap_sim_protocol protocol in
    let mc =
      {
        sim_n = n;
        sim =
          {
            trials = pick p ~quick:6 ~full:20;
            pass =
              (fun ~traced index ->
                let rng = Prng.Rng.of_seed_index ~seed:(seed + 17) ~index in
                let inputs = Sim.Runner.input_gen_split ~n rng in
                let o =
                  Core.Lb_adversary.force_long_execution ~max_rounds:300
                    (if traced then wrapped else protocol)
                    ~inputs ~t ~rng
                in
                (* The valency adversary plans inside the call, where no
                   plan callback is exposed: count its kills here. *)
                if traced then add L.sim_kills o.Sim.Engine.kills_used;
                o);
          };
      }
    in
    [
      simple (fun () -> Sim.Adversary.null);
      simple (fun () -> Baselines.Adversaries.random_crash ~p:0.2);
      simple (fun () ->
          Baselines.Adversaries.static_random ~seed ~n ~budget:t ~horizon:8);
      simple (fun () -> Baselines.Adversaries.drip ~per_round:1);
      simple small_band;
      mc;
    ]
  in
  let e6 =
    let n = pick p ~quick:64 ~full:128 in
    let trials = pick p ~quick:30 ~full:120 in
    List.map
      (fun f -> Stdlib.max 1 (int_of_float (f *. float_of_int n)))
      [ 0.05; 0.1; 0.25; 0.5; 0.75 ]
    @ [ n - 1 ]
    |> List.concat_map (fun t ->
           let fs = Baselines.Floodset.protocol ~rounds:(t + 1) () in
           let fs_wrapped = wrap_sim_protocol fs in
           let drip () = Baselines.Adversaries.drip ~per_round:1 in
           let single =
             {
               sim_n = n;
               sim =
                 {
                   trials = 1;
                   pass =
                     (fun ~traced _ ->
                       let inputs = Array.init n (fun i -> i land 1) in
                       let rng = Prng.Rng.create seed in
                       if traced then
                         Sim.Engine.run fs_wrapped
                           (wrap_sim_adversary (drip ()))
                           ~inputs ~t ~rng
                       else Sim.Engine.run fs (drip ()) ~inputs ~t ~rng);
                 };
             }
           in
           [
             single;
             runner_row ~max_rounds:(t + 2) ~n ~t ~trials ~seed
               (Baselines.Early_stop.protocol ~rounds:(t + 1) ())
               (fun () ->
                 Baselines.Adversaries.drip ~per_round:(Stdlib.max 1 (t / 4)));
             synran ~n ~t ~trials (band paper);
           ])
  in
  let e7 =
    let trials = pick p ~quick:40 ~full:150 in
    List.concat_map
      (fun n ->
        let t = n - 1 in
        let static () =
          Baselines.Adversaries.static_random ~seed ~n ~budget:t ~horizon:6
        in
        let row ?coin make =
          synran ?coin ~max_rounds:3000 ~gen:`Split ~n ~t ~trials make
        in
        let leader = Core.Synran.Leader_priority in
        [
          row static;
          row (voting paper);
          row (band paper);
          row leader_killer;
          row ~coin:leader (fun () -> Sim.Adversary.null);
          row ~coin:leader static;
          row ~coin:leader leader_killer;
        ])
      (pick p ~quick:[ 64; 128 ] ~full:[ 64; 128; 256 ])
  in
  let e8 =
    let n = 48 in
    let t = n - 1 in
    let trials = pick p ~quick:60 ~full:250 in
    let massacre =
      {
        Sim.Adversary.name = "massacre-70%@r1";
        plan =
          (fun view _ ->
            if view.Sim.Adversary.round = 1 then
              Sim.Adversary.active_pids view
              |> List.filteri (fun i _ -> i < 7 * n / 10)
              |> List.map Sim.Adversary.kill_silent
            else []);
      }
    in
    List.concat_map
      (fun rules ->
        let row ?gen make = synran ~rules ~max_rounds:400 ?gen ~n ~t ~trials make in
        [
          row (fun () -> Sim.Adversary.null);
          row (voting rules);
          row
            (band
               ~config:{ Core.Lb_adversary.default_config with desperate = true }
               rules);
          row ~gen:(`Const 1) (fun () -> massacre);
        ])
      [ paper; Core.Onesided.no_zero_rule; Core.Onesided.symmetric ]
  in
  let e10 =
    let n = pick p ~quick:96 ~full:192 in
    let t = n - 1 in
    let trials = pick p ~quick:40 ~full:150 in
    List.concat_map
      (fun coin ->
        let row make = synran ~coin ~n ~t ~trials make in
        [
          row (fun () -> Sim.Adversary.null);
          row (voting paper);
          row (band paper);
          row leader_killer;
        ])
      [
        Core.Synran.Local_flip;
        Core.Synran.Leader_priority;
        Core.Synran.Shared_oracle 271828;
      ]
  in
  [
    ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7); ("e8", e8);
    ("e10", e10);
  ]

(* Trials drawn from one master stream, as the sequential async and
   Byzantine trial loops draw them. *)
let master_pass ~seed ~gen run ~traced =
  let master = Prng.Rng.create seed in
  fun _ ->
    let rng = Prng.Rng.split master in
    let inputs = gen rng in
    run ~traced ~inputs ~rng

let async_row ~a_class ~n ~t ~trials ~seed scheduler =
  let protocol = Async.Benor.protocol ~t in
  let wrapped = wrap_async_protocol protocol in
  let traced_scheduler = wrap_scheduler a_class.pick scheduler in
  let run ~traced ~inputs ~rng =
    if traced then
      Async.Engine.run ~max_steps:400_000 ~phase_of:Async.Benor.phase wrapped
        traced_scheduler ~inputs ~t ~rng
    else
      Async.Engine.run ~max_steps:400_000 ~phase_of:Async.Benor.phase protocol
        (probed_scheduler scheduler) ~inputs ~t ~rng
  in
  {
    a_class;
    async =
      {
        trials;
        pass =
          master_pass ~seed ~gen:(fun rng -> Prng.Sample.random_bits rng n) run;
      };
  }

(* E9's rows. *)
let e9_rows p ~seed =
  List.concat_map
    (fun n ->
      let t = (n - 1) / 2 in
      let row a_class scheduler trials =
        async_row ~a_class ~n ~t ~trials ~seed scheduler
      in
      [
        row fair Async.Scheduler.fair (pick p ~quick:20 ~full:40);
        row other
          (Async.Scheduler.random_crash ~p:0.02)
          (pick p ~quick:20 ~full:40);
        row splitter (Async.Benor.splitter ())
          (pick p
             ~quick:(if n >= 8 then 5 else 10)
             ~full:(if n >= 10 then 6 else 12));
      ])
    (pick p ~quick:[ 4; 6; 8 ] ~full:[ 4; 6; 8; 10 ])

(* The consensus_cli [async] path: Ben-Or under the fair scheduler at a
   population no E-table reaches. *)
let fair_n = 16

let fair_trials = 4

let fair_row ~seed =
  async_row ~a_class:fair ~n:fair_n ~t:((fair_n - 1) / 2) ~trials:fair_trials
    ~seed Async.Scheduler.fair

let byz_row ?(eig = false) ~n ~t ~trials ~seed protocol adversary =
  let wrapped = wrap_byz_protocol ~eig protocol in
  let traced_adversary = wrap_byz_adversary adversary in
  let run ~traced ~inputs ~rng =
    if traced then
      Byz.Engine.run ~max_rounds:500 wrapped traced_adversary ~inputs ~t ~rng
    else Byz.Engine.run ~max_rounds:500 protocol adversary ~inputs ~t ~rng
  in
  {
    trials;
    pass = master_pass ~seed ~gen:(fun rng -> Prng.Sample.random_bits rng n) run;
  }

let e11_rows p ~seed =
  let n = pick p ~quick:17 ~full:26 in
  let t = (n - 1) / 5 in
  let trials = pick p ~quick:60 ~full:200 in
  let row ?eig ~t protocol adversary =
    byz_row ?eig ~n ~t ~trials ~seed protocol adversary
  in
  let pk = Byz.Phase_king.protocol ~t in
  let eig_t = Stdlib.min 2 (Stdlib.min t ((n - 1) / 3)) in
  let eig = Byz.Eig.protocol ~t:eig_t in
  let rb = Byz.Rabin.protocol ~t ~oracle_seed:(seed + 5) in
  let equivocator () = Byz.Adversary.equivocator ~budget_fraction:1.0 () in
  [
    row ~t pk Byz.Adversary.null;
    row ~t pk (equivocator ());
    row ~t pk (Byz.Phase_king.king_spoofer ());
    row ~t:(t + 1) pk (Byz.Phase_king.king_spoofer ());
    row ~eig:true ~t:eig_t eig (Byz.Eig.liar ());
    row ~eig:true ~t:eig_t eig (equivocator ());
    row ~t rb Byz.Adversary.null;
    row ~t rb (equivocator ());
    row ~t rb (Byz.Adversary.equivocator ~corrupt_at:2 ~budget_fraction:1.0 ());
  ]

let e12_rows p ~seed =
  let n = pick p ~quick:61 ~full:101 in
  let t = (n - 1) / 5 in
  let trials = pick p ~quick:50 ~full:150 in
  List.concat_map
    (fun g ->
      let protocol = Byz.Chor_coan.protocol ~t ~group_size:g in
      let victims =
        Prng.Sample.choose_k (Prng.Rng.create (seed + 7)) n t
        |> Array.to_list
        |> List.map (fun pid -> (1, pid))
      in
      [
        byz_row ~n ~t ~trials ~seed protocol
          (Byz.Chor_coan.group_corruptor ~group_size:g ());
        byz_row ~n ~t ~trials ~seed protocol (Byz.Adversary.crash_like ~victims);
      ])
    [ 1; 2; 4; Stdlib.max 1 (int_of_float (log (float_of_int n) /. log 2.0)) ]

(* ------------------------------------------------------------------ *)
(* Large-n: the [`Auto] engine path above the 4096 crossover            *)
(* ------------------------------------------------------------------ *)

let large_n = 65536

type large = {
  l_id : string;
  l_trials : int;
  l_run : jobs:int -> traced:bool -> Sim.Runner.report;
}

let large_row ~id ~max_rounds ~t ~trials ~seed protocol make_adversary =
  let wrapped = wrap_sim_protocol protocol in
  let run ~jobs ~traced =
    let gen_inputs = Sim.Runner.input_gen_random ~n:large_n in
    if traced then
      Sim.Runner.run_trials_supervised ~max_rounds ~jobs ~engine:`Auto ~trials
        ~seed ~gen_inputs ~t wrapped (fun () ->
          wrap_sim_adversary (make_adversary ()))
    else
      Sim.Runner.run_trials_supervised ~max_rounds ~jobs ~engine:`Auto ~trials
        ~seed ~gen_inputs ~t protocol (fun () ->
          probed_adversary (make_adversary ()))
  in
  { l_id = id; l_trials = trials; l_run = run }

let large_rows ~seed =
  [
    large_row ~id:"synran-band" ~max_rounds:2000 ~t:(large_n - 1) ~trials:2 ~seed
      (Core.Synran.protocol large_n) (band paper);
    large_row ~id:"floodset-null" ~max_rounds:65 ~t:63 ~trials:8 ~seed
      (Baselines.Floodset.protocol ~rounds:64 ())
      (fun () -> Sim.Adversary.null);
  ]

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

(* One output of the traced run's untraced pass (a table, a summary);
   [run] returns the text whose digest is checked, or an error. *)
type item = { id : string; i_trials : int; run : unit -> (string, string) result }

(* One output of the timed pass: a replay row, timed one trial call at a
   time in trial order, or an item with no rows, timed as one call.
   [start ()] returns the calls of a fresh pass; call [i] returns the
   text its output adds to the group's digest. *)
type group = {
  g_id : string;
  g_calls : int;
  g_trials : int;
  start : unit -> int -> string;
}

type workload = {
  items : item list;
  groups : group list;
  sims : sim_row list;
  asyncs : async_row list;
  byzs : byz_row list;
  larges : large list;
}

let engine_used = ref []

let exp_item ctx profile ~jobs ~seed ~trials id =
  let table_fn =
    match Core.Experiments.by_id id with
    | Some d -> d
    | None -> invalid_arg ("unknown experiment " ^ id)
  in
  let run () =
    let r =
      Core.Supervise.run_experiment ctx ~id (fun () ->
          table_fn ~jobs ~sup:ctx profile ~seed)
    in
    match (r.Core.Supervise.status, r.Core.Supervise.table) with
    | Core.Supervise.Completed, Some table -> Ok (Stats.Table.render table)
    | Core.Supervise.Completed, None -> Error "no table"
    | Core.Supervise.Failed { message; _ }, _ -> Error message
    | Core.Supervise.Timed_out, _ -> Error "timed out"
  in
  { id; i_trials = trials; run }

let row_trials rows = List.fold_left (fun acc r -> acc + r.trials) 0 rows

let decisions_text ds =
  String.concat ","
    (Array.to_list
       (Array.map (function Some v -> string_of_int v | None -> "-") ds))

let async_text (o : Async.Engine.outcome) =
  Printf.sprintf "%d %d %d %d %d %b %s|" o.Async.Engine.steps
    o.Async.Engine.deliveries o.Async.Engine.sends o.Async.Engine.coin_flips
    (Option.value o.Async.Engine.max_phase ~default:(-1))
    o.Async.Engine.all_decided
    (decisions_text o.Async.Engine.decisions)

let sim_text (o : Sim.Engine.outcome) =
  Printf.sprintf "%d %d %d %b %s|" o.Sim.Engine.rounds_executed
    (Option.value o.Sim.Engine.rounds_to_decide ~default:(-1))
    o.Sim.Engine.kills_used o.Sim.Engine.quiescent
    (decisions_text o.Sim.Engine.decisions)

let byz_text (o : Byz.Engine.outcome) =
  Printf.sprintf "%d %d %d %b %s|" o.Byz.Engine.rounds_executed
    (Option.value o.Byz.Engine.rounds_to_decide ~default:(-1))
    o.Byz.Engine.corruptions_used o.Byz.Engine.quiescent
    (decisions_text o.Byz.Engine.decisions)

let fair_id = Printf.sprintf "fair-n%d" fair_n

let fair_item (row : async_row) =
  let run () =
    let f = row.async.pass ~traced:false in
    let b = Buffer.create 256 in
    for i = 0 to row.async.trials - 1 do
      Buffer.add_string b (async_text (f i))
    done;
    Ok (Buffer.contents b)
  in
  { id = fair_id; i_trials = row.async.trials; run }

let summary_text (s : Sim.Runner.summary) =
  Printf.sprintf
    "trials=%d rounds=%h/%h/%h/%h kills=%h zero=%d one=%d nonterm=%d \
     safety=%d"
    s.Sim.Runner.trials
    (Stats.Welford.mean s.Sim.Runner.rounds)
    (Stats.Welford.variance s.Sim.Runner.rounds)
    (Stats.Welford.min s.Sim.Runner.rounds)
    (Stats.Welford.max s.Sim.Runner.rounds)
    (Stats.Welford.mean s.Sim.Runner.kills)
    s.Sim.Runner.decided_zero s.Sim.Runner.decided_one
    s.Sim.Runner.non_terminating
    (List.length s.Sim.Runner.safety_errors)

let large_item ~jobs (l : large) =
  let run () =
    let r = l.l_run ~jobs ~traced:false in
    engine_used :=
      (l.l_id, r.Sim.Runner.engine_used) :: List.remove_assoc l.l_id !engine_used;
    match (r.Sim.Runner.failures, r.Sim.Runner.partial) with
    | [], Some s -> Ok (summary_text s)
    | f :: _, _ -> Error (Sim.Parallel.pp_chunk_failed f)
    | [], None -> Error "no trials completed"
  in
  { id = l.l_id; i_trials = l.l_trials; run }

let row_group ?(limit = max_int) id text (r : _ row) =
  let calls = Stdlib.min limit r.trials in
  {
    g_id = id;
    g_calls = calls;
    g_trials = calls;
    start =
      (fun () ->
        let f = r.pass ~traced:false in
        fun i -> text (f i));
  }

let item_group (it : item) =
  {
    g_id = it.id;
    g_calls = 1;
    g_trials = it.i_trials;
    start =
      (fun () _ -> match it.run () with Ok s -> s | Error e -> failwith e);
  }

(* The timed pass runs only the first trial of E9's splitter row at n=8
   ([e9.r8]): its 5 trials take 8 s at one domain, too long to repeat the
   pass often in a run. E9 always runs at seed 42, so this trial is the
   same in every run. *)
let splitter_timed_trials = 1

(* Row ids: the table id and the row's place in it. *)
let numbered table rows = List.mapi (fun k r -> (Printf.sprintf "%s.r%d" table k, r)) rows

(* E1 runs one Coinflip.Control estimate of [trials] samples per row; E2
   evaluates each row exactly. Neither has engine trials to replay. *)
let e1_trials p =
  let per_n = (4 * 3) + 1 in
  (List.length (pick p ~quick:[ 64; 256 ] ~full:[ 64; 256; 1024 ]) * per_n + 4)
  * pick p ~quick:150 ~full:600

let e2_trials p =
  4 * List.length (pick p ~quick:[ 64; 1024 ] ~full:[ 64; 256; 1024; 4096; 16384 ])

(* The traced run's untraced pass calls the items at [jobs] domains; the
   timed pass calls everything at one domain (see the timed mode below). *)
let workload name ~seed ~fair_seed =
  let ctx = Core.Supervise.create () in
  let open Core.Experiments in
  match name with
  | "async-benor" ->
      let e9 = e9_rows Quick ~seed in
      let fair = fair_row ~seed:fair_seed in
      Some
        {
          items =
            [
              exp_item ctx Quick ~jobs ~seed
                ~trials:(row_trials (List.map (fun r -> r.async) e9))
                "e9";
              fair_item fair;
            ];
          groups =
            List.map
              (fun (id, r) ->
                let limit =
                  if id = "e9.r8" then splitter_timed_trials else max_int
                in
                row_group ~limit id async_text r.async)
              (numbered "e9" e9 @ [ (fair_id, fair) ]);
          sims = [];
          asyncs = e9 @ [ fair ];
          byzs = [];
          larges = [];
        }
  | "byz" ->
      let e11 = e11_rows Quick ~seed and e12 = e12_rows Quick ~seed in
      Some
        {
          items =
            [
              exp_item ctx Quick ~jobs ~seed ~trials:(row_trials e11) "e11";
              exp_item ctx Quick ~jobs ~seed ~trials:(row_trials e12) "e12";
            ];
          groups =
            List.map
              (fun (id, r) -> row_group id byz_text r)
              (numbered "e11" e11 @ numbered "e12" e12);
          sims = [];
          asyncs = [];
          byzs = e11 @ e12;
          larges = [];
        }
  | "sync-tables" ->
      let rows = sim_rows Quick ~seed in
      let trials id = row_trials (List.map (fun r -> r.sim) (List.assoc id rows)) in
      let e1 jobs = exp_item ctx Quick ~jobs ~seed ~trials:(e1_trials Quick) "e1" in
      let e2 jobs = exp_item ctx Full ~jobs ~seed ~trials:(e2_trials Full) "e2" in
      Some
        {
          items =
            e1 jobs :: e2 jobs
            :: List.map
                 (fun (id, _) -> exp_item ctx Quick ~jobs ~seed ~trials:(trials id) id)
                 rows;
          groups =
            item_group (e1 1) :: item_group (e2 1)
            :: List.concat_map
                 (fun (table, rs) ->
                   List.map
                     (fun (id, r) -> row_group id sim_text r.sim)
                     (numbered table rs))
                 rows;
          sims = List.concat_map snd rows;
          asyncs = [];
          byzs = [];
          larges = [];
        }
  | "large-n" ->
      let larges = large_rows ~seed in
      Some
        {
          items = List.map (large_item ~jobs) larges;
          groups = List.map (fun l -> item_group (large_item ~jobs:1 l)) larges;
          sims = [];
          asyncs = [];
          byzs = [];
          larges;
        }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Passes                                                               *)
(* ------------------------------------------------------------------ *)

type item_result = {
  r_id : string;
  r_trials : int;
  r_digest : string option;
  r_error : string option;
  r_s : float;
  r_alloc_mb : float;
}

let run_item it =
  let a0 = allocated_mb () and t0 = now () in
  let res = try it.run () with e -> Error (Printexc.to_string e) in
  let s = now () -. t0 and alloc = allocated_mb () -. a0 in
  let r_digest, r_error =
    match res with Ok text -> (Some (digest text), None) | Error e -> (None, Some e)
  in
  {
    r_id = it.id;
    r_trials = it.i_trials;
    r_digest;
    r_error;
    r_s = s;
    r_alloc_mb = alloc;
  }

(* The slice time the adjusted times are scaled to: about what a slice
   takes on an unloaded core of the 2-core host the benchmark was tuned
   on, so that adjusted times read close to wall times there. *)
let reference_slice_s = 3.3e-3

(* One timed pass: every group's calls in order. Returns each group's
   result and its adjusted time: the sum over its calls of the call's time
   divided by the probe slice around it, times [reference_slice_s]. A
   group that raises gets an error and no digest. *)
let timed_pass groups =
  List.map
    (fun g ->
      let b = Buffer.create 4096 in
      let a0 = allocated_mb () and t0 = now () in
      let adjusted = ref 0.0 in
      let error =
        match
          let call = g.start () in
          for i = 0 to g.g_calls - 1 do
            let text, dt, slice = probed_call (fun () -> call i) in
            adjusted := !adjusted +. (dt /. slice *. reference_slice_s);
            Buffer.add_string b text
          done
        with
        | () -> None
        | exception e -> Some (Printexc.to_string e)
      in
      ( {
          r_id = g.g_id;
          r_trials = g.g_trials;
          r_digest =
            (if error = None then Some (digest (Buffer.contents b)) else None);
          r_error = error;
          r_s = now () -. t0;
          r_alloc_mb = allocated_mb () -. a0;
        },
        !adjusted ))
    groups

(* Run every trial of a row; returns the failed-trial count. [on] sees
   each completed trial's outcome and its duration. *)
let replay_row ~traced r on =
  let f = r.pass ~traced in
  let failed = ref 0 in
  for i = 0 to r.trials - 1 do
    let t0 = now () in
    match f i with o -> on o (now () -. t0) | exception _ -> incr failed
  done;
  !failed

let replay_trials w =
  row_trials (List.map (fun r -> r.sim) w.sims)
  + row_trials (List.map (fun r -> r.async) w.asyncs)
  + row_trials w.byzs
  + List.fold_left (fun acc l -> acc + l.l_trials) 0 w.larges

let replay ~traced w =
  let failed = ref 0 in
  List.iter
    (fun r ->
      failed :=
        !failed
        + replay_row ~traced r.sim (fun o dt ->
              if traced then begin
                add L.sim_rounds o.Sim.Engine.rounds_executed;
                add L.sim_process_rounds (r.sim_n * o.Sim.Engine.rounds_executed);
                L.sim_span := !L.sim_span +. dt
              end))
    w.sims;
  List.iter
    (fun r ->
      let c = r.a_class and handler0 = !L.async_handler in
      failed :=
        !failed
        + replay_row ~traced r.async (fun o dt ->
              if traced then begin
                add L.async_steps o.Async.Engine.steps;
                add L.async_deliveries o.Async.Engine.deliveries;
                add L.async_sends o.Async.Engine.sends;
                c.steps <- c.steps + o.Async.Engine.steps;
                c.span <- c.span +. dt
              end);
      c.handler <- c.handler +. (!L.async_handler -. handler0))
    w.asyncs;
  List.iter
    (fun r ->
      failed :=
        !failed
        + replay_row ~traced r (fun o dt ->
              if traced then begin
                add L.byz_rounds o.Byz.Engine.rounds_executed;
                L.byz_span := !L.byz_span +. dt
              end))
    w.byzs;
  List.iter
    (fun l ->
      let plans0 = !L.sim_plan_calls and phase_a0 = !L.sim_phase_a_calls in
      let t0 = now () in
      let r = l.l_run ~jobs:1 ~traced in
      let dt = now () -. t0 in
      failed := !failed + (l.l_trials - r.Sim.Runner.completed_trials);
      if traced then begin
        let rounds = !L.sim_plan_calls - plans0 in
        add L.sim_rounds rounds;
        add L.sim_process_rounds (large_n * rounds);
        add L.large_process_rounds (large_n * rounds);
        add L.large_phase_a_calls (!L.sim_phase_a_calls - phase_a0);
        L.sim_span := !L.sim_span +. dt
      end)
    w.larges;
  !failed

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let jfloat = Obs.Json.float_str

let jstr s = "\"" ^ Obs.Json.escape s ^ "\""

let jopt = function None -> "null" | Some s -> jstr s

let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"

let jlist xs = "[" ^ String.concat "," xs ^ "]"

let item_fields r =
  [
    ("id", jstr r.r_id);
    ("trials", string_of_int r.r_trials);
    ("digest", jopt r.r_digest);
    ("error", jopt r.r_error);
    ("seconds", jfloat r.r_s);
    ("alloc_mb", jfloat r.r_alloc_mb);
  ]

let item_json r = jobj (item_fields r)

let engine_json () = jobj (List.rev_map (fun (k, v) -> (k, jstr v)) !engine_used)

let div a b = if b = 0.0 then 0.0 else a /. b

(* Every layer metric of the traced run: the per-layer ones, which read 0
   on a workload that does not run their layer, then three totals that
   every workload has (item time, engine self time, callback time). *)
let layer_metrics ~tables ~overhead =
  let f x = jfloat x and i x = string_of_int x in
  let table_ids =
    [ "e1"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "e10"; "e11"; "e12" ]
  in
  let async_self c = c.span -. !(c.pick) -. c.handler in
  let per_step c = div (async_self c *. 1e6) (float_of_int c.steps) in
  let byz_callbacks =
    !L.byz_phase_a +. !L.byz_phase_b_eig +. !L.byz_phase_b_other +. !L.byz_act
  in
  let byz_self = !L.byz_span -. byz_callbacks in
  let sim_self = !L.sim_span -. !L.sim_plan -. !L.sim_phase_a in
  let callbacks =
    byz_callbacks +. !L.sim_plan +. !L.sim_phase_a +. !L.async_handler
    +. !(splitter.pick) +. !(fair.pick) +. !(other.pick)
  in
  let engine_self =
    List.fold_left
      (fun acc c -> acc +. async_self c)
      (sim_self +. byz_self) [ splitter; fair; other ]
  in
  List.map
    (fun id ->
      ("table_s." ^ id, f (Option.value (List.assoc_opt id tables) ~default:0.0)))
    table_ids
  @ [
      ("async.steps", i !L.async_steps);
      ("async.deliveries", i !L.async_deliveries);
      ("async.sends", i !L.async_sends);
      ("async.self_us_per_step.splitter", f (per_step splitter));
      ("async.self_us_per_step.fair", f (per_step fair));
      ("async.pick_s.splitter", f !(splitter.pick));
      ("async.pick_s.fair", f !(fair.pick));
      ("async.handler_s", f !L.async_handler);
      ("byz.phase_b_s.eig", f !L.byz_phase_b_eig);
      ("byz.phase_b_s.other", f !L.byz_phase_b_other);
      ("byz.phase_a_s", f !L.byz_phase_a);
      ("byz.rounds", i !L.byz_rounds);
      ("byz.self_s", f byz_self);
      ("byz.act_s", f !L.byz_act);
      ("sim.rounds", i !L.sim_rounds);
      ("sim.kill_rounds", i !L.sim_kill_rounds);
      ("sim.kills", i !L.sim_kills);
      ("sim.self_s", f sim_self);
      ( "sim.self_ns_per_process_round",
        f (div (sim_self *. 1e9) (float_of_int !L.sim_process_rounds)) );
      ("sim.plan_calls", i !L.sim_plan_calls);
      ("sim.plan_s", f !L.sim_plan);
      ("sim.phase_a_calls", i !L.sim_phase_a_calls);
      ("sim.phase_a_s", f !L.sim_phase_a);
      ( "bitkernel.scalar_phase_a_share",
        f
          (div
             (float_of_int !L.large_phase_a_calls)
             (float_of_int !L.large_process_rounds)) );
      ("trace.overhead_s", f overhead);
      ("items_s", f (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 tables));
      ("engine.self_s", f engine_self);
      ("callbacks_s", f callbacks);
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N [--fair-seed N] --seconds S \
     [--min-passes N] [--trace 0|1] [--setup-only] [--items-only] \
     [--t0 EPOCH_SECONDS]";
  exit 2

let () =
  let name = ref "" and seed = ref 42 and fair_seed = ref None in
  let seconds = ref 10.0 in
  let trace = ref false and setup_only = ref false and t0 = ref nan in
  let min_passes = ref 4 and items_only = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> name := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--fair-seed" :: v :: rest -> fair_seed := Some (int_of_string v); parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | "--setup-only" :: rest -> setup_only := true; parse rest
    | "--items-only" :: rest -> items_only := true; parse rest
    | "--min-passes" :: v :: rest -> min_passes := int_of_string v; parse rest
    | "--t0" :: v :: rest -> t0 := float_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let fair_seed = Option.value !fair_seed ~default:!seed in
  let w =
    match workload !name ~seed:!seed ~fair_seed with Some w -> w | None -> usage ()
  in
  (* The workload's first engine call follows. *)
  let setup_s = now () -. !t0 in
  let common =
    [
      ("workload", jstr !name);
      ("seed", string_of_int !seed);
      ("fair_seed", string_of_int fair_seed);
      ("jobs", string_of_int jobs);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", jstr Sys.ocaml_version);
      ("setup_s", jfloat setup_s);
    ]
  in
  let emit fields = print_endline ("PERFBENCH_RAW " ^ jobj (common @ fields)) in
  if !setup_only then emit []
  else if !items_only then
    emit
      [
        ("items", jlist (List.map item_json (List.map run_item w.items)));
        ("engine_used", engine_json ());
      ]
  else if not !trace then begin
    (* Repeat the pass at least [--min-passes] times, and then while under
       [--seconds], but start no pass that would likely end past
       1.5 x [--seconds]. run.py reports the median pass after the first,
       which pays for growing the heap. *)
    probing := true;
    let start = now () and last = ref 0.0 and passes = ref [] in
    let more () =
      let elapsed = now () -. start in
      List.length !passes < !min_passes
      || (elapsed < !seconds && elapsed +. !last <= 1.5 *. !seconds)
    in
    while more () do
      (* run.py moves this process to another core at each pass. *)
      Printf.printf "PERFBENCH_PASS %d\n%!" (List.length !passes);
      let a0 = allocated_mb () and r0 = now () in
      let results = timed_pass w.groups in
      let wall = now () -. r0 and alloc = allocated_mb () -. a0 in
      last := wall;
      let item (r, adjusted) =
        jobj (item_fields r @ [ ("adjusted_s", jfloat adjusted) ])
      in
      passes :=
        jobj
          [
            ("wall_s", jfloat wall);
            ( "adjusted_s",
              jfloat (List.fold_left (fun acc (_, a) -> acc +. a) 0.0 results) );
            ("alloc_mb", jfloat alloc);
            ("items", jlist (List.map item results));
          ]
        :: !passes
    done;
    emit
      [
        ("reps", jlist (List.rev !passes));
        ("peak_rss_mb", jfloat (peak_rss_mb ()));
        ("engine_used", engine_json ());
      ]
  end
  else begin
    let results = List.map run_item w.items in
    let tables = List.map (fun r -> (r.r_id, r.r_s)) results in
    let u0 = now () in
    let failed_plain = replay ~traced:false w in
    let untraced = now () -. u0 in
    let t1 = now () in
    let failed_traced = replay ~traced:true w in
    let traced = now () -. t1 in
    emit
      [
        ("items", jlist (List.map item_json results));
        ("replay_trials", string_of_int (replay_trials w));
        ("replay_failed", string_of_int (failed_plain + failed_traced));
        ("replay_untraced_s", jfloat untraced);
        ("replay_traced_s", jfloat traced);
        ("engine_used", engine_json ());
        ("layers", jobj (layer_metrics ~tables ~overhead:(traced -. untraced)));
      ]
  end
