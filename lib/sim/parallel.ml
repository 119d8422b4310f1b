let default_jobs () = Domain.recommended_domain_count ()

let default_chunk_size = 8

exception Cancelled

type chunk_failed = {
  chunk : int;
  trial : int;
  attempt : int;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

type 'acc supervised = {
  value : 'acc option;
  chunks_done : int;
  chunks_total : int;
  chunks_resumed : int;
  retried : chunk_failed list;
  failures : chunk_failed list;
  cancelled : bool;
}

let pp_chunk_failed f =
  if f.attempt = 0 then
    Printf.sprintf "chunk %d, trial %d: %s" f.chunk f.trial
      (Printexc.to_string f.exn)
  else
    Printf.sprintf "chunk %d, trial %d (attempt %d): %s" f.chunk f.trial
      f.attempt
      (Printexc.to_string f.exn)

(* Claim chunks from a shared counter until exhausted or poisoned.
   Worker 0 is the calling domain, so [jobs = 1] never spawns.  [stop] is
   the poison flag: it is raised by the first failing chunk and by the
   cooperative [cancel] hook; workers re-check it before claiming, so an
   in-flight chunk always drains to completion but no new chunk starts
   after poisoning. *)
let run_workers ~jobs ~nchunks ~cancel ~run_chunk =
  let next = Atomic.make 0 in
  let stop = Atomic.make false in
  let cancelled = Atomic.make false in
  let worker () =
    let rec loop () =
      if not (Atomic.get stop) then
        if cancel () then begin
          Atomic.set cancelled true;
          Atomic.set stop true
        end
        else begin
          let c = Atomic.fetch_and_add next 1 in
          if c < nchunks then begin
            if not (run_chunk c) then Atomic.set stop true;
            loop ()
          end
        end
    in
    loop ()
  in
  if jobs <= 1 then worker ()
  else begin
    let spawned = Stdlib.min (jobs - 1) (Stdlib.max 0 (nchunks - 1)) in
    let domains = Array.init spawned (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains
  end;
  Atomic.get cancelled

let fold_chunks_supervised ?jobs ?(chunk_size = default_chunk_size)
    ?(cancel = fun () -> false) ?(retries = 0) ?fault ?saved ?persist ~n
    ~create ~work ~merge () =
  if n < 0 then invalid_arg "Parallel.fold_chunks: negative n";
  if chunk_size < 1 then invalid_arg "Parallel.fold_chunks: chunk_size";
  if retries < 0 then invalid_arg "Parallel.fold_chunks: retries";
  let jobs =
    match jobs with Some j when j >= 1 -> j | Some _ | None -> default_jobs ()
  in
  if n = 0 then
    {
      value = Some (create ());
      chunks_done = 0;
      chunks_total = 0;
      chunks_resumed = 0;
      retried = [];
      failures = [];
      cancelled = false;
    }
  else begin
    let nchunks = (n + chunk_size - 1) / chunk_size in
    let partials = Array.make nchunks None in
    (* One failure slot per chunk, each written by exactly the worker that
       ran that chunk and published by [Domain.join]: no CAS race, so no
       failure is ever dropped, and each carries its backtrace. *)
    let failed = Array.make nchunks None in
    (* Non-terminal failures (attempts that were retried), newest first;
       same single-writer-per-slot discipline as [failed]. *)
    let retried_rev = Array.make nchunks [] in
    let resumed = Array.make nchunks false in
    let run_chunk c =
      let lo = c * chunk_size in
      let hi = Stdlib.min n (lo + chunk_size) - 1 in
      (* Attempts share the chunk's fault-injector hit counters (they are
         never reset), so an armed fault fires exactly once and the
         retried pass runs clean — and, because each trial's RNG is a
         pure function of (seed, index), byte-identical to what the
         failed attempt would have produced. The [saved] hook is
         re-consulted on every attempt: a failed [persist] may have left
         a durable (or torn — then quarantined by {!Checkpoint.load})
         file behind. *)
      let rec attempt k =
        let i = ref lo in
        try
          match match saved with Some f -> f c | None -> None with
          | Some acc ->
              partials.(c) <- Some acc;
              resumed.(c) <- true;
              true
          | None ->
              let acc = create () in
              while !i <= hi do
                Fault.trip fault Fault.Chunk_body ~scope:c;
                work !i acc;
                incr i
              done;
              (match persist with Some p -> p c acc | None -> ());
              (* Published only once the chunk is durable: a chunk whose
                 [persist] raised is a failed chunk and contributes
                 nothing. Distinct slots per chunk; Domain.join publishes
                 them to the merging domain. *)
              partials.(c) <- Some acc;
              true
        with exn ->
          let backtrace = Printexc.get_raw_backtrace () in
          (* [trial = hi + 1] means the chunk's work all succeeded and
             [persist] itself raised; [trial = lo] with a raising [saved]
             hook means the consult raised before any work ran. *)
          let f = { chunk = c; trial = !i; attempt = k; exn; backtrace } in
          if k < retries then begin
            retried_rev.(c) <- f :: retried_rev.(c);
            attempt (k + 1)
          end
          else begin
            failed.(c) <- Some f;
            false
          end
      in
      attempt 0
    in
    let was_cancelled = run_workers ~jobs ~nchunks ~cancel ~run_chunk in
    (* Merge in chunk order: chunking and merge order depend only on [n]
       and [chunk_size], never on [jobs], so any worker count produces the
       same result bit for bit (even for non-associative float folds).
       Missing chunks (failed, or never started after poisoning) are
       skipped; the merge order of the survivors is still the chunk
       order. *)
    let acc = ref None in
    let chunks_done = ref 0 in
    let chunks_resumed = ref 0 in
    Array.iteri
      (fun c p ->
        match p with
        | None -> ()
        | Some p ->
            incr chunks_done;
            if resumed.(c) then incr chunks_resumed;
            acc :=
              Some (match !acc with Some a -> merge a p | None -> p))
      partials;
    let failures =
      Array.fold_left
        (fun fs -> function None -> fs | Some f -> f :: fs)
        [] failed
      |> List.rev
    in
    (* Chunk order, then attempt order within a chunk: deterministic for
       plan-injected faults at any [jobs]. *)
    let retried = Array.to_list retried_rev |> List.concat_map List.rev in
    {
      value = !acc;
      chunks_done = !chunks_done;
      chunks_total = nchunks;
      chunks_resumed = !chunks_resumed;
      retried;
      failures;
      cancelled = was_cancelled;
    }
  end

let fold_chunks ?jobs ?chunk_size ~n ~create ~work ~merge () =
  let s = fold_chunks_supervised ?jobs ?chunk_size ~n ~create ~work ~merge () in
  match s.failures with
  | f :: _ ->
      (* All-or-nothing path: re-raise the first failure in chunk
         order with its original backtrace. *)
      Printexc.raise_with_backtrace f.exn f.backtrace
  | [] -> (
      match s.value with
      | Some a -> a
      | None ->
          (* No failure and no value: only possible under a cancel hook,
             which the all-or-nothing entry point does not take. *)
          assert false)

let map ?jobs ?chunk_size ~n f =
  if n < 0 then invalid_arg "Parallel.map: negative n";
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    ignore
      (fold_chunks ?jobs ?chunk_size ~n
         ~create:(fun () -> ())
         ~work:(fun i () -> results.(i) <- Some (f i))
         ~merge:(fun () () -> ())
         ());
    Array.map (function Some v -> v | None -> assert false) results
  end
