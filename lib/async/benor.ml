type msg =
  | Report of { phase : int; v : int }
  | Proposal of { phase : int; v : int option }

type counters = { mutable zeros : int; mutable ones : int; mutable nones : int }

let fresh_counters () = { zeros = 0; ones = 0; nones = 0 }

let counters_total c = c.zeros + c.ones + c.nones

type state = {
  n : int;
  t : int;
  pid : int;
  mutable b : int;
  mutable phase : int;
  mutable step : [ `Reporting | `Proposing ];
  mutable decision : int option;
  mutable flips : int;
  reports : (int, counters) Hashtbl.t;
  proposals : (int, counters) Hashtbl.t;
}

let phase s = s.phase

let table_get tbl key =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
      let c = fresh_counters () in
      Hashtbl.replace tbl key c;
      c

(* Advance through any step whose quorum is already complete; each
   transition emits a broadcast, which may complete the next step too. *)
let rec progress s rng acc =
  match s.step with
  | `Reporting ->
      let c = table_get s.reports s.phase in
      if counters_total c >= s.n - s.t then begin
        (* Candidate: a value reported by more than half of ALL processes —
           two such candidates in one phase would intersect in an honest
           reporter, so at most one exists. *)
        let candidate =
          if 2 * c.ones > s.n then Some 1
          else if 2 * c.zeros > s.n then Some 0
          else None
        in
        s.step <- `Proposing;
        progress s rng
          (acc @ Protocol.broadcast ~n:s.n (Proposal { phase = s.phase; v = candidate }))
      end
      else acc
  | `Proposing ->
      let p = table_get s.proposals s.phase in
      if counters_total p >= s.n - s.t then begin
        (* At least t+1 backers: every other quorum of n-t proposals will
           contain one, so everyone adopts the value next phase. *)
        if p.ones >= s.t + 1 then begin
          s.b <- 1;
          if s.decision = None then s.decision <- Some 1
        end
        else if p.zeros >= s.t + 1 then begin
          s.b <- 0;
          if s.decision = None then s.decision <- Some 0
        end
        else if p.ones >= 1 then s.b <- 1
        else if p.zeros >= 1 then s.b <- 0
        else begin
          s.b <- Prng.Rng.bit rng;
          s.flips <- s.flips + 1
        end;
        s.phase <- s.phase + 1;
        s.step <- `Reporting;
        progress s rng
          (acc @ Protocol.broadcast ~n:s.n (Report { phase = s.phase; v = s.b }))
      end
      else acc

let protocol ~t =
  let init ~n ~pid ~input =
    if t < 0 || 2 * t >= n then
      invalid_arg "Benor.protocol: needs 0 <= t < n/2";
    let s =
      {
        n;
        t;
        pid;
        b = input;
        phase = 1;
        step = `Reporting;
        decision = None;
        flips = 0;
        reports = Hashtbl.create 16;
        proposals = Hashtbl.create 16;
      }
    in
    (s, Protocol.broadcast ~n (Report { phase = 1; v = input }))
  in
  let on_message s ~sender:_ m rng =
    (match m with
    | Report { phase; v } ->
        let c = table_get s.reports phase in
        if v = 1 then c.ones <- c.ones + 1 else c.zeros <- c.zeros + 1
    | Proposal { phase; v } -> (
        let c = table_get s.proposals phase in
        match v with
        | Some 1 -> c.ones <- c.ones + 1
        | Some _ -> c.zeros <- c.zeros + 1
        | None -> c.nones <- c.nones + 1));
    let sends = progress s rng [] in
    (s, sends)
  in
  {
    Protocol.name = Printf.sprintf "benor-async[t=%d]" t;
    init;
    on_message;
    decision = (fun s -> s.decision);
    coin_flips = (fun s -> s.flips);
  }

(* ------------------------------------------------------------------ *)
(* The splitter scheduler                                              *)
(* ------------------------------------------------------------------ *)

(* Score of a message (lower is better for the adversary), given the
   report values already delivered to its receiver in its phase. *)
let report_score ~half (c : counters) v =
  let same = if v = 1 then c.ones else c.zeros in
  let other = if v = 1 then c.zeros else c.ones in
  if same >= half then 3 (* would complete a candidate majority *)
  else if same <= other then 1 (* minority side: keeps the sample balanced *)
  else 2

(* The pending messages that share a score: every Proposal-None message,
   every Proposal-Some message, or the Reports of one (dst, phase, v). A
   bucket's score is a function of its key and of [delivered] only, so the
   first-lowest-score message in send order is the head of the bucket with
   the lowest (score, head id) — see DESIGN.md, "Async pending store". *)
type bucket = {
  ids : int Queue.t;  (* ascending: ids arrive in send order *)
  report : (int * int * counters) option;
      (* Reports only: (phase * n + dst, v, values delivered there). *)
  mutable entry : entry option;  (* its element of [ranked], if non-empty *)
}

and entry = { score : int; head : int; bucket : bucket }

module Ranked = Set.Make (struct
  type t = entry

  let compare a b =
    match Int.compare a.score b.score with
    | 0 -> Int.compare a.head b.head
    | c -> c
end)

let splitter () =
  let n = ref 0 in
  (* (receiver, phase) -> report values delivered so far, keyed
     [phase * n + dst]. *)
  let delivered : (int, counters) Hashtbl.t = Hashtbl.create 64 in
  (* Non-empty Report buckets keyed [2 * (phase * n + dst) + v]. *)
  let reports : (int, bucket) Hashtbl.t = Hashtbl.create 64 in
  let fresh report = { ids = Queue.create (); report; entry = None } in
  let nones = fresh None and somes = fresh None in
  let ranked = ref Ranked.empty in
  (* Every id up to [seen] has been taken into a bucket or was gone. *)
  let seen = ref (-1) in
  let score b =
    match b.report with
    | Some (_, v, c) -> report_score ~half:(!n / 2) c v
    | None -> if b == nones then 0 (* Proposal-None *) else 4 (* Proposal-Some *)
  in
  let unrank b =
    match b.entry with
    | Some e ->
        ranked := Ranked.remove e !ranked;
        b.entry <- None
    | None -> ()
  in
  (* (Re-)enter [b] into [ranked] under its current score and head; an
     emptied Report bucket also leaves [reports], so the table holds only
     buckets with messages in flight. *)
  let rank b =
    unrank b;
    match (Queue.peek_opt b.ids, b.report) with
    | Some head, _ ->
        let e = { score = score b; head; bucket = b } in
        ranked := Ranked.add e !ranked;
        b.entry <- Some e
    | None, Some (cell, v, _) -> Hashtbl.remove reports ((2 * cell) + v)
    | None, None -> ()
  in
  let bucket_of (m : msg Scheduler.in_flight) =
    match m.Scheduler.payload with
    | Proposal { v = None; _ } -> nones
    | Proposal { v = Some _; _ } -> somes
    | Report { phase; v } -> (
        let cell = (phase * !n) + m.Scheduler.dst in
        let key = (2 * cell) + v in
        match Hashtbl.find_opt reports key with
        | Some b -> b
        | None ->
            let b = fresh (Some (cell, v, table_get delivered cell)) in
            Hashtbl.replace reports key b;
            b)
  in
  let take_in (m : msg Scheduler.in_flight) =
    let b = bucket_of m in
    Queue.push m.Scheduler.id b.ids;
    if Queue.length b.ids = 1 then rank b
  in
  let pick view _rng =
    if view.Scheduler.steps_taken <= 1 then begin
      n := view.Scheduler.n;
      Hashtbl.reset delivered;
      Hashtbl.reset reports;
      List.iter
        (fun b ->
          Queue.clear b.ids;
          b.entry <- None)
        [ nones; somes ];
      ranked := Ranked.empty;
      seen := -1
    end;
    (* Take in the messages sent since the last pick: ids in (seen, newest]
       that are still in flight. *)
    let newest =
      (view.Scheduler.nth_pending (view.Scheduler.pending_count - 1))
        .Scheduler.id
    in
    for id = !seen + 1 to newest do
      Option.iter take_in (view.Scheduler.find_pending id)
    done;
    seen := Int.max !seen newest;
    (* The best head; a head that left the network some other way (a
       crash, under a wrapping scheduler) is dropped first. *)
    let rec best () =
      let e = Ranked.min_elt !ranked in
      let b = e.bucket in
      let id = Queue.pop b.ids in
      if Option.is_none (view.Scheduler.find_pending id) then begin
        rank b;
        best ()
      end
      else (id, b)
    in
    let id, b = best () in
    (match b.report with
    | Some (cell, v, c) ->
        if v = 1 then c.ones <- c.ones + 1 else c.zeros <- c.zeros + 1;
        (* Both value buckets of this (dst, phase) change score. *)
        Option.iter rank (Hashtbl.find_opt reports ((2 * cell) + 1 - v))
    | None -> ());
    rank b;
    Scheduler.Deliver id
  in
  { Scheduler.name = "splitter"; pick }
