type 'msg in_flight = { id : int; src : int; dst : int; payload : 'msg }

type 'msg view = {
  n : int;
  t : int;
  crash_budget_left : int;
  steps_taken : int;
  crashed : int -> bool;
  decided : int -> int option;
  pending_count : int;
  nth_pending : int -> 'msg in_flight;
  find_pending : int -> 'msg in_flight option;
  iter_pending : ('msg in_flight -> unit) -> unit;
}

type action = Deliver of int | Crash of int

type 'msg t = { name : string; pick : 'msg view -> Prng.Rng.t -> action }

let deliver_uniform view rng =
  Deliver (view.nth_pending (Prng.Rng.int rng view.pending_count)).id

let fair = { name = "fair"; pick = deliver_uniform }

let fifo =
  { name = "fifo"; pick = (fun view _rng -> Deliver (view.nth_pending 0).id) }

let random_crash ~p =
  if p < 0.0 || p > 1.0 then invalid_arg "Scheduler.random_crash";
  {
    name = Printf.sprintf "random-crash[p=%.3f]" p;
    pick =
      (fun view rng ->
        let live = ref 0 in
        if view.crash_budget_left > 0 then
          for i = 0 to view.n - 1 do
            if not (view.crashed i) then incr live
          done;
        if !live > 0 && Prng.Rng.bernoulli rng p then begin
          (* The k-th live pid, ascending. *)
          let k = ref (Prng.Rng.int rng !live) and pid = ref (-1) in
          while !k >= 0 do
            incr pid;
            if not (view.crashed !pid) then decr k
          done;
          Crash !pid
        end
        else deliver_uniform view rng);
  }
