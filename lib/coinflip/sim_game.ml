module Int_map = Map.Make (Int)

type state = { n : int; value : int; outcome : int option }

let outcome s = s.outcome

let value s = s.value

let check_n ~expect ~got name =
  if expect <> got then
    invalid_arg (Printf.sprintf "Sim_game.%s: built for n=%d, ran with n=%d" name expect got)

let init_state ~game_name n = fun ~n:n' ~pid:_ ~input:_ ->
  check_n ~expect:n ~got:n' game_name;
  { n; value = 0; outcome = None }

let phase_a_of_sample sample = fun s rng ->
  let v = sample rng in
  ({ s with value = v }, v)

let make ?(sample = Prng.Rng.bit) ~name n aggregate =
  {
    Sim.Protocol.name;
    init = init_state ~game_name:name n;
    phase_a = phase_a_of_sample sample;
    decision = outcome;
    halted = (fun s -> Option.is_some s.outcome);
    aggregate;
    bitops = None;
  }

let of_eval ?sample ~name ~eval n =
  if n < 1 then invalid_arg "Sim_game.of_eval";
  (* Generic bridge: an arbitrary [eval] is not a fold, so collect the
     delivered values in a pid-keyed persistent map (the same map whatever
     the absorb order), then rebuild the game's masked value vector
     (hidden/killed players are [None]) and apply [eval]. *)
  let finish s ~round:_ heard =
    let masked = Array.make s.n None in
    Int_map.iter (fun pid v -> masked.(pid) <- Some v) heard;
    { s with outcome = Some (eval masked) }
  in
  make ?sample ~name n
    (Sim.Protocol.Aggregate
       {
         init = (fun () -> Int_map.empty);
         absorb = (fun heard ~pid v -> Int_map.add pid v heard);
         finish;
       })

let of_game (g : Game.t) =
  (* Per-player sampling replaces [g.sample]'s vector draw, so outcomes
     match [Game.play] in distribution, not coin-for-coin. *)
  of_eval ~name:("sim:" ^ g.name) ~eval:g.eval g.n

(* Counting games collapse a round to (sum, present), a commutative fold
   over plain ints. *)
let of_tally ?sample ~name ~decide n =
  if n < 1 then invalid_arg "Sim_game.of_tally";
  let finish s ~round:_ (sum, present) =
    { s with outcome = Some (decide ~n:s.n ~sum ~present) }
  in
  make ?sample ~name n
    (Sim.Protocol.Aggregate
       {
         init = (fun () -> (0, 0));
         absorb = (fun (sum, present) ~pid:_ v -> (sum + v, present + 1));
         finish;
       })

let majority0 n =
  of_tally ~name:(Printf.sprintf "sim:majority0[n=%d]" n)
    ~decide:(fun ~n ~sum ~present:_ -> if 2 * sum > n then 1 else 0)
    n

let majority_ignore_missing n =
  of_tally ~name:(Printf.sprintf "sim:majority[n=%d]" n)
    ~decide:(fun ~n:_ ~sum ~present -> if 2 * sum > present then 1 else 0)
    n

let parity n =
  of_tally ~name:(Printf.sprintf "sim:parity[n=%d]" n)
    ~decide:(fun ~n:_ ~sum ~present:_ -> sum land 1)
    n

let sum_mod ~k n =
  if k < 2 then invalid_arg "Sim_game.sum_mod: k must be >= 2";
  of_tally
    ~sample:(fun rng -> Prng.Rng.int rng k)
    ~name:(Printf.sprintf "sim:sum_mod%d[n=%d]" k n)
    ~decide:(fun ~n:_ ~sum ~present:_ -> sum mod k)
    n
