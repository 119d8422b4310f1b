(* detlint's typed front end: reads the [.cmt] typed trees dune already
   produces (-bin-annot is on by default; [dune build @check] materializes
   them for every library and executable), extracts per-function facts, and
   builds the interprocedural call graph the taint pass (detlint_taint.ml)
   propagates over.

   One [node] per named function: every value binding whose right-hand side
   is syntactically a function, qualified by its enclosing modules and
   enclosing function bindings ("Sim.Engine.run_until.loop"). Facts
   occurring outside any function (module-level initialization code)
   attach to a per-unit "(toplevel)" node.

   Extracted facts, all carrying precise source locations and the innermost
   active [@detlint.allow] waiver if one matches their underlying rule:

   - call edges: every identifier referenced in the body. [Pdot] paths are
     global names ("Sim.Protocol.bitkernel_capable", already display-form in
     the typed tree); [Pident]s are resolved against enclosing scopes after
     the whole graph is loaded, so local helpers and siblings link up.
   - nondeterminism sources: global [Random] (R1), wall-clock/entropy (R2),
     [Gc] statistics (R2), unsorted [Hashtbl] iteration (R3), polymorphic
     [compare] (R5), [Domain] identity (T1), and [Obs.Clock] outside the
     lib/obs + bench quarantine (R6). The Hashtbl check reuses the
     syntactic pass's escape heuristic (a fold feeding a sort is ordered).
   - float folds (R8): [fold_left]/[fold_right] applications whose result
     type is [float] — order-sensitive accumulations, checked against the
     merge-flow region by the taint pass.
   - supervised captures (R9): free variables of mutable type ([ref],
     [Hashtbl.t], [Buffer.t], [Queue.t], [Stack.t]) captured by closure
     literals passed to [fold_chunks_supervised] — state that escapes the
     chunk boundary.

   Every waiver the typed pass sees is also registered (by source location)
   so main.ml can audit staleness (W1) across both passes. *)

type loc = { l_file : string; l_line : int; l_col : int }

let compare_loc a b =
  let c = String.compare a.l_file b.l_file in
  if c <> 0 then c
  else
    let c = Int.compare a.l_line b.l_line in
    if c <> 0 then c else Int.compare a.l_col b.l_col

type waiver = {
  w_rule : string;
  w_just : string;
  w_loc : loc;  (* location of the attribute itself, the W1 audit key *)
}

type source_kind =
  | Sk_random  (* global Random outside lib/prng          -> R1 *)
  | Sk_wallclock  (* Unix.gettimeofday / Unix.time / Sys.time -> R2 *)
  | Sk_gc  (* Gc statistics (alloc counters, heap words) -> R2 *)
  | Sk_hashtbl_order  (* unsorted Hashtbl.iter/fold        -> R3 *)
  | Sk_polycompare  (* bare polymorphic compare            -> R5 *)
  | Sk_clock  (* Obs.Clock outside lib/obs and bench       -> R6 *)
  | Sk_domain_id  (* Domain.self: scheduling identity      -> T1 *)

let source_kind_name = function
  | Sk_random -> "random"
  | Sk_wallclock -> "wall-clock"
  | Sk_gc -> "gc-stats"
  | Sk_hashtbl_order -> "hashtbl-order"
  | Sk_polycompare -> "poly-compare"
  | Sk_clock -> "obs-clock"
  | Sk_domain_id -> "domain-identity"

(* The waiver rule that silences a given source kind. *)
let source_rule = function
  | Sk_random -> "R1"
  | Sk_wallclock | Sk_gc -> "R2"
  | Sk_hashtbl_order -> "R3"
  | Sk_polycompare -> "R5"
  | Sk_clock -> "R6"
  | Sk_domain_id -> "T1"

type occurrence = {
  o_kind : source_kind;
  o_path : string;  (* the offending identifier, display form *)
  o_loc : loc;
  o_waiver : waiver option;
}

type capture = {
  cap_name : string;  (* the escaping variable *)
  cap_ty : string;  (* its mutable head constructor, e.g. "ref" *)
  cap_entry : string;  (* the parallel entry point captured through *)
  cap_loc : loc;
  cap_waiver : waiver option;
}

type call = {
  (* Global (Pdot) callee in display form, or a bare local name plus the
     scope stack it must be resolved against. *)
  callee : string;
  local_scopes : string list option;  (* None = global *)
}

type node = {
  fn : string;  (* qualified display name *)
  n_file : string;
  n_line : int;
  mutable calls : call list;
  mutable sources : occurrence list;
  mutable float_folds : (loc * waiver option) list;
  mutable captures : capture list;
  mutable fn_waiver : waiver option;
      (* function-level [@detlint.allow "T1: ..."] on the binding:
         quarantines the whole function in the taint pass *)
}

type graph = {
  nodes : (string, node) Hashtbl.t;
  mutable units : string list;  (* display unit names, for reporting *)
  mutable waivers_seen : waiver list;  (* every waiver in the typed trees *)
}

(* ------------------------------------------------------------------ *)
(* Name normalization                                                  *)
(* ------------------------------------------------------------------ *)

let strip_prefix ~prefix s =
  let lp = String.length prefix in
  if String.length s >= lp && String.sub s 0 lp = prefix then
    Some (String.sub s lp (String.length s - lp))
  else None

(* "Sim__Engine" -> "Sim.Engine"; "Dune__exe__Main" -> "Main". *)
let normalize_unit m =
  let m = match strip_prefix ~prefix:"Dune__exe__" m with Some r -> r | None -> m in
  let b = Buffer.create (String.length m) in
  let i = ref 0 in
  let len = String.length m in
  while !i < len do
    if !i + 1 < len && m.[!i] = '_' && m.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b m.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* "Stdlib.Hashtbl.create" -> "Hashtbl.create"; unit mangling undone. *)
let normalize_path p =
  let p = match strip_prefix ~prefix:"Stdlib." p with Some r -> r | None -> p in
  if String.length p > 0 && p.[0] >= 'A' && p.[0] <= 'Z' then normalize_unit p
  else p

let base_name fn =
  match String.rindex_opt fn '.' with
  | Some i -> String.sub fn (i + 1) (String.length fn - i - 1)
  | None -> fn

let module_path fn =
  match String.rindex_opt fn '.' with Some i -> String.sub fn 0 i | None -> ""

(* [suffix_matches ~suffix name]: dotted-suffix match, so the fixture
   corpus's self-contained stand-ins ("Bad_r9.Parallel.fold_chunks_supervised")
   trip the same patterns as the real tree ("Sim.Parallel...."). *)
let suffix_matches ~suffix name =
  name = suffix
  ||
  let ls = String.length suffix and ln = String.length name in
  ln > ls + 1
  && String.sub name (ln - ls) ls = suffix
  && name.[ln - ls - 1] = '.'

(* ------------------------------------------------------------------ *)
(* Source / pattern tables                                             *)
(* ------------------------------------------------------------------ *)

let wallclock_fns = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

let gc_fns =
  [
    "Gc.stat"; "Gc.quick_stat"; "Gc.counters"; "Gc.minor_words";
    "Gc.allocated_bytes"; "Gc.major_slice";
  ]

let hashtbl_order_fns = [ "Hashtbl.iter"; "Hashtbl.fold" ]

let domain_id_fns = [ "Domain.self"; "Domain.is_main_domain" ]

let sort_fns =
  [
    "List.sort"; "List.stable_sort"; "List.fast_sort"; "List.sort_uniq";
    "Array.sort"; "Array.stable_sort"; "Array.fast_sort";
  ]

let fold_fns =
  [ "List.fold_left"; "List.fold_right"; "Array.fold_left"; "Array.fold_right" ]

let supervised_entries = [ "Parallel.fold_chunks_supervised" ]

let mutable_head_ctors =
  [ "ref"; "Hashtbl.t"; "Buffer.t"; "Queue.t"; "Stack.t" ]

let in_scope_r1 file = not (String.length file >= 9 && String.sub file 0 9 = "lib/prng/")

let in_scope_r5 file =
  List.exists
    (fun p -> Option.is_some (strip_prefix ~prefix:p file))
    [ "lib/stats/"; "lib/sim/"; "lib/core/"; "lib/coinflip/" ]

let in_scope_r6 file =
  not
    (Option.is_some (strip_prefix ~prefix:"lib/obs/" file)
    || Option.is_some (strip_prefix ~prefix:"bench/" file))

(* ------------------------------------------------------------------ *)
(* Compiler-libs helpers                                               *)
(* ------------------------------------------------------------------ *)

let loc_of (l : Location.t) ~file =
  {
    l_file = file;
    l_line = l.Location.loc_start.Lexing.pos_lnum;
    l_col = l.Location.loc_start.Lexing.pos_cnum - l.Location.loc_start.Lexing.pos_bol;
  }

(* Same surface syntax as the ppxlib pass: [@detlint.allow "R<n>: why"].
   Rules outside the known set are left to the syntactic pass's W0. *)
let known_rules =
  [ "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R8"; "R9"; "T1" ]

let parse_waiver ~file (attr : Parsetree.attribute) =
  if attr.Parsetree.attr_name.Location.txt <> "detlint.allow" then None
  else
    match attr.Parsetree.attr_payload with
    | Parsetree.PStr
        [
          {
            pstr_desc =
              Pstr_eval
                ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                  _ );
            _;
          };
        ] ->
        let rule, rest =
          match String.index_opt s ':' with
          | Some i ->
              ( String.trim (String.sub s 0 i),
                String.trim (String.sub s (i + 1) (String.length s - i - 1)) )
          | None -> (String.trim s, "")
        in
        if List.mem rule known_rules && rest <> "" then
          Some
            {
              w_rule = rule;
              w_just = rest;
              w_loc = loc_of attr.Parsetree.attr_loc ~file;
            }
        else None
    | _ -> None

let head_ctor_name ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (normalize_path (Path.name p))
  | _ -> None

(* Typedtree keeps constraints/coercions in [exp_extra], not the
   description, so no unwrapping is needed. *)
let unwrap_texp (e : Typedtree.expression) = e

let rec head_ident (e : Typedtree.expression) =
  match (unwrap_texp e).Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some p
  | Typedtree.Texp_apply (f, _) -> head_ident f
  | _ -> None

let head_ident_name e =
  Option.map (fun p -> normalize_path (Path.name p)) (head_ident e)

let is_function e =
  match (unwrap_texp e).Typedtree.exp_desc with
  | Typedtree.Texp_function _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The walker                                                          *)
(* ------------------------------------------------------------------ *)

let walk_structure graph ~unit_name ~file (str : Typedtree.structure) =
  (* Scope stack, outermost first: unit name, then enclosing module and
     function names. *)
  let scopes = ref [ unit_name ] in
  let node_of_scopes () = String.concat "." (List.rev !scopes) in
  (* Current function node facts attach to; lazily created for toplevel. *)
  let current : node option ref = ref None in
  let waiver_stack : waiver list ref = ref [] in
  let sorted_depth = ref 0 in
  let get_node name ~line =
    match Hashtbl.find_opt graph.nodes name with
    | Some n -> n
    | None ->
        let n =
          {
            fn = name;
            n_file = file;
            n_line = line;
            calls = [];
            sources = [];
            float_folds = [];
            captures = [];
            fn_waiver = None;
          }
        in
        Hashtbl.add graph.nodes name n;
        n
  in
  let fact_node ~line =
    match !current with
    | Some n -> n
    | None ->
        let n = get_node (unit_name ^ ".(toplevel)") ~line in
        current := Some n;
        n
  in
  let active_waiver rules =
    List.find_opt (fun w -> List.mem w.w_rule rules) !waiver_stack
  in
  let push_waivers attrs k =
    let ws = List.filter_map (parse_waiver ~file) attrs in
    List.iter (fun w -> graph.waivers_seen <- w :: graph.waivers_seen) ws;
    let saved = !waiver_stack in
    waiver_stack := ws @ !waiver_stack;
    Fun.protect ~finally:(fun () -> waiver_stack := saved) k
  in
  let record_ident p (l : Location.t) =
    let line = l.Location.loc_start.Lexing.pos_lnum in
    let n = fact_node ~line in
    let loc = loc_of l ~file in
    let name = normalize_path (Path.name p) in
    (* Resolve later against the enclosing scopes: bare [Pident]s only make
       sense relative to a scope, and dotted paths may name a sibling
       submodule of the same unit ("Bitwords.popcount" from inside
       "Sim.Bitkernel" when both live in one file), which the node table
       stores under its unit-qualified name. [resolve_call] tries the
       direct (cross-unit) name first, so fully-qualified callees are
       unaffected. *)
    let scope_names =
      (* ["Sim.Engine"; "step"] -> ["Sim.Engine"; "Sim.Engine.step"] *)
      List.fold_left
        (fun acc s ->
          match acc with
          | [] -> [ s ]
          | prev :: _ -> (prev ^ "." ^ s) :: acc)
        []
        (List.rev !scopes)
    in
    n.calls <- { callee = name; local_scopes = Some scope_names } :: n.calls;
    (* Source detection mirrors the syntactic rules, on resolved paths. *)
    let add kind =
      let w = active_waiver [ source_rule kind; "T1" ] in
      n.sources <-
        { o_kind = kind; o_path = name; o_loc = loc; o_waiver = w } :: n.sources
    in
    (match String.split_on_char '.' name with
    | "Random" :: _ :: _ when in_scope_r1 file -> add Sk_random
    | _ -> ());
    if List.mem name wallclock_fns then add Sk_wallclock;
    if List.mem name gc_fns then add Sk_gc;
    if List.mem name domain_id_fns then add Sk_domain_id;
    if name = "compare" && in_scope_r5 file then add Sk_polycompare;
    if
      (Option.is_some (strip_prefix ~prefix:"Obs.Clock." name)
      || name = "Obs.Clock")
      && in_scope_r6 file
    then add Sk_clock;
    if List.mem name hashtbl_order_fns && !sorted_depth = 0 then
      add Sk_hashtbl_order
  in
  (* Free mutable variables of a closure literal (R9). *)
  let closure_captures (body : Typedtree.expression) ~entry =
    let bound = Hashtbl.create 16 in
    let free = ref [] in
    let pat_iter : type k.
        Tast_iterator.iterator -> k Typedtree.general_pattern -> unit =
     fun sub p ->
      (match p.Typedtree.pat_desc with
      | Typedtree.Tpat_var (id, _) -> Hashtbl.replace bound (Ident.name id) ()
      | Typedtree.Tpat_alias (_, id, _) ->
          Hashtbl.replace bound (Ident.name id) ()
      | _ -> ());
      Tast_iterator.default_iterator.pat sub p
    in
    let expr_iter sub (e : Typedtree.expression) =
      (match e.Typedtree.exp_desc with
      | Typedtree.Texp_for (id, _, _, _, _, _) ->
          Hashtbl.replace bound (Ident.name id) ()
      | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
          let name = Ident.name id in
          if not (Hashtbl.mem bound name) then
            match head_ctor_name e.Typedtree.exp_type with
            | Some ctor when List.mem ctor mutable_head_ctors ->
                free := (name, ctor, loc_of e.Typedtree.exp_loc ~file) :: !free
            | _ -> ())
      | Typedtree.Texp_ident ((Path.Pdot _ as p), _, _) -> (
          (* Module-level mutable state from another module, captured by a
             chunk closure: the interprocedural face of R4. *)
          match head_ctor_name e.Typedtree.exp_type with
          | Some ctor when List.mem ctor mutable_head_ctors ->
              free :=
                ( normalize_path (Path.name p),
                  ctor,
                  loc_of e.Typedtree.exp_loc ~file )
                :: !free
          | _ -> ())
      | _ -> ());
      Tast_iterator.default_iterator.expr sub e
    in
    let it =
      { Tast_iterator.default_iterator with pat = pat_iter; expr = expr_iter }
    in
    it.Tast_iterator.expr it body;
    (* One capture per escaping variable: report its first occurrence. *)
    let seen = Hashtbl.create 8 in
    let firsts =
      List.filter
        (fun (name, _, _) ->
          if Hashtbl.mem seen name then false
          else begin
            Hashtbl.replace seen name ();
            true
          end)
        (List.rev !free)
    in
    List.map
      (fun (name, ctor, loc) ->
        {
          cap_name = name;
          cap_ty = ctor;
          cap_entry = entry;
          cap_loc = loc;
          cap_waiver = active_waiver [ "R9"; "R4" ];
        })
      firsts
  in
  let rec expr_iter sub (e : Typedtree.expression) =
    push_waivers e.Typedtree.exp_attributes (fun () ->
        match e.Typedtree.exp_desc with
        | Typedtree.Texp_ident (p, lid, _) ->
            record_ident p lid.Location.loc
        | Typedtree.Texp_let (_, vbs, body) ->
            List.iter (value_binding sub) vbs;
            expr_iter sub body
        | Typedtree.Texp_apply (f, args) ->
            let head = head_ident_name f in
            (* R8: fully applied float-typed fold. *)
            (match head with
            | Some h when List.mem h fold_fns -> (
                match head_ctor_name e.Typedtree.exp_type with
                | Some "float" ->
                    let n =
                      fact_node ~line:e.Typedtree.exp_loc.loc_start.pos_lnum
                    in
                    n.float_folds <-
                      (loc_of e.Typedtree.exp_loc ~file, active_waiver [ "R8"; "R3" ])
                      :: n.float_folds
                | _ -> ())
            | _ -> ());
            (* R9: closure literals handed to the supervised chunk fold. *)
            (match head with
            | Some h
              when List.exists
                     (fun s -> suffix_matches ~suffix:s h)
                     supervised_entries ->
                List.iter
                  (fun (_, a) ->
                    match a with
                    | Some ae when is_function ae ->
                        let n =
                          fact_node
                            ~line:ae.Typedtree.exp_loc.loc_start.pos_lnum
                        in
                        n.captures <- closure_captures ae ~entry:h @ n.captures
                    | _ -> ())
                  args
            | _ -> ());
            (* Sorted-escape bookkeeping for the Hashtbl-order source: the
               same three shapes the syntactic pass recognises. *)
            let sorted_arg_positions =
              match (head_ident_name f, args) with
              | Some "|>", [ (_, Some lhs); (_, Some rhs) ]
                when Option.fold ~none:false
                       ~some:(fun p -> List.mem p sort_fns)
                       (head_ident_name rhs) ->
                  Some (`Pipe_lhs (lhs, rhs))
              | Some "@@", [ (_, Some lhs); (_, Some rhs) ]
                when Option.fold ~none:false
                       ~some:(fun p -> List.mem p sort_fns)
                       (head_ident_name lhs) ->
                  Some (`App_rhs (lhs, rhs))
              | _ -> (
                  match head with
                  | Some h when List.mem h sort_fns -> Some `All_args
                  | _ -> None)
            in
            (match sorted_arg_positions with
            | Some (`Pipe_lhs (lhs, rhs)) ->
                expr_iter sub f;
                incr sorted_depth;
                expr_iter sub lhs;
                decr sorted_depth;
                expr_iter sub rhs
            | Some (`App_rhs (lhs, rhs)) ->
                expr_iter sub f;
                expr_iter sub lhs;
                incr sorted_depth;
                expr_iter sub rhs;
                decr sorted_depth
            | Some `All_args ->
                expr_iter sub f;
                incr sorted_depth;
                List.iter (fun (_, a) -> Option.iter (expr_iter sub) a) args;
                decr sorted_depth
            | None ->
                expr_iter sub f;
                List.iter (fun (_, a) -> Option.iter (expr_iter sub) a) args)
        | _ -> Tast_iterator.default_iterator.expr sub e)
  and value_binding sub (vb : Typedtree.value_binding) =
    let name =
      match vb.Typedtree.vb_pat.Typedtree.pat_desc with
      | Typedtree.Tpat_var (id, _) -> Some (Ident.name id)
      | Typedtree.Tpat_alias (_, id, _) -> Some (Ident.name id)
      | _ -> None
    in
    push_waivers vb.Typedtree.vb_attributes (fun () ->
        match name with
        | Some n when is_function vb.Typedtree.vb_expr ->
            let saved = !current and saved_scopes = !scopes in
            scopes := n :: !scopes;
            let node =
              get_node (node_of_scopes ())
                ~line:vb.Typedtree.vb_loc.Location.loc_start.Lexing.pos_lnum
            in
            (match
               List.filter_map (parse_waiver ~file) vb.Typedtree.vb_attributes
             with
            | w :: _ when node.fn_waiver = None -> node.fn_waiver <- Some w
            | _ -> ());
            current := Some node;
            expr_iter sub vb.Typedtree.vb_expr;
            current := saved;
            scopes := saved_scopes
        | _ -> expr_iter sub vb.Typedtree.vb_expr)
  in
  let structure_item sub (item : Typedtree.structure_item) =
    match item.Typedtree.str_desc with
    | Typedtree.Tstr_value (_, vbs) -> List.iter (value_binding sub) vbs
    | Typedtree.Tstr_module mb ->
        let saved_scopes = !scopes and saved = !current in
        (match mb.Typedtree.mb_id with
        | Some id -> scopes := Ident.name id :: !scopes
        | None -> ());
        current := None;
        Tast_iterator.default_iterator.module_binding sub mb;
        scopes := saved_scopes;
        current := saved
    | Typedtree.Tstr_attribute a -> (
        (* File-level waivers apply to the rest of the unit; modelled as a
           push with no pop (the stack resets per file anyway). *)
        match parse_waiver ~file a with
        | Some w ->
            graph.waivers_seen <- w :: graph.waivers_seen;
            waiver_stack := w :: !waiver_stack
        | None -> ())
    | _ -> Tast_iterator.default_iterator.structure_item sub item
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr = expr_iter;
      value_binding;
      structure_item;
    }
  in
  it.Tast_iterator.structure it str

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let load_cmt graph path =
  match Cmt_format.read_cmt path with
  | exception _ -> ()  (* unreadable / version-skewed cmt: skip *)
  | cmt -> (
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
          let unit_name = normalize_unit cmt.Cmt_format.cmt_modname in
          let file =
            match cmt.Cmt_format.cmt_sourcefile with
            | Some f -> f
            | None -> path
          in
          graph.units <- unit_name :: graph.units;
          walk_structure graph ~unit_name ~file str
      | _ -> ())

let rec walk_cmt_files acc path =
  if Sys.file_exists path && Sys.is_directory path then
    let base = Filename.basename path in
    if base = "_build" || base = ".git" then acc
    else
      Sys.readdir path |> Array.to_list
      |> List.sort String.compare
      |> List.fold_left
           (fun acc name -> walk_cmt_files acc (Filename.concat path name))
           acc
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

let create () = { nodes = Hashtbl.create 512; units = []; waivers_seen = [] }

let load_files paths =
  let g = create () in
  List.iter (load_cmt g) (List.sort String.compare paths);
  g

(* Walk [paths] for .cmt files (dune hides them in .objs/.eobjs dirs, which
   a plain directory walk visits). When a path holds none — the common case
   of running from the source root instead of the build dir — retry under
   _build/default so `detlint --taint lib` works from a checkout too. *)
let load_paths paths =
  let files =
    List.concat_map
      (fun p ->
        match walk_cmt_files [] p with
        | [] -> walk_cmt_files [] (Filename.concat "_build/default" p)
        | fs -> fs)
      paths
  in
  (files, load_files files)

(* ------------------------------------------------------------------ *)
(* Edge resolution                                                     *)
(* ------------------------------------------------------------------ *)

(* Resolve a recorded call to a known node name, if any: globals match
   directly (fully-qualified cross-unit paths), then the enclosing scopes
   are tried innermost-first — this covers both bare locals and dotted
   paths into sibling submodules of the same unit, whose nodes carry the
   unit prefix the path lacks. *)
let resolve_call graph c =
  if Hashtbl.mem graph.nodes c.callee then Some c.callee
  else
    match c.local_scopes with
    | None -> None
    | Some scopes ->
        let rec try_scopes = function
          | [] -> None
          | s :: rest ->
              let cand = s ^ "." ^ c.callee in
              if Hashtbl.mem graph.nodes cand then Some cand
              else try_scopes rest
        in
        try_scopes scopes

(* Adjacency as sorted, deduplicated successor lists: deterministic BFS
   orders make chains (and therefore the ledger) byte-stable. *)
let successors graph =
  let succ = Hashtbl.create (Hashtbl.length graph.nodes) in
  Hashtbl.iter
    (fun fn node ->
      let outs =
        List.filter_map (resolve_call graph) node.calls
        |> List.filter (fun callee -> callee <> fn)
        |> List.sort_uniq String.compare
      in
      Hashtbl.replace succ fn outs)
    graph.nodes;
  succ

let node_names graph =
  Hashtbl.fold (fun fn _ acc -> fn :: acc) graph.nodes []
  |> List.sort String.compare
