(* detlint CLI.

   Usage: detlint [OPTIONS] PATH...

     --json FILE       write the syntactic+taint findings report
     --taint           also run the interprocedural taint pass over the
                       .cmt typed trees found under PATH...
                       (falls back to _build/default/PATH when a PATH
                       holds no .cmt, so it works from a source checkout)
     --ledger FILE     write the purity ledger (implies --taint)
     --check-waivers   audit [@detlint.allow] staleness across both
                       passes; stale waivers are W1 violations
                       (implies --taint)
     --syntactic-only  fast-iteration escape hatch: refuse the taint
                       flags, run only the parse-tree rules

   Walks every PATH recursively for [.ml] files (skipping [_build], [.git]
   and the deliberately-bad [lint_fixtures] corpus), lints each against
   rules R1-R6, optionally layers the typed-tree taint analysis (T1,
   R8, R9) on top, prints human-readable findings, and exits non-zero iff
   any unwaived violation remains. *)

let usage =
  "usage: detlint [--json FILE] [--taint] [--ledger FILE] [--check-waivers] \
   [--syntactic-only] PATH..."

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let () =
  let json_out = ref None in
  let ledger_out = ref None in
  let taint = ref false in
  let check_waivers = ref false in
  let syntactic_only = ref false in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: file :: rest ->
        json_out := Some file;
        parse rest
    | "--ledger" :: file :: rest ->
        ledger_out := Some file;
        taint := true;
        parse rest
    | ("--json" | "--ledger") :: [] ->
        prerr_endline usage;
        exit 2
    | "--taint" :: rest ->
        taint := true;
        parse rest
    | "--check-waivers" :: rest ->
        check_waivers := true;
        taint := true;
        parse rest
    | "--syntactic-only" :: rest ->
        syntactic_only := true;
        parse rest
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        exit 0
    | p :: rest ->
        paths := p :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let paths = List.rev !paths in
  if paths = [] then begin
    prerr_endline usage;
    exit 2
  end;
  if !syntactic_only && !taint then begin
    prerr_endline
      "detlint: --syntactic-only excludes --taint/--ledger/--check-waivers";
    exit 2
  end;
  (* Pass 1: syntactic. *)
  let files, findings, sites = Detlint.lint_paths_audit paths in
  (* Pass 2: typed-tree taint. *)
  let taint_findings, ledger, typed_sites =
    if not !taint then ([], None, [])
    else begin
      let cmts, graph = Detlint_callgraph.load_paths paths in
      if cmts = [] then begin
        prerr_endline
          "detlint: --taint found no .cmt files under the given paths (run \
           `dune build @check` first)";
        exit 2
      end;
      let result = Detlint_taint.analyze graph in
      (* Typed-pass waiver sites, with usage resolved against the facts
         the taint pass actually covered. *)
      let typed_sites =
        List.map
          (fun ((w : Detlint_callgraph.waiver), used) ->
            {
              Detlint.ws_rule = w.Detlint_callgraph.w_rule;
              ws_file = w.Detlint_callgraph.w_loc.Detlint_callgraph.l_file;
              ws_line = w.Detlint_callgraph.w_loc.Detlint_callgraph.l_line;
              ws_col = w.Detlint_callgraph.w_loc.Detlint_callgraph.l_col;
              ws_used = used;
            })
          (Detlint_taint.waiver_sites graph result)
      in
      (result.Detlint_taint.findings, Some result, typed_sites)
    end
  in
  (* W1: waivers no pass could attribute a suppressed finding to. Both
     passes key sites by the attribute's own source location, so usage
     observed by either clears the site. *)
  let w1_findings =
    if not !check_waivers then []
    else begin
      let module M = Map.Make (String) in
      let key (s : Detlint.waiver_site) =
        Printf.sprintf "%s:%06d:%04d:%s" s.Detlint.ws_file s.Detlint.ws_line
          s.Detlint.ws_col s.Detlint.ws_rule
      in
      let merged =
        List.fold_left
          (fun m (s : Detlint.waiver_site) ->
            M.update (key s)
              (function
                | Some (s0 : Detlint.waiver_site) ->
                    if s.Detlint.ws_used then s0.Detlint.ws_used <- true;
                    Some s0
                | None -> Some s)
              m)
          M.empty (sites @ typed_sites)
      in
      M.fold
        (fun _ (s : Detlint.waiver_site) acc ->
          if s.Detlint.ws_used then acc
          else
            {
              Detlint.rule = "W1";
              file = s.Detlint.ws_file;
              line = s.Detlint.ws_line;
              col = s.Detlint.ws_col;
              message =
                Printf.sprintf
                  "stale waiver: [@detlint.allow \"%s: ...\"] suppresses \
                   nothing"
                  s.Detlint.ws_rule;
              hint =
                "delete the waiver (the code it excused is gone), or fix \
                 the rule tag if it excuses something else";
              severity = Detlint.Violation;
              justification = None;
            }
            :: acc)
        merged []
      |> List.rev
    end
  in
  let findings =
    List.stable_sort Detlint.compare_findings
      (findings @ taint_findings @ w1_findings)
  in
  List.iter (fun f -> print_endline (Detlint.render f)) findings;
  let violations =
    List.filter (fun f -> f.Detlint.severity = Detlint.Violation) findings
  in
  let waived =
    List.filter (fun f -> f.Detlint.severity = Detlint.Waived) findings
  in
  Printf.printf
    "detlint: %d file(s) checked, %d violation(s), %d waived finding(s)\n"
    (List.length files) (List.length violations) (List.length waived);
  (match ledger with
  | Some result ->
      Printf.printf "detlint: taint pass classified %d function(s)\n"
        (List.length result.Detlint_taint.entries);
      (match !ledger_out with
      | Some file ->
          mkdir_p (Filename.dirname file);
          Detlint_ledger.write_file file result;
          Printf.printf "detlint: wrote %s\n" file
      | None -> ())
  | None -> ());
  (match !json_out with
  | None -> ()
  | Some file ->
      mkdir_p (Filename.dirname file);
      let oc = open_out file in
      output_string oc (Detlint.to_json ~files:(List.length files) findings);
      close_out oc;
      Printf.printf "detlint: wrote %s\n" file);
  if violations <> [] then exit 1
