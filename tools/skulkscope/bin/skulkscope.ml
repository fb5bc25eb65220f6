(* skulkscope — the lint pass: determinism, domain-safety, context and
   telemetry rules over the typed trees in .cmt files.

   Usage: skulkscope [--allow FILE] [--json FILE] [--format FMT] [--rules]
                     [--build-dir DIR] [--map-prefix FROM=TO] PATH...

   PATHs are looked up relative to --build-dir (default: _build/default
   when it exists, else the current directory) and walked for .cmt
   files. Exits 1 when any non-allowlisted finding survives. *)

let usage () =
  prerr_endline
    "usage: skulkscope [--allow FILE] [--json FILE] [--format FMT] [--rules]\n\
     \                  [--build-dir DIR] [--map-prefix FROM=TO] PATH...\n\
     \  --allow FILE      checked-in allowlist (default: lint.allow if present)\n\
     \  --json FILE       also write a structured report ('-' for stdout)\n\
     \  --format FMT      finding output format: human (default) or github\n\
     \  --rules           print the rule catalogue and exit\n\
     \  --build-dir DIR   where the .cmt tree lives (default: _build/default\n\
     \                    if present, else .)\n\
     \  --map-prefix A=B  rewrite reported source paths starting with A to B\n\
     \                    (lets a test corpus masquerade as lib/ paths)";
  exit 2

open Skulkscope_core

let print_rules () =
  List.iter
    (fun (r : Rules.rule) -> Printf.printf "%-18s %-14s %s\n" r.name r.family r.summary)
    Rules.catalogue

let () =
  let allow_file = ref None and json_out = ref None and roots = ref [] in
  let format = ref Report.Human in
  let build_dir = ref None and prefixes = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--allow" :: f :: rest ->
      allow_file := Some f;
      parse_args rest
    | "--json" :: f :: rest ->
      json_out := Some f;
      parse_args rest
    | "--format" :: f :: rest -> (
      match Report.format_of_string f with
      | Some fmt ->
        format := fmt;
        parse_args rest
      | None -> usage ())
    | "--build-dir" :: d :: rest ->
      build_dir := Some d;
      parse_args rest
    | "--map-prefix" :: m :: rest -> (
      match String.index_opt m '=' with
      | Some i ->
        prefixes :=
          (String.sub m 0 i, String.sub m (i + 1) (String.length m - i - 1))
          :: !prefixes;
        parse_args rest
      | None -> usage ())
    | "--rules" :: _ ->
      print_rules ();
      exit 0
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" -> usage ()
    | path :: rest ->
      roots := path :: !roots;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !roots = [] then usage ();
  let build_dir =
    match !build_dir with
    | Some d -> d
    | None ->
      if Sys.file_exists "_build/default" && Sys.is_directory "_build/default"
      then "_build/default"
      else "."
  in
  let allow_path =
    match !allow_file with
    | Some f -> Some f
    | None -> if Sys.file_exists "lint.allow" then Some "lint.allow" else None
  in
  let allow_entries, allow_errors =
    match allow_path with
    | None -> ([], [])
    | Some f ->
      let entries, errs =
        Allow.parse_allow_file (Driver.read_file f)
      in
      ( entries,
        List.map
          (fun (line, msg) ->
            { Report.rule = "allow-file-syntax"; file = f; line; col = 0; message = msg })
          errs )
  in
  let result, cmt_errors =
    Driver.lint_tree ~allow_entries ~prefixes:(List.rev !prefixes)
      ~build_dir (List.rev !roots)
  in
  let findings = Report.sort (allow_errors @ cmt_errors @ result.findings) in
  let out = if !json_out = Some "-" then Format.err_formatter else Format.std_formatter in
  List.iter (fun f -> Format.fprintf out "%a@." (Report.pp !format) f) findings;
  let json =
    Report.to_json ~files_scanned:result.files_scanned ~suppressed:result.suppressed findings
  in
  (match !json_out with
  | Some "-" -> print_string json
  | Some f ->
    let oc = open_out f in
    output_string oc json;
    close_out oc
  | None -> ());
  Format.fprintf out
    "skulkscope: %d unit(s) analysed, %d finding(s), %d suppressed by allowlist@."
    result.files_scanned (List.length findings) result.suppressed;
  if findings <> [] then exit 1
