(* Load .cmt files, build the pass-A tables, run pass B (Checks and
   Analysis) over every unit, suppress, report.

   The pure entry point is [lint_units] (the self-tests hand it units
   loaded from a corpus .cmt with synthetic lib/-style paths);
   [lint_tree] adds .cmt discovery under a build directory and source
   reading for allow comments, and is what the CLI calls. *)

type result = {
  findings : Report.finding list;  (** surviving, sorted *)
  suppressed : int;
  files_scanned : int;
}

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let normalise path =
  String.split_on_char '/' path
  |> List.filter (fun seg -> seg <> "" && seg <> ".")
  |> String.concat "/"

let map_prefix ~prefixes path =
  let rec go = function
    | [] -> path
    | (from, to_) :: rest ->
      let n = String.length from in
      if String.length path >= n && String.sub path 0 n = from then
        to_ ^ String.sub path n (String.length path - n)
      else go rest
  in
  go prefixes

(* Load one .cmt. [path] overrides the recorded source path (tests use
   this to lint a corpus unit under a synthetic lib/ path); [source] is
   the unit's text when available, for allow-comment scanning. *)
let load_cmt ?path ?source cmt_path : (Summary.unit_info, string) Result.t =
  match Cmt_format.read_cmt cmt_path with
  | exception exn ->
    Error (Printf.sprintf "cannot read %s: %s" cmt_path (Printexc.to_string exn))
  | cmt -> (
    match cmt.cmt_annots with
    | Implementation structure ->
      let recorded =
        match cmt.cmt_sourcefile with Some f -> normalise f | None -> cmt_path
      in
      Ok
        {
          Summary.u_modname = cmt.cmt_modname;
          u_prefix = Classify.prefix_of_unit cmt.cmt_modname;
          u_path = (match path with Some p -> normalise p | None -> recorded);
          u_structure = structure;
          u_source = source;
        }
    | _ -> Error "not an implementation")

(* One report per (rule, line): a toplevel [let c = Ctx.create 0] is
   both a minted application and a module-level context value. *)
let rec dedupe = function
  | (a : Report.finding) :: (b : Report.finding) :: rest
    when a.rule = b.rule && a.file = b.file && a.line = b.line ->
    dedupe (a :: rest)
  | a :: rest -> a :: dedupe rest
  | [] -> []

(* Lint a loaded set of units as one program: pass-A tables span all of
   them, then each unit is analysed and its allows applied. *)
let lint_units ?(allow_entries = []) (units : Summary.unit_info list) : result =
  let tables = Summary.build units in
  let findings, suppressed =
    List.fold_left
      (fun (fs, n) (u : Summary.unit_info) ->
        let raw = dedupe (Report.sort (Checks.run tables u @ Analysis.run tables u)) in
        let allows =
          match u.u_source with Some src -> Allow.scan_comments src | None -> []
        in
        let surviving, dropped =
          List.partition
            (fun (f : Report.finding) ->
              not
                (Allow.comment_covers allows ~line:f.line ~rule:f.rule
                || List.exists
                     (fun e -> Allow.entry_covers e ~path:u.u_path ~rule:f.rule)
                     allow_entries))
            raw
        in
        let meta = Allow.comment_findings ~file:u.u_path allows in
        (surviving @ meta @ fs, n + List.length dropped))
      ([], 0) units
  in
  {
    findings = Report.sort findings;
    suppressed;
    files_scanned = List.length units;
  }

(* ---- .cmt discovery ---- *)

let is_cmt path = Filename.check_suffix path ".cmt"

let rec collect_cmt_files acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if entry = ".git" then acc
           else collect_cmt_files acc (Filename.concat path entry))
         acc
  else if is_cmt path then path :: acc
  else acc

(* [roots] are paths relative to [build_dir] (a dune _build/default, or
   "." when running inside one). Source text for allow comments is read
   from [build_dir]/<recorded source path> when present. *)
let lint_tree ?(allow_entries = []) ?(prefixes = []) ~build_dir roots : result * Report.finding list =
  let cmts =
    List.map (fun r -> Filename.concat build_dir r) roots
    |> List.fold_left collect_cmt_files []
    |> List.sort_uniq String.compare
  in
  let errors = ref [] in
  let units =
    List.filter_map
      (fun cmt_path ->
        match load_cmt cmt_path with
        | Ok u ->
          let path = map_prefix ~prefixes u.u_path in
          let source =
            let candidate = Filename.concat build_dir u.u_path in
            if Sys.file_exists candidate && not (Sys.is_directory candidate)
            then Some (read_file candidate)
            else None
          in
          Some { u with u_path = path; u_source = source }
        | Error "not an implementation" -> None (* interfaces, packs *)
        | Error msg ->
          errors :=
            { Report.rule = "cmt-error"; file = normalise cmt_path;
              line = 1; col = 0; message = msg }
            :: !errors;
          None)
      cmts
  in
  (* dune emits one .cmt per unit per mode; dedupe on source path *)
  let seen = Hashtbl.create 64 in
  let units =
    List.filter
      (fun (u : Summary.unit_info) ->
        if Hashtbl.mem seen (u.u_modname, u.u_path) then false
        else begin
          Hashtbl.add seen (u.u_modname, u.u_path) ();
          true
        end)
      units
  in
  (lint_units ~allow_entries units, List.rev !errors)
