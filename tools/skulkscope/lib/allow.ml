(* The two suppression mechanisms:

   - inline comments: [(* skulkscope: allow <rule>[, <rule>...] — reason *)]
     suppresses the named rules on the comment's own line and the line
     below it. The reason (after "—", "--" or " - ") is mandatory; an
     allow without one is itself a finding, and so is an allow that
     suppresses nothing (stale allows rot fast). A comment addressed to
     any other tool is not an allow at all.

   - the checked-in allow file (lint.allow): one entry per line,
     [<path> <rule> <reason...>]. A path ending in "/" covers the whole
     subtree. Used for policy-level exceptions that are not tied to a
     single source line. *)

let marker = "skulkscope: allow"

type comment_allow = {
  ca_line : int;
  ca_rules : string list;
  ca_reason : string option;
  mutable ca_used : bool;
}

type file_entry = {
  fe_path : string;
  fe_rule : string;
  fe_reason : string;
}

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec scan i = if i + m > n then None else if String.sub s i m = sub then Some i else scan (i + 1) in
  if from > n then None else scan from

(* Split "rule1, rule2 — reason" into rules and reason. Accepts an
   em-dash, "--" or " - " as the separator. *)
let split_reason segment =
  let seps = [ "\xe2\x80\x94" (* — *); "--"; " - "; ":" ] in
  let cut =
    List.fold_left
      (fun acc sep ->
        match find_sub segment sep 0 with
        | Some i -> (
          match acc with
          | Some (j, _) when j <= i -> acc
          | _ -> Some (i, String.length sep))
        | None -> acc)
      None seps
  in
  match cut with
  | None -> (segment, None)
  | Some (i, len) ->
    let rules = String.sub segment 0 i in
    let reason = String.trim (String.sub segment (i + len) (String.length segment - i - len)) in
    (rules, if reason = "" then None else Some reason)

let is_rule_char c =
  (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' || c = '_'

let parse_rules s =
  String.split_on_char ',' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.map String.trim
  |> List.filter (fun t -> t <> "" && String.for_all is_rule_char t)

(* Scan raw source text for allow comments, line by line. Lexical subtlety
   (allows inside string literals) is deliberately ignored: the marker
   is specific enough that false matches do not happen in practice, and
   a spurious one surfaces as an unused-allow finding. *)
let scan_comments source =
  let lines = String.split_on_char '\n' source in
  let allows = ref [] in
  List.iteri
    (fun i line ->
      match find_sub line marker 0 with
      | None -> ()
      | Some at ->
        let start = at + String.length marker in
        let stop =
          match find_sub line "*)" start with Some j -> j | None -> String.length line
        in
        let segment = String.trim (String.sub line start (stop - start)) in
        let rules_part, reason = split_reason segment in
        allows :=
          { ca_line = i + 1; ca_rules = parse_rules rules_part; ca_reason = reason; ca_used = false }
          :: !allows)
    lines;
  List.rev !allows

(* lint.allow: "#" starts a comment, blank lines skipped.
   Returns entries plus (line, message) syntax errors. *)
let parse_allow_file contents =
  let entries = ref [] and errors = ref [] in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if line <> "" && not (String.length line > 0 && line.[0] = '#') then begin
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | path :: rule :: (_ :: _ as reason_words) ->
          entries :=
            { fe_path = path; fe_rule = rule; fe_reason = String.concat " " reason_words }
            :: !entries
        | _ ->
          errors :=
            (i + 1, "malformed entry (want: <path> <rule> <reason...>): " ^ line) :: !errors
      end)
    (String.split_on_char '\n' contents);
  (List.rev !entries, List.rev !errors)

let entry_covers entry ~path ~rule =
  String.equal entry.fe_rule rule
  && (String.equal entry.fe_path path
     ||
     let n = String.length entry.fe_path in
     n > 0
     && entry.fe_path.[n - 1] = '/'
     && String.length path > n
     && String.equal (String.sub path 0 n) entry.fe_path)

(* A valid comment covers its own line and the next one, for the named
   rules only. Marks the comment used. *)
let comment_covers allows ~line ~rule =
  List.exists
    (fun ca ->
      match ca.ca_reason with
      | None -> false
      | Some _ ->
        if (line = ca.ca_line || line = ca.ca_line + 1) && List.mem rule ca.ca_rules then begin
          ca.ca_used <- true;
          true
        end
        else false)
    allows

(* Findings about the allow comments themselves. *)
let comment_findings ~file allows : Report.finding list =
  List.concat_map
    (fun ca ->
      let at message rule = { Report.rule; file; line = ca.ca_line; col = 0; message } in
      let bad_syntax =
        if ca.ca_rules = [] then
          [ at "allow comment names no known-shaped rule" "allow-syntax" ]
        else if ca.ca_reason = None then
          [ at "allow comment is missing its reason (want: allow <rule> \xe2\x80\x94 reason)"
              "allow-syntax" ]
        else []
      in
      let unused =
        if bad_syntax = [] && not ca.ca_used then
          [ at
              (Printf.sprintf "unused allow for %s: nothing to suppress here"
                 (String.concat ", " ca.ca_rules))
              "allow-unused" ]
        else []
      in
      bad_syntax @ unused)
    allows
