(* Self-tests for the lint pass: every rule fires on its known-bad
   corpus unit at the expected line, the known-good corpus is silent,
   path scoping, both allow mechanisms and the report formats behave,
   and the report does not depend on run or unit order. The corpus
   compiles for real against sim and unix, so these load genuine .cmt
   typedtrees; path-scoped rules are exercised by loading units under
   synthetic lib/-style paths. *)

open Skulkscope_core

let read = Driver.read_file

(* Load one corpus unit under a synthetic path (default lib/scope/).
   [source] overrides the unit text handed to the allow scanner, for
   the stale/reasonless-allow tests. *)
let load ?path ?source ~kind name =
  let cmt =
    Printf.sprintf "corpus/%s/.scope_corpus_%s.objs/byte/scope_corpus_%s__%s.cmt"
      kind kind kind (String.capitalize_ascii name)
  in
  let source =
    match source with
    | Some s -> s
    | None -> read (Printf.sprintf "corpus/%s/%s.ml" kind name)
  in
  let path =
    match path with Some p -> p | None -> "lib/scope/" ^ name ^ ".ml"
  in
  match Driver.load_cmt ~path ~source cmt with
  | Ok u -> u
  | Error msg -> Alcotest.failf "load_cmt %s: %s" name msg

let bad_names =
  [ "bad_allow"; "bad_ctx_discipline"; "bad_ctx_launder"; "bad_ctx_minted";
    "bad_domain_spawn"; "bad_escape_call"; "bad_escape_capture";
    "bad_hashtbl_order"; "bad_poly_compare"; "bad_random"; "bad_rng_order";
    "bad_rng_two_domains"; "bad_shard_mailbox"; "bad_span"; "bad_telemetry";
    "bad_toplevel_mutable"; "bad_typed_only"; "bad_wall_clock" ]

let good_names =
  [ "good_allow"; "good_atomic"; "good_ctx_param"; "good_immutable";
    "good_per_trial" ]

let lint_bad () = Driver.lint_units (List.map (load ~kind:"bad") bad_names)

(* One corpus unit, linted alone under [path]. *)
let lint_one ?allow_entries ~kind ~path name =
  Driver.lint_units ?allow_entries [ load ~kind ~path name ]

let brief (f : Report.finding) =
  Printf.sprintf "%s:%d %s" f.file f.line f.rule

let check_briefs name expected (r : Driver.result) =
  Alcotest.(check (list string)) name expected (List.map brief r.findings)

(* ---- bad corpus: every defect reported exactly once, with its line ---- *)

let expected_bad =
  [ "lib/scope/bad_allow.ml:5 allow-syntax";
    "lib/scope/bad_allow.ml:6 wall-clock";
    "lib/scope/bad_allow.ml:8 allow-unused";
    "lib/scope/bad_ctx_discipline.ml:7 ctx-discipline";
    "lib/scope/bad_ctx_discipline.ml:11 ctx-discipline";
    "lib/scope/bad_ctx_launder.ml:5 ctx-launder";
    "lib/scope/bad_ctx_minted.ml:6 ctx-minted";
    "lib/scope/bad_ctx_minted.ml:9 ctx-minted";
    "lib/scope/bad_domain_spawn.ml:2 domain-spawn";
    "lib/scope/bad_escape_call.ml:5 toplevel-mutable";
    "lib/scope/bad_escape_call.ml:11 escape-call";
    "lib/scope/bad_escape_capture.ml:7 toplevel-mutable";
    "lib/scope/bad_escape_capture.ml:12 escape-capture";
    "lib/scope/bad_escape_capture.ml:18 escape-capture";
    "lib/scope/bad_escape_capture.ml:23 escape-capture";
    "lib/scope/bad_hashtbl_order.ml:2 hashtbl-order";
    "lib/scope/bad_hashtbl_order.ml:3 hashtbl-order";
    "lib/scope/bad_hashtbl_order.ml:6 hashtbl-order";
    "lib/scope/bad_poly_compare.ml:2 poly-compare";
    "lib/scope/bad_poly_compare.ml:3 poly-compare";
    "lib/scope/bad_poly_compare.ml:4 poly-compare";
    "lib/scope/bad_random.ml:2 random-global";
    "lib/scope/bad_random.ml:3 random-global";
    "lib/scope/bad_rng_order.ml:7 hashtbl-order";
    "lib/scope/bad_rng_order.ml:7 rng-order";
    "lib/scope/bad_rng_two_domains.ml:7 rng-escape";
    "lib/scope/bad_rng_two_domains.ml:8 rng-escape";
    "lib/scope/bad_shard_mailbox.ml:16 escape-capture";
    "lib/scope/bad_span.ml:5 span-pairing";
    "lib/scope/bad_span.ml:10 span-pairing";
    "lib/scope/bad_telemetry.ml:4 counter-name";
    "lib/scope/bad_telemetry.ml:5 counter-name";
    "lib/scope/bad_telemetry.ml:6 counter-name";
    "lib/scope/bad_telemetry.ml:7 counter-name";
    "lib/scope/bad_telemetry.ml:8 counter-monotonic";
    "lib/scope/bad_telemetry.ml:9 sink-discipline";
    "lib/scope/bad_telemetry.ml:10 sink-discipline";
    "lib/scope/bad_toplevel_mutable.ml:3 toplevel-mutable";
    "lib/scope/bad_toplevel_mutable.ml:4 toplevel-mutable";
    "lib/scope/bad_toplevel_mutable.ml:7 toplevel-mutable";
    "lib/scope/bad_typed_only.ml:8 random-global";
    "lib/scope/bad_typed_only.ml:12 wall-clock";
    "lib/scope/bad_typed_only.ml:13 poly-compare";
    "lib/scope/bad_typed_only.ml:14 toplevel-mutable";
    "lib/scope/bad_wall_clock.ml:2 wall-clock";
    "lib/scope/bad_wall_clock.ml:3 wall-clock";
    "lib/scope/bad_wall_clock.ml:4 wall-clock" ]

let bad_tests =
  [
    Alcotest.test_case "all seeded defects, once each, at their lines" `Quick
      (fun () ->
        let r = lint_bad () in
        check_briefs "findings" expected_bad r;
        Alcotest.(check int) "nothing suppressed" 0 r.suppressed;
        Alcotest.(check int) "every unit" (List.length bad_names) r.files_scanned);
    Alcotest.test_case "every catalogue rule fires on the bad corpus" `Quick
      (fun () ->
        let r = lint_bad () in
        let fired rule =
          List.exists (fun (f : Report.finding) -> f.rule = rule.Rules.name)
            r.findings
        in
        List.iter
          (fun rule ->
            if not (fired rule) then
              Alcotest.failf "rule %s never fires on the corpus" rule.Rules.name)
          Rules.catalogue);
    Alcotest.test_case "determinism: two runs, identical reports" `Quick
      (fun () ->
        let a = lint_bad () and b = lint_bad () in
        Alcotest.(check (list string)) "reports"
          (List.map (Format.asprintf "%a" Report.pp_human) a.findings)
          (List.map (Format.asprintf "%a" Report.pp_human) b.findings));
  ]

(* ---- per-rule cases, each unit alone under a chosen path ---- *)

let case name ?(path_dir = "lib/sim/") unit expected =
  Alcotest.test_case name `Quick (fun () ->
      let path = path_dir ^ unit ^ ".ml" in
      check_briefs name
        (List.map (fun (line, rule) -> Printf.sprintf "%s:%d %s" path line rule) expected)
        (lint_one ~kind:"bad" ~path unit))

let telemetry_findings ~in_lib =
  [ (4, "counter-name"); (5, "counter-name"); (6, "counter-name"); (7, "counter-name");
    (8, "counter-monotonic") ]
  @ (if in_lib then [ (9, "sink-discipline") ] else [])
  @ [ (10, "sink-discipline") ]

let rule_tests =
  [
    case "random-global fires twice" "bad_random" [ (2, "random-global"); (3, "random-global") ];
    case "wall-clock fires three times" "bad_wall_clock"
      [ (2, "wall-clock"); (3, "wall-clock"); (4, "wall-clock") ];
    case "hashtbl-order: iter, bare fold, late sort" ~path_dir:"lib/vmm/" "bad_hashtbl_order"
      [ (2, "hashtbl-order"); (3, "hashtbl-order"); (6, "hashtbl-order") ];
    case "poly-compare: bare, Stdlib, float literal" "bad_poly_compare"
      [ (2, "poly-compare"); (3, "poly-compare"); (4, "poly-compare") ];
    case "toplevel-mutable fires in lib/, incl. submodules" ~path_dir:"lib/vmm/"
      "bad_toplevel_mutable"
      [ (3, "toplevel-mutable"); (4, "toplevel-mutable"); (7, "toplevel-mutable") ];
    case "toplevel-mutable is scoped to lib/" ~path_dir:"bench/" "bad_toplevel_mutable" [];
    case "domain-spawn fires outside Sim.Parallel" ~path_dir:"lib/workload/" "bad_domain_spawn"
      [ (2, "domain-spawn") ];
    Alcotest.test_case "domain-spawn exempts lib/sim/parallel.ml" `Quick (fun () ->
        check_briefs "parallel exempt" []
          (lint_one ~kind:"bad" ~path:"lib/sim/parallel.ml" "bad_domain_spawn"));
    case "telemetry discipline: seven findings" ~path_dir:"lib/net/" "bad_telemetry"
      (telemetry_findings ~in_lib:true);
    case "sink creation is allowed outside lib/" ~path_dir:"bench/" "bad_telemetry"
      (telemetry_findings ~in_lib:false);
    case "ctx-discipline: ?telemetry and ?faults, not ?fault" ~path_dir:"lib/vmm/"
      "bad_ctx_discipline"
      [ (7, "ctx-discipline"); (11, "ctx-discipline") ];
    Alcotest.test_case "ctx-discipline exempts lib/sim/ and non-lib paths" `Quick (fun () ->
        check_briefs "lib/sim exempt" []
          (lint_one ~kind:"bad" ~path:"lib/sim/ctx.ml" "bad_ctx_discipline");
        check_briefs "bench exempt" []
          (lint_one ~kind:"bad" ~path:"bench/bad_ctx_discipline.ml" "bad_ctx_discipline"));
    case "span-pairing: zero-width and split" ~path_dir:"lib/net/" "bad_span"
      [ (5, "span-pairing"); (10, "span-pairing") ];
    case "reasonless allow does not suppress; stale allow flagged" "bad_allow"
      [ (5, "allow-syntax"); (6, "wall-clock"); (8, "allow-unused") ];
    case "typed-only: renamed Random, opened Unix, float variables, array literal"
      ~path_dir:"lib/vmm/" "bad_typed_only"
      [ (8, "random-global"); (12, "wall-clock"); (13, "poly-compare");
        (14, "toplevel-mutable") ];
  ]

(* ---- path scoping ---- *)

let scope_tests =
  [
    Alcotest.test_case "escape rules exempt lib/sim/parallel.ml" `Quick
      (fun () ->
        let u = load ~kind:"bad" ~path:"lib/sim/parallel.ml" "bad_escape_capture" in
        check_briefs "only the module-level table"
          [ "lib/sim/parallel.ml:7 toplevel-mutable" ]
          (Driver.lint_units [ u ]));
    Alcotest.test_case "ctx-minted is scoped to lib/" `Quick (fun () ->
        let u = load ~kind:"bad" ~path:"bench/bad_ctx_minted.ml" "bad_ctx_minted" in
        check_briefs "bench exempt" [] (Driver.lint_units [ u ]));
    Alcotest.test_case "ctx-minted exempts lib/sim/" `Quick (fun () ->
        let u = load ~kind:"bad" ~path:"lib/sim/bad_ctx_minted.ml" "bad_ctx_minted" in
        check_briefs "sim exempt" [] (Driver.lint_units [ u ]));
    Alcotest.test_case "ctx-launder is scoped to lib/" `Quick (fun () ->
        let launder = load ~kind:"bad" ~path:"bench/helper.ml" "bad_ctx_launder" in
        let minted = load ~kind:"bad" "bad_ctx_minted" in
        let r = Driver.lint_units [ launder; minted ] in
        let in_bench =
          List.filter (fun (f : Report.finding) -> f.file = "bench/helper.ml")
            r.findings
        in
        Alcotest.(check (list string)) "bench exempt" []
          (List.map brief in_bench));
  ]

(* ---- good corpus: silence ---- *)

let good_file name unit =
  Alcotest.test_case name `Quick (fun () ->
      check_briefs name [] (lint_one ~kind:"good" ~path:("lib/sim/" ^ unit ^ ".ml") unit))

let good_tests =
  [
    good_file "sorted folds, Sim.Rng, typed compares" "good_determinism";
    good_file "local compare definition excuses bare uses" "good_local_compare";
    good_file "atomic + per-instance state in lib/" "good_domain_state";
    good_file "telemetry discipline followed" "good_telemetry";
    Alcotest.test_case "allow with reason suppresses cleanly" `Quick (fun () ->
        let r = lint_one ~kind:"good" ~path:"lib/sim/good_allow_clock.ml" "good_allow_clock" in
        check_briefs "no findings" [] r;
        Alcotest.(check int) "two suppressed" 2 r.suppressed);
  ]

(* ---- allow machinery ---- *)

let allows_tests =
  [
    Alcotest.test_case "good corpus: silent, one reasoned allow used" `Quick
      (fun () ->
        let r = Driver.lint_units (List.map (load ~kind:"good") good_names) in
        check_briefs "no findings" [] r;
        Alcotest.(check int) "good_allow suppression" 1 r.suppressed);
    Alcotest.test_case "lint.allow subtree entry suppresses" `Quick (fun () ->
        let entries, errors =
          Allow.parse_allow_file
            "lib/scope/ escape-capture corpus-wide policy exemption\n"
        in
        Alcotest.(check int) "no parse errors" 0 (List.length errors);
        let u = load ~kind:"bad" "bad_escape_capture" in
        let r = Driver.lint_units ~allow_entries:entries [ u ] in
        check_briefs "only the named rule is suppressed"
          [ "lib/scope/bad_escape_capture.ml:7 toplevel-mutable" ] r;
        Alcotest.(check int) "three dropped" 3 r.suppressed);
    Alcotest.test_case "stale allow is itself a finding" `Quick (fun () ->
        let u =
          load ~kind:"good" "good_immutable"
            ~source:"(* skulkscope: allow rng-order \xe2\x80\x94 never fires here *)\n"
        in
        check_briefs "allow-unused"
          [ "lib/scope/good_immutable.ml:1 allow-unused" ]
          (Driver.lint_units [ u ]));
    Alcotest.test_case "reasonless allow is itself a finding" `Quick (fun () ->
        let u =
          load ~kind:"good" "good_immutable"
            ~source:"(* skulkscope: allow escape-capture *)\n"
        in
        check_briefs "allow-syntax"
          [ "lib/scope/good_immutable.ml:1 allow-syntax" ]
          (Driver.lint_units [ u ]));
  ]

let allow_tests =
  [
    Alcotest.test_case "inline marker: rules, reason, two-line span" `Quick
      (fun () ->
        let src =
          "let a = 1\n\
           (* skulkscope: allow wall-clock, poly-compare \xe2\x80\x94 startup only *)\n\
           let b = now ()\n\
           let c = now ()\n"
        in
        let allows = Allow.scan_comments src in
        Alcotest.(check int) "one comment" 1 (List.length allows);
        Alcotest.(check bool) "covers own line" true
          (Allow.comment_covers allows ~line:2 ~rule:"wall-clock");
        Alcotest.(check bool) "covers next line, second rule" true
          (Allow.comment_covers allows ~line:3 ~rule:"poly-compare");
        Alcotest.(check bool) "not two lines below" false
          (Allow.comment_covers allows ~line:4 ~rule:"wall-clock");
        Alcotest.(check bool) "not other rules" false
          (Allow.comment_covers allows ~line:2 ~rule:"rng-escape");
        Alcotest.(check (list string)) "used allow produces no meta findings"
          []
          (List.map (fun (f : Report.finding) -> f.rule)
             (Allow.comment_findings ~file:"x.ml" allows)));
    Alcotest.test_case "markers are per-tool" `Quick (fun () ->
        let src tool = Printf.sprintf "(* %s: allow wall-clock \xe2\x80\x94 reason *)\n" tool in
        Alcotest.(check int) "another tool's marker is not an allow" 0
          (List.length (Allow.scan_comments (src "skulklint")));
        Alcotest.(check int) "skulkscope marker matches" 1
          (List.length (Allow.scan_comments (src "skulkscope"))));
    Alcotest.test_case "unused and reasonless allows become findings" `Quick
      (fun () ->
        let src =
          "(* skulkscope: allow wall-clock \xe2\x80\x94 reason *)\n\
           (* skulkscope: allow poly-compare *)\n"
        in
        let metas = Allow.comment_findings ~file:"x.ml" (Allow.scan_comments src) in
        Alcotest.(check (list string)) "meta findings"
          [ "allow-unused"; "allow-syntax" ]
          (List.map (fun (f : Report.finding) -> f.rule) metas));
    Alcotest.test_case "allow file: exact, subtree, malformed" `Quick (fun () ->
        let entries, errors =
          Allow.parse_allow_file
            "# comment\n\
             lib/a.ml wall-clock boot code reads the clock once\n\
             lib/harness/fuzz/ ctx-minted fuzz mints per-seed worlds\n\
             lib/broken.ml missing-reason\n"
        in
        Alcotest.(check int) "one malformed line" 1 (List.length errors);
        Alcotest.(check int) "two entries" 2 (List.length entries);
        let exact = List.nth entries 0 and subtree = List.nth entries 1 in
        Alcotest.(check bool) "exact path" true
          (Allow.entry_covers exact ~path:"lib/a.ml" ~rule:"wall-clock");
        Alcotest.(check bool) "exact path, other rule" false
          (Allow.entry_covers exact ~path:"lib/a.ml" ~rule:"poly-compare");
        Alcotest.(check bool) "subtree" true
          (Allow.entry_covers subtree ~path:"lib/harness/fuzz/exec.ml"
             ~rule:"ctx-minted");
        Alcotest.(check bool) "subtree does not cover siblings" false
          (Allow.entry_covers subtree ~path:"lib/harness/registry.ml"
             ~rule:"ctx-minted"));
  ]

(* ---- allow-file entries applied to a linted unit ---- *)

let allow_file_tests =
  [
    Alcotest.test_case "entry suppresses by exact path" `Quick (fun () ->
        let entries, errors =
          Allow.parse_allow_file "lib/sim/x.ml wall-clock calibration reads the host clock\n"
        in
        Alcotest.(check int) "no parse errors" 0 (List.length errors);
        let r =
          lint_one ~allow_entries:entries ~kind:"bad" ~path:"lib/sim/x.ml" "bad_wall_clock"
        in
        check_briefs "suppressed" [] r;
        Alcotest.(check int) "three suppressed" 3 r.suppressed);
    Alcotest.test_case "trailing-slash entry covers the subtree" `Quick (fun () ->
        let entries, _ = Allow.parse_allow_file "bench/ wall-clock bench measures wall time\n" in
        check_briefs "subtree suppressed" []
          (lint_one ~allow_entries:entries ~kind:"bad" ~path:"bench/deep/x.ml" "bad_wall_clock");
        check_briefs "other paths still fire"
          [ "lib/sim/x.ml:2 wall-clock"; "lib/sim/x.ml:3 wall-clock"; "lib/sim/x.ml:4 wall-clock" ]
          (lint_one ~allow_entries:entries ~kind:"bad" ~path:"lib/sim/x.ml" "bad_wall_clock"));
    Alcotest.test_case "entry without a reason is a syntax error" `Quick (fun () ->
        let entries, errors = Allow.parse_allow_file "lib/sim/x.ml wall-clock\n" in
        Alcotest.(check int) "no entry" 0 (List.length entries);
        Alcotest.(check int) "one error" 1 (List.length errors));
    Alcotest.test_case "comments and blanks are skipped" `Quick (fun () ->
        let entries, errors = Allow.parse_allow_file "# header\n\n# another\n" in
        Alcotest.(check int) "no entries" 0 (List.length entries);
        Alcotest.(check int) "no errors" 0 (List.length errors));
  ]

(* ---- GitHub annotation format ---- *)

let github_tests =
  [
    Alcotest.test_case "annotation shape and escaping" `Quick (fun () ->
        let f =
          { Report.rule = "wall-clock"; file = "lib/a.ml"; line = 4; col = 3;
            message = "50%\nbroken" }
        in
        Alcotest.(check string) "annotation"
          "::error file=lib/a.ml,line=4,col=3,title=skulkscope wall-clock::50%25%0Abroken"
          (Format.asprintf "%a" Report.pp_github f));
    Alcotest.test_case "zero line/col clamp to 1" `Quick (fun () ->
        let f = { Report.rule = "r"; file = "a.ml"; line = 0; col = 0; message = "m" } in
        Alcotest.(check string) "clamped" "::error file=a.ml,line=1,col=1,title=skulkscope r::m"
          (Format.asprintf "%a" Report.pp_github f));
  ]

(* ---- the lint pass itself ---- *)

let meta_tests =
  [
    Alcotest.test_case "linting is deterministic" `Quick (fun () ->
        let report units =
          List.map (Format.asprintf "%a" Report.pp_human) (Driver.lint_units units).findings
        in
        let units = List.map (load ~kind:"bad") bad_names in
        Alcotest.(check (list string)) "unit order does not matter" (report units)
          (report (List.rev units)));
    Alcotest.test_case "every catalogue rule is exercised by the bad corpus" `Quick (fun () ->
        let asserted rule =
          List.exists
            (fun b -> String.ends_with ~suffix:(" " ^ rule.Rules.name) b)
            expected_bad
        in
        List.iter
          (fun rule ->
            if not (asserted rule) then
              Alcotest.failf "rule %s has no asserted file:line" rule.Rules.name)
          Rules.catalogue);
  ]

(* Three runs: Alcotest pads the suite column to the longest suite
   name in a run and truncates test names to fit the line, so the
   suites are grouped as they have always been printed and every test
   keeps its printed name: the typed-analysis suites, the per-rule and
   per-file suites, and the report/allow plumbing. A failing run still
   lets the later ones run before the exit. *)
let () =
  let run name suites =
    match Alcotest.run ~and_exit:false name suites with
    | () -> true
    | exception Alcotest.Test_error -> false
  in
  let analysis =
    run "skulkscope"
      [ ("bad corpus", bad_tests); ("scoping", scope_tests); ("allows", allows_tests) ]
  in
  let rules =
    run "skulkscope-rules"
      [ ("bad-corpus", rule_tests); ("good-corpus", good_tests);
        ("allow-file", allow_file_tests); ("meta", meta_tests) ]
  in
  let report = run "skulkscope-report" [ ("allow", allow_tests); ("github", github_tests) ] in
  if not (analysis && rules && report) then exit 1
