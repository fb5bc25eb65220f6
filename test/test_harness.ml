(* Tests for the context/harness layer: Sim.Ctx forking semantics,
   deterministic child contexts under Sim.Parallel.map_ctx at any
   worker count, and the experiment registry's flag surface (golden
   --list lines and --help contents). *)

let contains_sub hay needle =
  let n = String.length hay and m = String.length needle in
  if m = 0 then true
  else begin
    let rec scan i = i + m <= n && (String.sub hay i m = needle || scan (i + 1)) in
    scan 0
  end

let draws ctx n =
  let rng = Sim.Ctx.fork_rng ctx in
  List.init n (fun _ -> Sim.Rng.int rng 1_000_000)

(* ---- Ctx forking ---- *)

let ctx_tests =
  [
    Alcotest.test_case "fork replays the seed: two forks draw identically" `Quick (fun () ->
        let parent = Sim.Ctx.create ~seed:5 () in
        let a = Sim.Ctx.fork parent and b = Sim.Ctx.fork parent in
        Alcotest.(check (list int)) "same stream" (draws a 16) (draws b 16));
    Alcotest.test_case "fork matches a fresh create at the same seed" `Quick (fun () ->
        let forked = Sim.Ctx.fork (Sim.Ctx.create ~seed:5 ()) in
        let fresh = Sim.Ctx.create ~seed:5 () in
        Alcotest.(check (list int)) "same stream" (draws fresh 16) (draws forked 16));
    Alcotest.test_case "draining a fork leaves the parent untouched" `Quick (fun () ->
        let undisturbed = draws (Sim.Ctx.create ~seed:5 ()) 16 in
        let parent = Sim.Ctx.create ~seed:5 () in
        ignore (draws (Sim.Ctx.fork parent) 64);
        Alcotest.(check (list int)) "parent stream intact" undisturbed (draws parent 16));
    Alcotest.test_case "with_seed changes the stream and the seed" `Quick (fun () ->
        let parent = Sim.Ctx.create ~seed:5 () in
        let child = Sim.Ctx.with_seed parent 6 in
        Alcotest.(check int) "seed" 6 (Sim.Ctx.seed child);
        Alcotest.(check bool) "different stream" false (draws child 16 = draws parent 16));
    Alcotest.test_case "fork shares sink and faults" `Quick (fun () ->
        let t = Sim.Telemetry.create () in
        let parent = Sim.Ctx.create ~seed:5 ~telemetry:t ~faults:Sim.Fault.flaky () in
        let child = Sim.Ctx.fork parent in
        Alcotest.(check bool) "sink shared" true
          (match Sim.Ctx.telemetry child with Some x -> x == t | None -> false);
        Alcotest.(check bool) "faults shared" true
          (Sim.Ctx.faults child == Sim.Fault.flaky));
  ]

(* ---- map_ctx child derivation and --jobs independence ---- *)

let parallel_tests =
  [
    Alcotest.test_case "children get seed+i by default" `Quick (fun () ->
        let ctx = Sim.Ctx.create ~seed:100 () in
        let seeds = Sim.Parallel.map_ctx ~ctx ~trials:4 (fun _ c -> Sim.Ctx.seed c) in
        Alcotest.(check (list int)) "derived" [ 100; 101; 102; 103 ] seeds);
    Alcotest.test_case "seed_of overrides the derivation" `Quick (fun () ->
        let ctx = Sim.Ctx.create ~seed:100 () in
        let seeds =
          Sim.Parallel.map_ctx ~seed_of:(fun i -> 7 * i) ~ctx ~trials:3 (fun _ c ->
              Sim.Ctx.seed c)
        in
        Alcotest.(check (list int)) "override" [ 0; 7; 14 ] seeds);
    Alcotest.test_case "child draws are identical at jobs 1, 4 and 0" `Quick (fun () ->
        let batch jobs =
          Sim.Parallel.map_ctx ~jobs ~ctx:(Sim.Ctx.create ~seed:3 ()) ~trials:8
            (fun i c -> (i, draws c 8))
        in
        let j1 = batch 1 in
        Alcotest.(check bool) "jobs 4" true (batch 4 = j1);
        Alcotest.(check bool) "all cores" true (batch 0 = j1));
    Alcotest.test_case "scenario verdicts are jobs-independent" `Slow (fun () ->
        let batch jobs =
          Sim.Parallel.map_ctx ~jobs ~ctx:(Sim.Ctx.create ~seed:1 ()) ~trials:3
            (fun _ child ->
              let sc = Cloudskulk.Scenarios.infected child in
              match Cloudskulk.Dedup_detector.run sc.Cloudskulk.Scenarios.detector_env with
              | Ok o ->
                Cloudskulk.Dedup_detector.verdict_to_string
                  o.Cloudskulk.Dedup_detector.verdict
              | Error e -> e)
        in
        Alcotest.(check (list string)) "same verdicts" (batch 1) (batch 4));
  ]

(* ---- the registry's flag surface ---- *)

(* The registry is a process-global; register the synthetic specs once
   and observe them through list_lines and term evaluation. *)
let seen_seed = ref (-1)
let seen_trials = ref (-1)
let seen_jobs = ref (-1)
let seen_faulty = ref false

let () =
  Harness.Registry.register
    (Harness.Experiment.make ~default_seed:33 ~id:"alpha" ~doc:"first synthetic experiment"
       (fun p ->
         seen_seed := Sim.Ctx.seed p.Harness.Experiment.ctx;
         seen_trials := p.Harness.Experiment.trials;
         seen_jobs := p.Harness.Experiment.jobs;
         seen_faulty := Sim.Ctx.faults p.Harness.Experiment.ctx != Sim.Fault.none));
  Harness.Registry.register
    (Harness.Experiment.make ~id:"beta" ~doc:"second synthetic experiment" (fun _ -> ()))

let eval argv =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  let cmd =
    Cmdliner.Cmd.v
      (Cmdliner.Cmd.info "bench" ~doc:"test registry shell")
      (Harness.Registry.term ~prologue:[])
  in
  let code = Cmdliner.Cmd.eval ~help:fmt ~err:fmt ~argv cmd in
  Format.pp_print_flush fmt ();
  (code, Buffer.contents buf)

let registry_tests =
  [
    Alcotest.test_case "golden --list lines" `Quick (fun () ->
        Alcotest.(check (list string))
          "list"
          [
            "alpha          first synthetic experiment";
            "beta           second synthetic experiment";
          ]
          (Harness.Registry.list_lines ()));
    Alcotest.test_case "golden --help covers the unified flag surface" `Quick (fun () ->
        let code, help = eval [| "bench"; "--help=plain" |] in
        Alcotest.(check int) "exit ok" 0 code;
        List.iter
          (fun flag ->
            Alcotest.(check bool) (flag ^ " documented") true (contains_sub help flag))
          [
            "--only"; "--trials"; "--runs"; "--jobs"; "--seed"; "--faults";
            "--metrics-out"; "--trace-out"; "--list";
          ]);
    Alcotest.test_case "--only runs the spec with its default seed" `Quick (fun () ->
        let code, _ = eval [| "bench"; "--only"; "alpha" |] in
        Alcotest.(check int) "exit ok" 0 code;
        Alcotest.(check int) "default seed" 33 !seen_seed;
        Alcotest.(check int) "default trials" 5 !seen_trials;
        Alcotest.(check int) "default jobs" 1 !seen_jobs;
        Alcotest.(check bool) "no faults" false !seen_faulty);
    Alcotest.test_case "--seed/--trials/--jobs/--faults reach the body" `Quick (fun () ->
        let code, _ =
          eval
            [|
              "bench"; "--only"; "alpha"; "--seed"; "9"; "--trials"; "2"; "--jobs"; "4";
              "--faults"; "lossy";
            |]
        in
        Alcotest.(check int) "exit ok" 0 code;
        Alcotest.(check int) "seed" 9 !seen_seed;
        Alcotest.(check int) "trials" 2 !seen_trials;
        Alcotest.(check int) "jobs" 4 !seen_jobs;
        Alcotest.(check bool) "faulty ctx" true !seen_faulty);
    Alcotest.test_case "unknown --only id is a cli error" `Quick (fun () ->
        let code, err = eval [| "bench"; "--only"; "nonesuch" |] in
        Alcotest.(check int) "cli error" Cmdliner.Cmd.Exit.cli_error code;
        Alcotest.(check bool) "mentions --list" true (contains_sub err "--list"));
    Alcotest.test_case "bad --faults profile is a cli error" `Quick (fun () ->
        let code, _ = eval [| "bench"; "--only"; "alpha"; "--faults"; "nonesuch" |] in
        Alcotest.(check int) "cli error" Cmdliner.Cmd.Exit.cli_error code);
  ]

let () =
  Alcotest.run "harness"
    [
      ("ctx", ctx_tests);
      ("map_ctx", parallel_tests);
      ("registry", registry_tests);
    ]
