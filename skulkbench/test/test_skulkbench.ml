(* The benchmark's own checks, on the seconds-long size of each
   workload: the digest check and its failure accounting, exact counts
   across traced rounds, and the fleet re-drive's equality with
   Fleet.World.run. *)

open Skulkbench

let seed = 3

let round ?tracer w = Workloads.round w ~size:Workloads.Small ~seed ~tracer

let traced w =
  let tracer = Tracer.create () in
  (round ~tracer w, tracer)

let per_workload f = List.map (fun w -> Alcotest.test_case (Workloads.name w) `Quick (f w)) Workloads.all

let test_digest_check w () =
  let a = round w and b = round w in
  Alcotest.(check string) "rounds of the same seed give the same digest" a.digest b.digest;
  Alcotest.(check bool) "every operation succeeds" true (List.for_all (fun o -> o.Workloads.ok) a.ops);
  let v = Report.account ~pin:(Report.Pinned a.digest) [ a; b ] in
  Alcotest.(check int) "attempted" (2 * List.length a.ops) v.Report.attempted;
  Alcotest.(check int) "none failed against the right pin" 0 v.Report.failed;
  let v = Report.account ~pin:Report.Unpinned [ a ] in
  Alcotest.(check int) "an unpinned seed is still checked, and passes" 0 v.Report.failed

let test_wrong_pin w () =
  let a = round w in
  let v = Report.account ~pin:(Report.Pinned (String.make 32 '0')) [ a; a ] in
  Alcotest.(check bool) "there are operations" true (v.Report.attempted > 0);
  Alcotest.(check int) "a wrong pinned digest fails every operation" v.Report.attempted
    v.Report.failed

let test_rounds_disagree () =
  let a = round Workloads.Detect_pairs in
  let b = { a with Workloads.digest = "changed" } in
  let v = Report.account ~pin:Report.Unpinned [ a; b ] in
  Alcotest.(check int) "rounds that disagree fail every operation" v.Report.attempted v.Report.failed;
  let v = Report.account ~extra:[ "counts differ" ] ~pin:Report.Unpinned [ a ] in
  Alcotest.(check int) "a run-wide fault fails every operation" v.Report.attempted v.Report.failed

let test_per_op_median () =
  let r = round Workloads.Detect_pairs in
  let with_times ts =
    { r with Workloads.ops = List.map (fun t -> { (List.hd r.ops) with Workloads.op_s = t }) ts }
  in
  let rounds = [ with_times [ 1.; 10. ]; with_times [ 3.; 20. ]; with_times [ 2.; 300. ] ] in
  Alcotest.(check (float 1e-9)) "sum over operations of each one's median over rounds" 22.
    (Report.per_op Report.median (fun o -> o.Workloads.op_s) rounds);
  Alcotest.(check (float 1e-9)) "sum over operations of each one's fastest round" 11.
    (Report.per_op Report.fastest (fun o -> o.Workloads.op_s) rounds)

let test_exact_counts w () =
  let untraced = round w in
  let a, tracer = traced w and b, _ = traced w in
  Alcotest.(check string) "tracing does not change the simulation" untraced.digest a.digest;
  Alcotest.(check bool) "two traced rounds agree exactly on every count" true
    (Report.exact_counts a = Report.exact_counts b);
  Alcotest.(check bool) "the traced round carries telemetry" true (a.counts <> []);
  let names =
    List.map (fun m -> m.Report.m_name)
      (Report.per_layer ~untraced ~traced:a ~spans:(Tracer.spans tracer))
  in
  Alcotest.(check int) "per-layer names are unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_fleet_redrive () =
  let spec = Workloads.fleet_spec Workloads.Small in
  let ctx () = Workloads.world_ctx ~seed 0 in
  let plain = Fleet.World.run ~jobs:Workloads.fleet_jobs ~shards:Workloads.fleet_shards (ctx ()) spec in
  let tracer = Tracer.create () in
  let again, measures =
    Workloads.redrive ~tracer:(Some tracer) ~parent:(-1)
      (Workloads.world_ctx ~telemetry:(Sim.Telemetry.create ()) ~seed 0)
      spec
  in
  Alcotest.(check string) "re-drive renders as World.run" (Fleet.World.render plain)
    (Fleet.World.render again);
  Alcotest.(check bool) "re-drive conserves as World.run" true
    (Fleet.World.conservation plain = Fleet.World.conservation again);
  Alcotest.(check int) "one create span per host" spec.Fleet.Spec.hosts
    (List.length
       (List.filter (fun s -> s.Tracer.name = "fleet.host_create") (Tracer.spans tracer)));
  Alcotest.(check bool) "slowest member steps at least the mean" true
    (List.assoc "fleet.step_straggler_ratio" measures >= 1.)

let test_self_time () =
  let t = Tracer.create () in
  Tracer.span (Some t) ~op:1 "parent" (fun parent ->
      Tracer.span (Some t) ~parent ~op:1 "child" (fun _ -> Unix.sleepf 0.02);
      Unix.sleepf 0.01);
  let self = Tracer.self_times (Tracer.spans t) in
  Alcotest.(check bool) "parent self time excludes its child" true
    (List.assoc "parent" self < Tracer.total (Tracer.spans t) "parent" -. 0.015);
  Alcotest.(check (float 1e-9)) "overlapping children count once" 4.
    (Tracer.covered ~lo:0. ~hi:10. [ (1., 3.); (2., 4.); (6., 7.) ])

let () =
  Alcotest.run "skulkbench"
    [
      ("digest check", per_workload test_digest_check);
      ("wrong pin", per_workload test_wrong_pin);
      ("run-wide faults", [ Alcotest.test_case "rounds disagree" `Quick test_rounds_disagree ]);
      ("per-operation statistics", [ Alcotest.test_case "median and minimum" `Quick test_per_op_median ]);
      ("exact counts", per_workload test_exact_counts);
      ("fleet re-drive", [ Alcotest.test_case "equals World.run" `Quick test_fleet_redrive ]);
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
    ]
