(* skulkbench: one run of one workload.

   Every round runs in a fresh process of its own (--one-round), which
   hands the round back to this one. A fresh process gives every round
   the same empty heap and its own peak memory.

   Untraced (--trace 0): repeat the round while half of another one
   still fits in --seconds of host time (at least one round), then
   report the end-to-end metrics over the rounds.

   Traced (--trace 1): one untraced round, then two rounds with a
   telemetry sink and the benchmark's spans. The traced rounds must
   reproduce the untraced digest and agree exactly with each other on
   every count; the first of them supplies the per-layer metrics.

   The last line of standard output is the JSON result. *)

open Skulkbench

let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--pins FILE] [--spans DIR] [--print-digest]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25. and trace = ref 0 in
  let pins = ref "" and spans_dir = ref "" and print_digest = ref false and one_round = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME fleet-churn | detect-pairs | migrate-compile");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S host seconds to keep repeating rounds (default 25)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
      ("--pins", Arg.Set_string pins, "FILE pinned digests, lines of: workload seed md5");
      ("--spans", Arg.Set_string spans_dir, "DIR write the traced run's spans here as JSON lines");
      ("--print-digest", Arg.Set print_digest, " run one untraced round and print its digest");
      ( "--one-round",
        Arg.Set one_round,
        " run one round and marshal it, its spans and this process's peak memory to stdout" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Workloads.of_name !workload with
    | Some w -> w
    | None ->
      prerr_endline ("skulkbench: unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  in
  let seed = !seed in
  let round ?tracer () = Workloads.round w ~size:Workloads.Full ~seed ~tracer in
  if !one_round then begin
    let tracer = if !trace = 1 then Some (Tracer.create ()) else None in
    let r = round ?tracer () in
    set_binary_mode_out stdout true;
    Marshal.to_channel stdout
      (r, Option.fold ~none:[] ~some:Tracer.spans tracer, Clock.peak_rss_mb ())
      [];
    exit 0
  end;
  if !print_digest then begin
    Printf.printf "%s %d %s\n" (Workloads.name w) seed (round ()).Workloads.digest;
    exit 0
  end;
  let pin = if !pins = "" then Report.Unpinned else Report.find_pin (Report.read_pins !pins) w ~seed in
  Printf.printf "skulkbench %s: seed %d, trace %d, cores %d, ocaml %s, jobs %d, shards %d\n%!"
    (Workloads.name w) seed !trace (Clock.cores ()) Sys.ocaml_version
    (if w = Workloads.Fleet_churn then Workloads.fleet_jobs else 1)
    (if w = Workloads.Fleet_churn then Workloads.fleet_shards else 1);
  let child ~traced =
    let exe = Sys.executable_name in
    let ic =
      Unix.open_process_args_in exe
        [|
          exe; "--workload"; Workloads.name w; "--seed"; string_of_int seed;
          "--trace"; (if traced then "1" else "0"); "--one-round";
        |]
    in
    let r : (Workloads.round * Tracer.span list * float, exn) result =
      try Ok (Marshal.from_channel ic) with e -> Error e
    in
    match (Unix.close_process_in ic, r) with
    | Unix.WEXITED 0, Ok r -> r
    | _ -> failwith "skulkbench: a round process failed"
  in
  let rounds, extra, metrics =
    if !trace = 0 then begin
      (* start another round while at least half a round of the mean
         length so far still fits in --seconds, so a run overruns it by
         at most about half a round *)
      let t0 = Clock.now_ns () in
      let rec go acc n =
        let acc = child ~traced:false :: acc and elapsed = Clock.since t0 in
        if elapsed +. (0.5 *. elapsed /. float_of_int n) > !seconds then List.rev acc
        else go acc (n + 1)
      in
      let rounds, rss = List.split (List.map (fun (r, _, rss) -> (r, rss)) (go [] 1)) in
      (* each operation's host seconds in every round, in round order *)
      List.iteri
        (fun i o ->
          Printf.printf "op %s:%s\n" o.Workloads.what
            (String.concat ""
               (List.map
                  (fun r -> Printf.sprintf " %.3f" (List.nth r.Workloads.ops i).Workloads.op_s)
                  rounds)))
        (List.hd rounds).Workloads.ops;
      let metrics = Report.end_to_end ~peak_rss_mb:rss rounds in
      let n, p50 = Report.op_p50_ms rounds in
      Printf.printf "rounds %d; wall_s %.6f s; op_p50_ms %s\n" (List.length rounds)
        (Report.wall_s rounds)
        (match p50 with
         | Some ms -> Printf.sprintf "%.3f ms over %d operations" ms n
         | None -> Printf.sprintf "n/a (%d operations < %d)" n Report.min_ops);
      (rounds, [], metrics)
    end
    else begin
      let untraced, _, _ = child ~traced:false in
      let a, spans, _ = child ~traced:true in
      let b, _, _ = child ~traced:true in
      let extra =
        if Report.exact_counts a = Report.exact_counts b then []
        else [ "two traced rounds of the same inputs disagree on their counts" ]
      in
      if !spans_dir <> "" then begin
        (try Sys.mkdir !spans_dir 0o755 with Sys_error _ -> ());
        Tracer.write_jsonl spans
          (Filename.concat !spans_dir (Printf.sprintf "%s-seed%d.jsonl" (Workloads.name w) seed))
      end;
      List.iter
        (fun (name, s) -> Printf.printf "self time %-22s %10.4f s\n" name s)
        (Tracer.self_times spans);
      ([ untraced; a; b ], extra, Report.per_layer ~untraced ~traced:a ~spans)
    end
  in
  let verdict = Report.account ~extra ~pin rounds in
  Printf.printf "digest %s (%s)\n" (List.hd rounds).Workloads.digest
    (match pin with Report.Pinned _ -> "pinned" | Unpinned -> "no pin for this seed");
  List.iter
    (fun m -> Printf.printf "%-28s %16.6f %s\n" m.Report.m_name m.Report.value m.Report.unit)
    metrics;
  Printf.printf "fail_ratio %g (%d of %d operations failed)\n"
    (float_of_int verdict.Report.failed /. float_of_int (max 1 verdict.Report.attempted))
    verdict.Report.failed verdict.Report.attempted;
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) verdict.Report.problems;
  print_endline (Report.result_json ~verdict metrics)
