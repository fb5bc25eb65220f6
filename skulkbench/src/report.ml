(* Turning rounds into the benchmark's verdict and metrics: the output
   check (digest against the pin, rounds against each other, traced
   counts against a second traced run), the failure accounting, the
   end-to-end metrics of an untraced run and the per-layer metrics of a
   traced one. The names and units here are the benchmark's contract;
   skulkbench/README.md documents them. *)

open Workloads

type pin = Pinned of string | Unpinned

let read_pins path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line -> (
          match String.split_on_char ' ' (String.trim line) with
          | [ w; seed; digest ] when w <> "" && w.[0] <> '#' ->
            go ((w, int_of_string seed, digest) :: acc)
          | _ -> go acc)
      in
      go [])

let find_pin pins w ~seed =
  match List.find_opt (fun (w', s, _) -> w' = name w && s = seed) pins with
  | Some (_, _, d) -> Pinned d
  | None -> Unpinned

type verdict = {
  attempted : int;
  failed : int;
  problems : string list;  (** why operations failed, first cause first *)
}

(* Every operation of every round is attempted. One that produced a
   wrong outcome fails; if the run's digest is off its pin, or its
   rounds disagree, or [extra] names a run-wide fault, every operation
   of the run fails. *)
let account ?(extra = []) ~pin rounds =
  let ops = List.concat_map (fun r -> r.ops) rounds in
  let digest = match rounds with r :: _ -> r.digest | [] -> "" in
  let run_wide =
    List.concat
      [
        (if List.for_all (fun r -> r.digest = digest) rounds then []
         else [ "rounds of one run disagree on the simulated outcome" ]);
        (match pin with
         | Pinned d when d <> digest ->
           [ Printf.sprintf "digest %s differs from the pinned %s" digest d ]
         | _ -> []);
        extra;
      ]
  in
  let bad = List.filter (fun o -> not o.ok) ops in
  {
    attempted = List.length ops;
    failed = (if run_wide <> [] then List.length ops else List.length bad);
    problems = run_wide @ List.map (fun o -> o.what) bad;
  }

let median xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

type metric = { m_name : string; unit : string; value : float }

(* Every round runs the same operations in the same order, so the i-th
   operation of each round is one more measurement of the same work.
   [per_op stat] sums, over the operations, [stat] of each one's
   measurements. Contention from other tenants of the host only ever
   adds time, and on a shared machine it comes in bursts of seconds, so
   an operation's fastest round is its steadiest estimate: [wall_s]
   takes the minimum. [setup_s] takes the median. *)
let per_op stat f rounds =
  let per_round = List.map (fun r -> Array.of_list (List.map f r.ops)) rounds in
  let n = List.fold_left (fun n a -> min n (Array.length a)) max_int per_round in
  List.init (if per_round = [] then 0 else n) (fun i ->
      stat (List.map (fun a -> a.(i)) per_round))
  |> List.fold_left ( +. ) 0.

let fastest = List.fold_left Float.min Float.infinity

let wall_s rounds = per_op fastest (fun o -> o.op_s) rounds

(* The throughput headline: simulated VM-seconds per host second of
   [wall_s]. At one seed the simulated work is fixed, so it moves
   exactly as [wall_s] does. Across seeds it also divides out how much
   work a seed's worlds happen to hold (migrate-compile's nested
   migrations send 3.2M to 11.6M pages), which [wall_s] carries. *)
let vm_sim_s_per_s rounds =
  match rounds with r :: _ -> r.vm_sim_s /. wall_s rounds | [] -> Float.nan

(* The gated end-to-end metrics, as BENCHMARK.json lists them. [wall_s]
   is printed beside them. *)
let end_to_end ~peak_rss_mb rounds =
  [
    { m_name = "vm_sim_s_per_s"; unit = "VM-s/s"; value = vm_sim_s_per_s rounds };
    { m_name = "setup_s"; unit = "s"; value = per_op median (fun o -> o.op_setup_s) rounds };
    { m_name = "peak_rss_mb"; unit = "MB"; value = median peak_rss_mb };
  ]

(* Median operation time, reported only where the run has at least
   [min_ops] operations. *)
let min_ops = 20

let op_p50_ms rounds =
  let ops = List.concat_map (fun r -> r.ops) rounds in
  let n = List.length ops in
  (n, if n >= min_ops then Some (1e3 *. median (List.map (fun o -> o.op_s) ops)) else None)

(* Per-layer metrics of a traced run. [untraced] is a round of the same
   inputs without telemetry or spans (allocation and per-event time
   come from it), [traced] the round [spans] and the telemetry counts
   belong to. A metric whose layer the workload does not call reads 0. *)
let per_layer ~untraced ~traced ~spans =
  let c k = Option.value ~default:0. (List.assoc_opt k traced.counts) in
  let m k = Option.value ~default:0. (List.assoc_opt k traced.measures) in
  let mu k = Option.value ~default:0. (List.assoc_opt k untraced.measures) in
  let span = Tracer.total spans in
  let ratio a b = if b > 0. then a /. b else 0. in
  let count name v = { m_name = name; unit = "count"; value = v } in
  let secs name v = { m_name = name; unit = "s"; value = v } in
  let mw name v = { m_name = name; unit = "Mwords"; value = v } in
  let events = float_of_int traced.events in
  [
    count "sim.events" events;
    { m_name = "sim.ns_per_event"; unit = "ns"; value = ratio (untraced.wall_s *. 1e9) events };
    mw "sim.minor_mw" (untraced.minor_words /. 1e6);
    count "sim.shard_epochs" (c "sim_shard_epochs_total");
    count "sim.shard_messages" (c "sim_shard_messages_total");
    secs "sim.barrier_wait_s" (m "sim.barrier_wait_s");
    count "memory.ksm_pages_scanned" (c "ksm_pages_scanned_total");
    count "memory.ksm_scan_passes" (c "ksm_scan_passes_total");
    count "memory.ksm_volatile_skipped" (c "ksm_pages_volatile_skipped_total");
    {
      m_name = "memory.ksm_merge_yield";
      unit = "ratio";
      value = ratio (c "ksm_pages_merged_total") (c "ksm_pages_scanned_total");
    };
    count "memory.dirty_pages_drained" (c "memory_dirty_pages_drained_total");
    count "memory.cow_breaks" (c "memory_cow_breaks_total");
    count "net.packets_delivered" (c "net_packets_delivered_total");
    count "net.packets_dropped" (c "net_packets_dropped_total");
    { m_name = "net.bytes_carried"; unit = "bytes"; value = c "net_bytes_carried_total" };
    count "vmm.launches" (c "vmm_vm_launches_total");
    count "vmm.kills" (c "vmm_vm_kills_total");
    count "vmm.monitor_commands" (c "vmm_monitor_commands_total");
    secs "vmm.pair_setup_s" (span "vmm.pair_setup");
    count "migration.rounds" (c "migration_rounds_total");
    count "migration.pages_sent" (c "migration_pages_sent_total");
    {
      m_name = "migration.resend_ratio";
      unit = "ratio";
      value = ratio (c "migration_pages_sent_total") (m "migration.guest_pages");
    };
    count "migration.retransmits" (c "migration_retransmits_total");
    secs "migration.busy_s" (span "migration.migrate");
    mw "migration.minor_mw" (mu "migration.minor_mw");
    secs "workload.warmup_s" (span "workload.warmup");
    secs "cloudskulk.scenario_s" (span "cloudskulk.scenario");
    secs "cloudskulk.detect_s" (span "cloudskulk.detect");
    mw "cloudskulk.detect_minor_mw" (mu "cloudskulk.detect_minor_mw");
    count "cloudskulk.probes" (c "cloudskulk_probes_total");
    count "cloudskulk.detector_probes" (c "detector_probes_total");
    count "cloudskulk.budget_deferrals" (c "detector_budget_exhausted_total");
    count "cloudskulk.probe_failures" (c "detector_probe_failures_total");
    secs "fleet.host_create_s" (span "fleet.host_create");
    secs "fleet.step_s" (span "fleet.step");
    secs "fleet.deliver_s" (span "fleet.deliver");
    { m_name = "fleet.step_straggler_ratio"; unit = "ratio"; value = m "fleet.step_straggler_ratio" };
    count "fleet.messages" (c "fleet_messages_sent_total");
    count "fleet.migrations" (c "fleet_migrations_total");
    secs "trace.overhead_s" (traced.wall_s -. untraced.wall_s);
  ]

(* What two traced runs of the same inputs must agree on exactly. *)
let exact_counts r = (r.events, r.counts)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_json ~verdict metrics =
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (json_number m.value) m.unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (verdict.failed = 0) verdict.attempted verdict.failed (String.concat ", " body)
