(* The three workloads, each as one deterministic round of operations.
   An operation is preceded by its own set-up (world construction and
   warm-up, timed as [op_setup_s]) and timed itself as [op_s]. A round
   is a pure function of the workload seed and size: every world it
   builds gets a seed derived from the workload seed through
   [Sim.Ctx.fork_member], and nothing else enters. Rounds repeat in a
   run so that every set-up and operation is measured several times. *)

(* [Small] is a seconds-long version of each workload for the
   benchmark's own tests. *)
type size = Full | Small

type workload = Fleet_churn | Detect_pairs | Migrate_compile

let all = [ Fleet_churn; Detect_pairs; Migrate_compile ]

let name = function
  | Fleet_churn -> "fleet-churn"
  | Detect_pairs -> "detect-pairs"
  | Migrate_compile -> "migrate-compile"

let of_name s = List.find_opt (fun w -> name w = s) all

type op = {
  op_s : float;  (** host seconds of the operation *)
  op_setup_s : float;  (** host seconds spent building its world *)
  ok : bool;  (** the simulated outcome is the right one *)
  what : string;  (** the outcome, for the failure report *)
}

type round = {
  setup_s : float;
  wall_s : float;
  vm_sim_s : float;
      (** simulated seconds each world advanced in the timed phase,
          times the VMs resident in it at the start of the phase *)
  ops : op list;
  digest : string;  (** MD5 of the simulated outcomes *)
  events : int;  (** engine events in the timed phase *)
  minor_words : float;  (** minor-heap words allocated in the timed phase *)
  measures : (string * float) list;
      (** per-layer figures the round takes itself (allocation around
          named calls, fleet straggling), keyed by metric name *)
  counts : (string * float) list;
      (** telemetry series over the timed phase, summed over labels;
          empty when the round ran without a sink *)
}

let fleet_shards = 2
let fleet_jobs = 2

let world_ctx ?telemetry ~seed k =
  Sim.Ctx.fork_member (Sim.Ctx.create ~seed ?telemetry ()) ~member:k

(* Telemetry series summed over their labels: "ksm_pages_scanned_total"
   for every "ksm_pages_scanned_total{...}". *)
let snapshot sink =
  match sink with
  | None -> []
  | Some t ->
    let tbl = Hashtbl.create 64 in
    Sim.Telemetry.fold_series t ~init:() ~f:(fun () key v ->
        let base = match String.index_opt key '{' with Some i -> String.sub key 0 i | None -> key in
        Hashtbl.replace tbl base (v +. Option.value ~default:0. (Hashtbl.find_opt tbl base)));
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let diff_counts after before =
  List.map (fun (k, v) -> (k, v -. Option.value ~default:0. (List.assoc_opt k before))) after

let add_counts a b =
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  let get l k = Option.value ~default:0. (List.assoc_opt k l) in
  List.map (fun k -> (k, get a k +. get b k)) keys

let resident hv = List.length (List.filter Vmm.Vm.is_alive (Vmm.Hypervisor.vms hv))

let md5 parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* ---- fleet-churn ---------------------------------------------------- *)

let fleet_spec = function
  | Full ->
    {
      Fleet.Spec.default with
      Fleet.Spec.hosts = 125;
      racks = 15;
      tenants_per_host = 7;
      duration = Sim.Time.minutes 60.;
    }
  | Small ->
    {
      Fleet.Spec.default with
      Fleet.Spec.hosts = 8;
      racks = 2;
      tenants_per_host = 3;
      duration = Sim.Time.minutes 30.;
    }

let fleet_ok r =
  Result.is_ok (Fleet.World.conservation r)
  && Fleet.World.detected_hosts r >= Fleet.World.infected_hosts r

let fleet_what r =
  Printf.sprintf "conservation %s, detected %d/%d infected hosts"
    (match Fleet.World.conservation r with Ok () -> "OK" | Error e -> e)
    (Fleet.World.detected_hosts r) (Fleet.World.infected_hosts r)

(* [Fleet.World.run], driven the way it drives itself, with the
   member calls wrapped so their host time is seen per member. The
   caller checks that the result renders exactly as an untraced
   [World.run] of the same fleet does, so this copy cannot drift. *)
let redrive ~tracer ~parent ctx (spec : Fleet.Spec.t) =
  let members = spec.Fleet.Spec.hosts in
  let first_call = Array.make members Float.infinity in
  let busy = Array.make members 0. in
  let step = Array.make members 0. in
  (* each member is advanced by exactly one shard domain, so every
     array slot has a single writer *)
  let span name f = Tracer.span tracer ~parent ~op:1 name (fun _ -> f ()) in
  (* a delivery or step of member [m]; [is_step] also charges [step] *)
  let call m ~is_step name f =
    let t0 = Clock.now_ns () in
    let r = span name f in
    let dt = Clock.since t0 in
    if first_call.(m) = Float.infinity then first_call.(m) <- Int64.to_float t0 *. 1e-9;
    busy.(m) <- busy.(m) +. dt;
    if is_step then step.(m) <- step.(m) +. dt;
    r
  in
  let hosts =
    Sim.Parallel.run_sharded ~jobs:fleet_jobs ~shards:fleet_shards ~ctx ~members
      ~epoch:(Fleet.Spec.epoch spec) ~until:spec.Fleet.Spec.duration (fun ~member ctx ->
        let h = span "fleet.host_create" (fun () -> Fleet.Host.create ctx spec ~id:member) in
        {
          Sim.Parallel.world = h;
          deliver =
            (fun ~now ~src msgs ->
              call member ~is_step:false "fleet.deliver" (fun () ->
                  Fleet.Host.deliver h ~now ~src msgs));
          step =
            (fun ~until ~post ->
              call member ~is_step:true "fleet.step" (fun () -> Fleet.Host.step h ~until ~post));
        })
  in
  let stop = Int64.to_float (Clock.now_ns ()) *. 1e-9 in
  let detections, audits_sent, soc_reports =
    match Fleet.Host.soc hosts.(0) with
    | Some soc ->
      ( Cloudskulk.Fleet_soc.detections soc,
        Cloudskulk.Fleet_soc.audits_sent soc,
        Cloudskulk.Fleet_soc.reports_received soc )
    | None -> ([], 0, 0)
  in
  let result =
    {
      Fleet.World.spec;
      reports = Array.map Fleet.Host.report hosts;
      detections;
      audits_sent;
      soc_reports;
    }
  in
  (* barrier wait: per shard, the wall time from its first delivery or
     step to the end of the run, less its members' delivery and step
     time *)
  let wait = ref 0. in
  for s = 0 to fleet_shards - 1 do
    let lo, hi = Sim.Shard.range ~members ~shards:fleet_shards s in
    let first = ref Float.infinity and work = ref 0. in
    for m = lo to hi - 1 do
      first := Float.min !first first_call.(m);
      work := !work +. busy.(m)
    done;
    if Float.is_finite !first then wait := !wait +. (stop -. !first -. !work)
  done;
  let mean = Array.fold_left ( +. ) 0. step /. float_of_int (max 1 members) in
  let slowest = Array.fold_left Float.max 0. step in
  (result, [ ("sim.barrier_wait_s", !wait); ("fleet.step_straggler_ratio", slowest /. mean) ])

let fleet_round ~size ~seed ~tracer ~telemetry =
  let spec = fleet_spec size in
  let (), setup_s =
    Clock.timed (fun () ->
        (* warm-up: a default-sized fleet on its own derived seed, so the
           timed run starts with the fleet code paths and the runtime
           warm *)
        ignore (Fleet.World.run (world_ctx ~seed 1) Fleet.Spec.default))
  in
  let ctx = world_ctx ?telemetry ~seed 0 in
  let ((r, measures), minor_words), wall_s =
    Clock.timed (fun () ->
        Clock.allocating (fun () ->
            match tracer with
            | None -> (Fleet.World.run ~jobs:fleet_jobs ~shards:fleet_shards ctx spec, [])
            | Some _ ->
              Tracer.span tracer ~op:1 "fleet.run" (fun parent ->
                  redrive ~tracer ~parent ctx spec)))
  in
  {
    setup_s;
    wall_s;
    vm_sim_s = float_of_int (Fleet.Spec.vms spec) *. Sim.Time.to_s spec.Fleet.Spec.duration;
    ops = [ { op_s = wall_s; op_setup_s = setup_s; ok = fleet_ok r; what = fleet_what r } ];
    digest = md5 [ Fleet.World.render r ];
    events = Fleet.World.events r;
    minor_words;
    measures;
    counts = snapshot telemetry;
  }

(* ---- detect-pairs --------------------------------------------------- *)

let detect_pairs = function Full -> 4 | Small -> 1
let customer_memory_mb = function Full -> None | Small -> Some 64

let scenario_vms (sc : Cloudskulk.Scenarios.t) =
  resident sc.Cloudskulk.Scenarios.host
  + match sc.Cloudskulk.Scenarios.ritm with
    | Some r -> resident r.Cloudskulk.Ritm.nested_hv
    | None -> 0

type acc = {
  mutable a_setup : float;
  mutable a_wall : float;
  mutable a_vm_sim : float;
  mutable a_ops : op list;
  mutable a_parts : string list;
  mutable a_events : int;
  mutable a_words : float;
  mutable a_counts : (string * float) list;
  mutable a_measures : (string * float) list;
}

let acc () =
  {
    a_setup = 0.;
    a_wall = 0.;
    a_vm_sim = 0.;
    a_ops = [];
    a_parts = [];
    a_events = 0;
    a_words = 0.;
    a_counts = [];
    a_measures = [];
  }

let measure acc k v =
  acc.a_measures <-
    (k, v +. Option.value ~default:0. (List.assoc_opt k acc.a_measures))
    :: List.remove_assoc k acc.a_measures

(* One timed operation in one world: host time, allocation, engine
   events, simulated VM-seconds and telemetry over the call. *)
let timed_op acc ~telemetry ~engine ~vms f =
  let before = snapshot telemetry in
  let t_sim = Sim.Engine.now engine and e0 = Sim.Engine.events_processed engine in
  let (r, words), dt = Clock.timed (fun () -> Clock.allocating f) in
  acc.a_wall <- acc.a_wall +. dt;
  acc.a_words <- acc.a_words +. words;
  acc.a_events <- acc.a_events + (Sim.Engine.events_processed engine - e0);
  acc.a_vm_sim <-
    acc.a_vm_sim
    +. (float_of_int vms *. Sim.Time.to_s (Sim.Time.sub (Sim.Engine.now engine) t_sim));
  acc.a_counts <- add_counts acc.a_counts (diff_counts (snapshot telemetry) before);
  (r, dt, words)

let finish acc =
  {
    setup_s = acc.a_setup;
    wall_s = acc.a_wall;
    vm_sim_s = acc.a_vm_sim;
    ops = List.rev acc.a_ops;
    digest = md5 (List.rev acc.a_parts);
    events = acc.a_events;
    minor_words = acc.a_words;
    measures = List.sort compare acc.a_measures;
    counts = acc.a_counts;
  }

let detect_round ~size ~seed ~tracer ~telemetry =
  let acc = acc () in
  let module D = Cloudskulk.Dedup_detector in
  let module S = Cloudskulk.Scenarios in
  let customer_memory_mb = customer_memory_mb size in
  for k = 0 to detect_pairs size - 1 do
    let ctx = world_ctx ?telemetry ~seed k in
    let build op f =
      let sc, dt = Clock.timed (fun () -> Tracer.span tracer ~op "cloudskulk.scenario" (fun _ -> f ())) in
      acc.a_setup <- acc.a_setup +. dt;
      (sc, dt)
    in
    let clean = build ((2 * k) + 1) (fun () -> S.clean ?customer_memory_mb ctx) in
    let infected = build ((2 * k) + 2) (fun () -> S.infected ?customer_memory_mb ctx) in
    List.iteri
      (fun i ((sc, setup), expected) ->
        let op = (2 * k) + i + 1 in
        let res, dt, words =
          timed_op acc ~telemetry ~engine:(Sim.Ctx.engine sc.S.ctx) ~vms:(scenario_vms sc)
            (fun () ->
              Tracer.span tracer ~op "cloudskulk.detect" (fun _ -> D.run sc.S.detector_env))
        in
        measure acc "cloudskulk.detect_minor_mw" (words /. 1e6);
        let what, ok, part =
          match res with
          | Error e -> ("error: " ^ e, false, "error")
          | Ok o ->
            let v = D.verdict_to_string o.D.verdict in
            ( v,
              D.verdict_equal o.D.verdict expected,
              Printf.sprintf "%s t0=%h t1=%h t2=%h" v o.D.t0.D.summary.Sim.Stats.mean
                o.D.t1.D.summary.Sim.Stats.mean o.D.t2.D.summary.Sim.Stats.mean )
        in
        acc.a_ops <-
          { op_s = dt; op_setup_s = setup; ok; what = Printf.sprintf "pair %d %s: %s" k sc.S.description what }
          :: acc.a_ops;
        acc.a_parts <- part :: acc.a_parts)
      [ (clean, D.No_nested_vm); (infected, D.Nested_vm_detected) ]
  done;
  finish acc

(* ---- migrate-compile ------------------------------------------------ *)

let migrate_seeds = function Full -> 3 | Small -> 1

let guest_config = function
  | Full -> None
  | Small -> Some { (Vmm.Qemu_config.default ~name:"guest0") with Vmm.Qemu_config.memory_mb = 128 }

let migrate_round ~size ~seed ~tracer ~telemetry =
  let acc = acc () in
  let config = guest_config size in
  for k = 0 to migrate_seeds size - 1 do
    let ctx = world_ctx ?telemetry ~seed k in
    List.iteri
      (fun i nested_dest ->
        let op = (2 * k) + i + 1 in
        let (mp, handle), setup =
          Clock.timed (fun () ->
              let mp =
                Tracer.span tracer ~op "vmm.pair_setup" (fun _ ->
                    Vmm.Layers.migration_pair ?config ~nested_dest ctx)
              in
              let mctx = mp.Vmm.Layers.mp_ctx and source = mp.Vmm.Layers.mp_source in
              let wenv =
                Workload.Exec_env.make ~vm:source ~ctx:mctx ~level:(Vmm.Vm.level source)
                  ~ram:(Vmm.Vm.ram source) ~rng:(Sim.Ctx.fork_rng mctx) ()
              in
              let handle = Workload.Background.start wenv (Workload.Kernel_compile.background ()) in
              Tracer.span tracer ~op "workload.warmup" (fun _ ->
                  ignore (Sim.Engine.run_for (Sim.Ctx.engine mctx) (Sim.Time.s 2.)));
              (mp, handle))
        in
        acc.a_setup <- acc.a_setup +. setup;
        let mctx = mp.Vmm.Layers.mp_ctx and source = mp.Vmm.Layers.mp_source in
        let vms =
          resident mp.Vmm.Layers.mp_host
          + Option.fold ~none:0 ~some:resident mp.Vmm.Layers.mp_nested_hv
        in
        let res, dt, words =
          timed_op acc ~telemetry ~engine:(Sim.Ctx.engine mctx) ~vms (fun () ->
              Tracer.span tracer ~op "migration.migrate" (fun _ ->
                  Migration.Precopy.migrate mctx ~source ~dest:mp.Vmm.Layers.mp_dest ()))
        in
        Workload.Background.stop handle;
        measure acc "migration.minor_mw" (words /. 1e6);
        measure acc "migration.guest_pages"
          (float_of_int (Vmm.Qemu_config.memory_pages (Vmm.Vm.config source)));
        let label = if nested_dest then "L0-L1" else "L0-L0" in
        let what, ok, part =
          match res with
          | Error e -> ("error: " ^ e, false, label ^ " error")
          | Ok o ->
            let part =
              match Migration.Outcome.stats o with
              | Some r ->
                Printf.sprintf "%s rounds=%d pages=%d total_ns=%Ld" label
                  (List.length r.Migration.Precopy.rounds)
                  r.Migration.Precopy.total_pages_sent
                  (Sim.Time.to_ns r.Migration.Precopy.total_time)
              | None -> label ^ " no stats"
            in
            ( Migration.Outcome.describe o,
              (match o with Migration.Outcome.Completed _ -> true | _ -> false),
              part )
        in
        acc.a_ops <-
          { op_s = dt; op_setup_s = setup; ok; what = Printf.sprintf "seed %d %s: %s" k part what }
          :: acc.a_ops;
        acc.a_parts <- part :: acc.a_parts)
      [ false; true ]
  done;
  finish acc

(* One round; with a [tracer] it also records spans and gives the
   round's worlds one fresh telemetry sink. *)
let round w ~size ~seed ~tracer =
  let telemetry = Option.map (fun _ -> Sim.Telemetry.create ()) tracer in
  match w with
  | Fleet_churn -> fleet_round ~size ~seed ~tracer ~telemetry
  | Detect_pairs -> detect_round ~size ~seed ~tracer ~telemetry
  | Migrate_compile -> migrate_round ~size ~seed ~tracer ~telemetry
