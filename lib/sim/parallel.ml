let available_cores () = Domain.recommended_domain_count ()

type 'a outcome =
  | Value of 'a
  | Raised of exn * Printexc.raw_backtrace

let map ?(jobs = 1) n f =
  if n < 0 then invalid_arg "Parallel.map: negative trial count";
  let jobs = if jobs = 0 then available_cores () else jobs in
  let workers = min jobs n in
  if workers <= 1 then List.init n f
  else begin
    (* Work-stealing by index: each worker pulls the next unclaimed trial.
       Slots are disjoint per trial, and Domain.join publishes the
       writes, so the array needs no lock of its own. *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let outcome =
          try Value (f i) with e -> Raised (e, Printexc.get_raw_backtrace ())
        in
        results.(i) <- Some outcome;
        worker ()
      end
    in
    let domains = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    (* trial order, lowest failing index wins: identical to sequential.
       The failure scan is an explicit ascending loop because List.init
       does not promise an application order. *)
    for i = 0 to n - 1 do
      match results.(i) with
      | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Value _) -> ()
      | None -> assert false
    done;
    List.init n (fun i ->
        match results.(i) with
        | Some (Value v) -> v
        | Some (Raised _) | None -> assert false)
  end

(* Context fan-out: each trial gets its own child context - a fresh
   engine minted from a per-trial seed and, when the parent carries a
   sink, its own child sink (no cross-domain sharing). The children are
   merged into the parent in trial order after the join - so the merged
   registry is identical whatever [jobs] is, and each span is tagged
   with its 1-based trial. *)
let map_ctx ?jobs ?seed_of ~ctx ~trials f =
  let seed_of =
    match seed_of with Some g -> g | None -> fun i -> Ctx.seed ctx + i
  in
  match Ctx.telemetry ctx with
  | None -> map ?jobs trials (fun i -> f i (Ctx.with_seed ctx (seed_of i)))
  | Some parent ->
    let children = Array.init trials (fun _ -> Telemetry.create_like parent) in
    let results =
      map ?jobs trials (fun i ->
          f i (Ctx.with_telemetry (Ctx.with_seed ctx (seed_of i)) (Some children.(i))))
    in
    Array.iteri
      (fun i child ->
        Telemetry.merge_into ~into:parent
          ~span_fields:[ ("trial", string_of_int (i + 1)) ]
          child)
      children;
    results

(* ---- lockstep sharded execution ---- *)

type ('w, 'msg) sharded = {
  world : 'w;
  deliver : now:Time.t -> src:int -> 'msg list -> unit;
  step : until:Time.t -> post:(dst:int -> 'msg -> unit) -> unit;
}

(* One trial partitioned across domains instead of many trials fanned
   out: each *member* (not each shard) owns a full Ctx minted from
   (root seed, member index), so what every member simulates is a pure
   function of the root seed - the partition only decides which domain
   advances it. All cross-member traffic goes through Shard outboxes -
   even between members that happen to share a shard - and is delivered
   at barriers in the canonical (dst, src) order, so the message
   schedule is partition-invariant too. Those two choices are the whole
   byte-identity argument; DESIGN.md §14 spells it out. *)
let run_sharded ?jobs ?(shards = 1) ~ctx ~members ~epoch ~until init =
  if members < 0 then invalid_arg "Parallel.run_sharded: negative member count";
  let plan = Barrier.plan ~epoch ~until in
  if members = 0 then [||]
  else begin
    let shards = max 1 (min shards members) in
    let parent = Ctx.telemetry ctx in
    let children =
      match parent with
      | None -> [||]
      | Some p -> Array.init members (fun _ -> Telemetry.create_like p)
    in
    let ctx_of m =
      let c = Ctx.fork_member ctx ~member:m in
      if Array.length children = 0 then c
      else Ctx.with_telemetry c (Some children.(m))
    in
    (* Build phase: worlds are minted in parallel, one block per shard,
       then flattened back into global member order (block partition =>
       concatenation in shard order IS member order). *)
    let cells =
      map ?jobs shards (fun s ->
          let lo, hi = Shard.range ~members ~shards s in
          List.init (hi - lo) (fun k -> init ~member:(lo + k) (ctx_of (lo + k))))
      |> List.concat |> Array.of_list
    in
    let c_epochs = Telemetry.counter parent ~component:"sim" "shard_epochs_total" in
    let c_msgs = Telemetry.counter parent ~component:"sim" "shard_messages_total" in
    Telemetry.set
      (Telemetry.gauge parent ~component:"sim" "shard_members")
      (float_of_int members);
    let inboxes = ref (Array.make members []) in
    Barrier.iter plan ~f:(fun ~index:_ ~start ~until:t ->
        let outboxes = Array.init shards (fun _ -> Shard.outbox ()) in
        let arrived = !inboxes in
        ignore
          (map ?jobs shards (fun s ->
               let lo, hi = Shard.range ~members ~shards s in
               let ob = outboxes.(s) in
               for m = lo to hi - 1 do
                 let cell = cells.(m) in
                 List.iter
                   (fun (src, msgs) -> cell.deliver ~now:start ~src msgs)
                   arrived.(m);
                 cell.step ~until:t ~post:(fun ~dst msg ->
                     if dst < 0 || dst >= members then
                       invalid_arg "Parallel.run_sharded: post to member out of range";
                     Shard.post ob ~src:m ~dst msg)
               done));
        Telemetry.incr c_epochs;
        Array.iter (fun ob -> Telemetry.add c_msgs (Shard.posted ob)) outboxes;
        inboxes := Shard.exchange outboxes ~members);
    (* Horizon flush: mail posted during the final epoch is handed over
       at [until] in member order, so in-flight exchanges still land
       (the churn conservation property depends on this). *)
    Array.iteri
      (fun m groups ->
        List.iter (fun (src, msgs) -> cells.(m).deliver ~now:until ~src msgs) groups)
      !inboxes;
    (match parent with
    | None -> ()
    | Some p ->
      Array.iteri
        (fun m child ->
          Telemetry.merge_into ~into:p
            ~span_fields:[ ("member", string_of_int (m + 1)) ]
            child)
        children);
    Array.map (fun c -> c.world) cells
  end
