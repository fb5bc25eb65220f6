(* Incremental vs full KSM rescan cost, measured the same way by the
   bechamel experiment (which also writes the BENCH_scan.json record)
   and by the queue_bench CI smoke executable. *)

(* The multi-tenant KSM population the bechamel suite also scans: 64
   spaces x 256 distinct pages, scanned to steady state. *)
let ksm_world ~incremental =
  let ctx = Sim.Ctx.create () in
  let ft = Memory.Frame_table.create ctx in
  let config =
    { Memory.Ksm.pages_to_scan = 16384; sleep = Sim.Time.ms 1.; incremental }
  in
  let ksm = Memory.Ksm.create ~config ctx ft in
  let spaces =
    Array.init 64 (fun k ->
        let s =
          Memory.Address_space.create_root ft ~name:(Printf.sprintf "s%d" k) ~pages:256
        in
        for i = 0 to 255 do
          ignore (Memory.Address_space.write s i (Memory.Page.Content.of_int ((k * 256) + i)))
        done;
        Memory.Ksm.register ksm s;
        s)
  in
  for _ = 1 to 4 do
    Memory.Ksm.scan_once ksm
  done;
  (ksm, spaces)

(* Steady-state rescan: dirty ~1% of the table between wakeups, then
   take one scan_once. Returns ns per dirtied page; the full sweep
   walks all 16384 pages per wakeup (cached checksums, but every page
   visited), the incremental sweep only the dirtied ones, so the ratio
   is the O(table) -> O(dirtied) win. The loop also pays for the writes
   themselves - identical in both modes. *)
let ns_per_dirtied_page ~incremental ~iters =
  let ksm, spaces = ksm_world ~incremental in
  let rng = Sim.Rng.create 23 in
  let dirtied_per_iter = 164 in
  let stamp = ref 1_000_000 in
  let t0 = Clock.now_ns () in
  for _ = 1 to iters do
    for _ = 1 to dirtied_per_iter do
      let s = spaces.(Sim.Rng.int rng 64) in
      incr stamp;
      ignore
        (Memory.Address_space.write s (Sim.Rng.int rng 256)
           (Memory.Page.Content.of_int !stamp))
    done;
    Memory.Ksm.scan_once ksm
  done;
  Clock.since t0 *. 1e9 /. float_of_int (iters * dirtied_per_iter)
