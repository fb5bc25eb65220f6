(* KSM rescan smoke: times incremental vs full KSM rescans on one
   population and exits 1 if the incremental rescan is not at least 2x
   cheaper per dirtied page. The printed ratio is the record; the gate
   sits far below it so shared CI runners do not flake, while a real
   regression - the incremental sweep degrading to a full walk - trips
   it immediately. The deterministic twin of this check is the
   test_memory case "incremental steady state visits only dirtied
   pages".

   Usage: ksm_rescan [--quick]   (--quick shrinks iteration counts) *)

(* A multi-tenant KSM population: 64 spaces x 256 distinct pages,
   scanned to steady state. *)
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

let () =
  let quick = Array.exists (fun a -> String.equal a "--quick") Sys.argv in
  let rescan_iters = if quick then 40 else 200 in
  Printf.printf "ksm rescan: 16384 pages, ~1%% dirtied per wakeup (%d wakeups)\n" rescan_iters;
  let full = ns_per_dirtied_page ~incremental:false ~iters:rescan_iters in
  let incr_ = ns_per_dirtied_page ~incremental:true ~iters:rescan_iters in
  Printf.printf "  %-34s %10.1f ns/dirtied page\n" "full sweep" full;
  Printf.printf "  %-34s %10.1f ns/dirtied page\n" "incremental sweep" incr_;
  let rescan_speedup = full /. incr_ in
  Printf.printf "  incremental speedup: %.2fx\n" rescan_speedup;
  if rescan_speedup < 2. then begin
    Printf.eprintf "smoke FAIL: incremental rescan speedup %.2fx < 2x\n" rescan_speedup;
    exit 1
  end
  else print_endline "smoke: OK"
