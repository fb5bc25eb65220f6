(* Standalone KSM rescan benchmark, used as the CI perf smoke: prints
   incremental-vs-full rescan cost and exits non-zero if the incremental
   rescan stops clearly beating the full sweep. The gate (2x) is far
   looser than the speedup recorded in BENCH_scan.json (~360x on a quiet
   machine) so shared CI runners do not flake; a real regression - the
   incremental sweep degrading to a full walk - trips it immediately.

   Usage: queue_bench [--quick]   (--quick shrinks iteration counts) *)

let () =
  let quick = Array.exists (fun a -> String.equal a "--quick") Sys.argv in
  let rescan_iters = if quick then 40 else 200 in
  Printf.printf "ksm rescan: 16384 pages, ~1%% dirtied per wakeup (%d wakeups)\n" rescan_iters;
  let full = Ksm_rescan.ns_per_dirtied_page ~incremental:false ~iters:rescan_iters in
  let incr_ = Ksm_rescan.ns_per_dirtied_page ~incremental:true ~iters:rescan_iters in
  Printf.printf "  %-34s %10.1f ns/dirtied page\n" "full sweep" full;
  Printf.printf "  %-34s %10.1f ns/dirtied page\n" "incremental sweep" incr_;
  let rescan_speedup = full /. incr_ in
  Printf.printf "  incremental speedup: %.2fx\n" rescan_speedup;
  if rescan_speedup < 2. then begin
    Printf.eprintf "smoke FAIL: incremental rescan speedup %.2fx < 2x\n" rescan_speedup;
    exit 1
  end
  else print_endline "smoke: OK"
