(* Host wall-clock intervals for the micro-benchmarks: CLOCK_MONOTONIC,
   never process CPU time. [Sys.time] sums the CPU time of every domain,
   so a sharded or parallel run reads slower the more cores it uses,
   and it misses time spent waiting. *)

let now_ns () =
  (* skulkscope: allow wall-clock — the bench harness's one host-clock read: it times the simulator itself, never simulated work *)
  Monotonic_clock.now ()

(* Seconds elapsed since [t0], a [now_ns] reading. *)
let since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9
