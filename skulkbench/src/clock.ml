(* Host-side measurement primitives. Every duration the benchmark
   reports comes from CLOCK_MONOTONIC (never process CPU time, which
   over-counts multi-domain runs and under-counts waiting), every
   allocation figure from the runtime's own GC counters, and peak
   memory from the kernel's high-water mark for this process. *)

let now_ns () = Monotonic_clock.now ()

let since ns = Int64.to_float (Int64.sub (now_ns ()) ns) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

(* Words allocated in minor heaps so far, summed over every domain that
   has run in this process (domains joined by [Sim.Parallel] hand their
   counts back to the runtime when they terminate). *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let allocating f =
  let w0 = minor_words () in
  let r = f () in
  (r, minor_words () -. w0)

(* VmHWM from /proc/self/status, in MiB; [nan] where procfs is absent. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> Float.nan
      | line ->
        (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
         | Some kb -> float_of_int kb /. 1024.
         | None -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let cores () = Domain.recommended_domain_count ()
