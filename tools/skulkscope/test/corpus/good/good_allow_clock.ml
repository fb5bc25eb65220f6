(* corpus: a well-formed allow with a reason suppresses and is counted
   used — zero findings. *)

(* skulkscope: allow wall-clock — calibration harness measures the simulator itself *)
let calibrate () = Sys.time ()

let also_inline () = Unix.gettimeofday () (* skulkscope: allow wall-clock — same calibration *)
