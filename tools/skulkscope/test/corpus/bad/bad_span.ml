(* corpus: span begin/end pairing — two findings. *)

(* zero-width: start and stop are the same binding *)
let f telemetry now =
  Sim.Telemetry.span telemetry ~component:"x" ~name:"tick" ~start:now ~stop:now ()

(* begin/end split across functions: start is captured elsewhere *)
let elsewhere = Sim.Time.zero
let g telemetry stop =
  Sim.Telemetry.span telemetry ~component:"x" ~name:"work" ~start:elsewhere ~stop ()
