(* skulkscope: allow toplevel-mutable — populated once by register at startup, before any trial domain spawns; read-only afterwards *)
let experiments : Experiment.t list ref = ref []

let register (e : Experiment.t) =
  if List.exists (fun e' -> String.equal e'.Experiment.id e.Experiment.id) !experiments
  then
    invalid_arg (Printf.sprintf "Harness.Registry.register: duplicate id %S" e.Experiment.id);
  experiments := e :: !experiments

let all () = List.rev !experiments

let find id = List.find_opt (fun e -> String.equal e.Experiment.id id) (all ())

let list_lines () =
  List.map
    (fun (e : Experiment.t) -> Printf.sprintf "%-14s %s" e.Experiment.id e.Experiment.doc)
    (all ())

let run_registry ~prologue ~only ~trials ~jobs ~shards ~seed ~faults ~metrics_out
    ~trace_out ~list_only =
  if list_only then begin
    List.iter print_endline (list_lines ());
    `Ok ()
  end
  else
    match Sim.Fault.profile_of_string faults with
    | Error e -> `Error (false, e)
    | Ok faults -> (
      let telemetry = Flags.sink ~metrics_out ~trace_out in
      let run_one (e : Experiment.t) =
        let seed = match seed with Some s -> s | None -> e.Experiment.default_seed in
        let ctx = Sim.Ctx.create ~seed ?telemetry ~faults () in
        e.Experiment.run { Experiment.trials; jobs; shards; ctx }
      in
      match only with
      | Some id -> (
        match find id with
        | Some e ->
          run_one e;
          Flags.export ~metrics_out ~trace_out telemetry;
          `Ok ()
        | None ->
          `Error
            ( false,
              Printf.sprintf "unknown experiment %S; use --list to see the available ids" id ))
      | None ->
        List.iter (fun line -> Printf.printf "%s\n" line) prologue;
        List.iter run_one (all ());
        Flags.export ~metrics_out ~trace_out telemetry;
        `Ok ())

open Cmdliner

let term ~prologue =
  Term.(
    ret
      (const (fun only trials jobs shards seed faults metrics_out trace_out list_only ->
           run_registry ~prologue ~only ~trials ~jobs ~shards ~seed ~faults ~metrics_out
             ~trace_out ~list_only)
      $ Flags.only $ Flags.trials $ Flags.jobs $ Flags.shards $ Flags.seed $ Flags.faults
      $ Flags.metrics_out $ Flags.trace_out $ Flags.list_only))

let main ~name ~doc ?(prologue = []) () =
  Cmd.eval (Cmd.v (Cmd.info name ~doc) (term ~prologue))
