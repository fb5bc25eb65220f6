(* The rule catalogue. Every rule reads the Typedtree of a .cmt, so a
   call is recognised by the path it resolves to (module aliases and
   opens expanded), a mutable root by its type, and flows across
   functions through the pass-A summaries (Summary). Two passes emit:
   Checks (one site at a time) and Analysis (spawn sites, Hashtbl
   callbacks, context provenance).

   determinism —
     random-global     stdlib [Random] is process-global and unseeded per
                       trial; randomness comes from [Sim.Rng].
     wall-clock        [Sys.time], [Unix.gettimeofday]/[time]/[gmtime]/
                       [localtime] and [Monotonic_clock.now] read the host
                       clock; sim code uses [Sim.Engine.now]. Bench
                       timing goes through one allowed helper.
     hashtbl-order     [Hashtbl.iter]/[fold]/[to_seq*]/[filter_map_inplace]
                       observe hash-bucket order. A fold whose result is
                       piped straight into [List.sort]/[sort_uniq]/
                       [stable_sort]/[fast_sort] is sanctioned.
     poly-compare      a use of [Stdlib.compare], or [=]/[<>] applied at
                       type [float]. A unit's own [compare] is a
                       different path and stays silent.
     rng-escape        an RNG stream, engine or context from the spawning
                       scope is captured by a spawned closure: the draw
                       schedule then depends on domain interleaving.
     rng-order         an RNG is consumed inside a Hashtbl traversal
                       callback, so the draw order follows bucket order.

   domain-safety —
     toplevel-mutable  a module-level value of mutable type in lib/ is
                       shared by every trial domain. [Atomic.t] is the
                       sanctioned cross-domain cell.
     domain-spawn      raw [Domain.spawn]/[Thread.create] outside
                       [Sim.Parallel].
     escape-capture    a closure handed to a spawn head ([Sim.Parallel.map]/
                       [map_ctx]/[run_sharded], incl. [~seed_of], or a
                       raw spawn) captures a value of mutable type from
                       the spawning scope.
     escape-call       the spawned closure calls a function whose
                       transitively reachable roots include module-level
                       mutable state.

   context —
     ctx-discipline    a lib/ function outside lib/sim/ takes its own
                       [?telemetry] or [?faults]: both ride in the
                       [Sim.Ctx] the caller threads down. The singular
                       [?fault] (one migration's injection point) is fine.
     ctx-minted        [Ctx.create] applied in lib/ outside lib/sim/, or a
                       module-level binding of context/engine/RNG type.
     ctx-launder       a call, from lib/ outside lib/sim/, to a function
                       that transitively applies [Ctx.create]: a wrapper
                       does not launder the provenance.

   telemetry —
     counter-name      counters are named [*_total]; other kinds are not,
                       and histograms/summaries avoid the exporter
                       suffixes [_sum]/[_count]/[_bucket].
     counter-monotonic [Telemetry.add]/[addf] with a negative constant.
     sink-discipline   [Telemetry.create] inside lib/ (per-trial sinks come
                       from [create_like]), or [merge_into] outside the
                       ordered merge in [Sim.Parallel].
     span-pairing      [Telemetry.span] whose [~start] is [~stop], or whose
                       [~start] is not bound in the enclosing top-level
                       definition. *)

type rule = {
  name : string;
  family : string;
  summary : string;
  applies : string -> bool;
}

let under dir path =
  let n = String.length dir in
  String.length path >= n && String.sub path 0 n = dir

let everywhere _ = true
let lib_only path = under "lib/" path

(* Sim.Parallel is the sanctioned implementation: its worker closures
   share the results array and trial counter by design. *)
let outside_parallel path = path <> "lib/sim/parallel.ml"
let ctx_scope path = lib_only path && not (under "lib/sim/" path)

let catalogue =
  [
    { name = "random-global"; family = "determinism";
      summary = "stdlib Random banned; use Sim.Rng"; applies = everywhere };
    { name = "wall-clock"; family = "determinism";
      summary = "host clock reads banned on sim paths; use Sim.Engine.now";
      applies = everywhere };
    { name = "hashtbl-order"; family = "determinism";
      summary = "Hashtbl iteration order escapes unless sorted"; applies = everywhere };
    { name = "poly-compare"; family = "determinism";
      summary = "Stdlib.compare, or =/<> at type float"; applies = everywhere };
    { name = "rng-escape"; family = "determinism";
      summary = "RNG/engine/context shared into a spawned closure";
      applies = outside_parallel };
    { name = "rng-order"; family = "determinism";
      summary = "RNG consumed under Hashtbl iteration order"; applies = everywhere };
    { name = "toplevel-mutable"; family = "domain-safety";
      summary = "module-level mutable state in lib/ is shared across trial domains";
      applies = lib_only };
    { name = "domain-spawn"; family = "domain-safety";
      summary = "raw Domain.spawn/Thread.create outside Sim.Parallel";
      applies = outside_parallel };
    { name = "escape-capture"; family = "domain-safety";
      summary = "spawned closure captures a mutable root from the spawning scope";
      applies = outside_parallel };
    { name = "escape-call"; family = "domain-safety";
      summary = "spawned closure reaches module-level mutable state through calls";
      applies = outside_parallel };
    { name = "ctx-discipline"; family = "context";
      summary = "substrates take a Sim.Ctx, not their own ?telemetry/?faults optionals";
      applies = ctx_scope };
    { name = "ctx-minted"; family = "context";
      summary = "Ctx minted (or held at module level) in lib/ instead of arriving as a parameter";
      applies = ctx_scope };
    { name = "ctx-launder"; family = "context";
      summary = "call to a wrapper that transitively mints a Ctx"; applies = ctx_scope };
    { name = "counter-name"; family = "telemetry";
      summary = "counters end in _total; other kinds do not and avoid reserved exporter suffixes";
      applies = everywhere };
    { name = "counter-monotonic"; family = "telemetry";
      summary = "counters only increment"; applies = everywhere };
    { name = "sink-discipline"; family = "telemetry";
      summary = "sinks created at entry points; merged only by Sim.Parallel";
      applies = (fun p -> p <> "lib/sim/telemetry.ml") };
    { name = "span-pairing"; family = "telemetry";
      summary = "span start/stop captured and paired per function"; applies = everywhere };
  ]

let get name =
  match List.find_opt (fun r -> String.equal r.name name) catalogue with
  | Some r -> r
  | None -> invalid_arg ("skulkscope: unknown rule " ^ name)

(* Push a finding for [rule] at [loc] onto [acc], unless the rule does
   not apply to [file]. *)
let emit acc (rule : rule) ~file (loc : Location.t) fmt =
  Printf.ksprintf
    (fun message ->
      if rule.applies file then
        let pos = loc.loc_start in
        acc :=
          { Report.rule = rule.name; file; line = pos.pos_lnum;
            col = pos.pos_cnum - pos.pos_bol; message }
          :: !acc)
    fmt
