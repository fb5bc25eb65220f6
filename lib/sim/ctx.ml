(* The per-instance simulation context. One value carries everything a
   substrate constructor used to take as separate optionals: the engine
   (clock + RNG root), the telemetry sink (metrics and journal), and the
   fault plan. Forking rebuilds the engine from the stored seed, so a forked
   context replays the exact event/RNG schedule of a fresh one. *)

type t = {
  seed : int;
  engine : Engine.t;
  telemetry : Telemetry.t option;
  faults : Fault.profile;
}

let create ?(seed = 42) ?telemetry ?(faults = Fault.none) () =
  { seed; engine = Engine.create ~seed (); telemetry; faults }

let seed t = t.seed
let engine t = t.engine
let telemetry t = t.telemetry
let faults t = t.faults
let now t = Engine.now t.engine
let fork_rng t = Engine.fork_rng t.engine

let fork t = { t with engine = Engine.create ~seed:t.seed () }
let with_seed t seed = { t with seed; engine = Engine.create ~seed () }

let with_telemetry t telemetry = { t with telemetry }

(* SplitMix64 finaliser: a trivial mix like [seed + member] would make
   member m of seed s collide with member m-1 of seed s+1, entangling
   neighbouring fleets; the avalanche keeps member streams disjoint. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let fork_member t ~member =
  if member < 0 then invalid_arg "Ctx.fork_member: negative member index";
  let z =
    mix64
      (Int64.logxor (Int64.of_int t.seed)
         (Int64.mul (Int64.of_int (member + 1)) 0x9E3779B97F4A7C15L))
  in
  with_seed t (Int64.to_int (Int64.shift_right_logical z 2))
