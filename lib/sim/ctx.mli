(** The per-instance simulation context.

    A [Ctx.t] bundles the engine (virtual clock + deterministic RNG
    root), the optional telemetry sink (metrics and journal), and the
    fault profile for one simulation instance. Substrate constructors across
    [lib/] take a context instead of a sprawl of
    [?seed ?telemetry ?faults] optionals; anything reachable from one
    context shares one clock and one sink.

    Contexts remember the seed they were built from, so {!fork} and
    {!with_seed} can mint sibling instances that are deterministic
    functions of that seed alone - the property every repeated-trial
    experiment and every [--jobs]-independence guarantee rests on. *)

type t

val create : ?seed:int -> ?telemetry:Telemetry.t -> ?faults:Fault.profile -> unit -> t
(** [create ()] is a fresh context: a new engine seeded with [seed]
    (default 42), no telemetry sink, and the
    {!Fault.none} profile. *)

val seed : t -> int
(** The seed this context's engine was created from. *)

val engine : t -> Engine.t
val telemetry : t -> Telemetry.t option
val faults : t -> Fault.profile

val now : t -> Time.t
(** [now t] is [Engine.now (engine t)]. *)

val fork_rng : t -> Rng.t
(** [fork_rng t] is [Engine.fork_rng (engine t)]: the next deterministic
    RNG stream off this context's engine. *)

val fork : t -> t
(** [fork t] is a sibling instance: a {e fresh} engine re-created from
    [seed t], sharing [t]'s telemetry sink and fault profile. Building two worlds from forks of the same context gives
    each the byte-identical event/RNG schedule a fresh [create] would. *)

val with_seed : t -> int -> t
(** [with_seed t s] is {!fork} with the seed replaced by [s]. *)

val fork_member : t -> member:int -> t
(** [fork_member t ~member] is {!with_seed} at a seed derived from
    [(seed t, member)] by a SplitMix64-style avalanche: the canonical
    way to mint one sub-world per member of a sharded run
    ({!Parallel.run_sharded}). Unlike the [seed + i] trial scheme, the
    mixed seeds of neighbouring members (or of the same member under
    neighbouring root seeds) share no arithmetic relationship, so
    member worlds stay statistically independent however many the
    fleet holds. Deterministic: same [(seed, member)], same context. *)

val with_telemetry : t -> Telemetry.t option -> t
(** [with_telemetry t sink] is [t] with its telemetry sink replaced -
    the engine and clock are shared, not forked. *)
