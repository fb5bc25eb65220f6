(** Operational detection service.

    The paper gives the detection {e mechanism}; this module packages it
    the way a cloud operator would run it, in two modes over the same
    tenant registry:

    {b Batch sweeps} ({!sweep_now} / {!start}): every sweep runs the
    {!Install_auditor} (milliseconds, no tenant involvement); the
    {!Dedup_detector} protocol (minutes of ksmd waiting, needs the
    tenant-side agent) runs for a tenant when the audit is alarming,
    when the tenant has never been probed, or when its rotation is due.

    {b Continuous monitoring} ({!start_monitor}): the audit keeps the
    sweep cadence (it is also the scan-window clock), while each
    tenant's expensive probe self-schedules on a jittered rotation
    interval — seeded from the service's {!Sim.Ctx} — so a large fleet's
    probes spread across the window instead of arriving as a thundering
    herd. An audit alarm pulls every tenant's next probe forward to now.

    Both modes share a probe budget per scan window: once
    [policy.probe_budget] probes have run in a window, further probes
    are deferred to the next window and accounted explicitly
    ({!event.Budget_exhausted}, {!budget_deferrals}, and the
    [detector_budget_exhausted_total] counter).

    Events are returned by {!sweep_now}, streamed to {!set_event_hook},
    and written to the host's journal ({!Sim.Telemetry.event}) as
    [detector] entries named after the constructor ([audit_alarm],
    [verdict_flip], [probe_failed], [budget_exhausted]) with [sweep] and
    [detail] (the {!event_to_string} rendering) fields. Verdicts and
    latencies stream into the same sink as the service runs:
    [detector_probes_total{verdict}] counters plus
    [detector_probe_latency_ns] and [detector_time_to_detect_ns]
    quantile summaries.

    See examples/soc_monitoring.ml for the inline version of the same
    idea. *)

type policy = {
  sweep_every : Sim.Time.t;
      (** gap between sweeps in {!start} mode; audit cadence and scan
          window length in {!start_monitor} mode *)
  probe_pages : int;  (** File-A size for routine probes (default 8) *)
  dedup_every_n_sweeps : int;
      (** rotation: run the expensive protocol for every tenant at least
          every N sweeps even without an audit alarm (default 4). In
          monitor mode the per-tenant probe interval is
          [sweep_every * dedup_every_n_sweeps]. *)
  probe_jitter : float;
      (** monitor mode: each tenant's next probe fires after the
          rotation interval scaled by a uniform factor in
          [1 +/- probe_jitter] (default 0.2; 0 disables jitter) *)
  probe_budget : int;
      (** maximum dedup probes per scan window; excess probes are
          deferred to the next window (default [max_int]: unbounded) *)
}

val default_policy : policy

type tenant_state = {
  tenant : string;
  last_verdict : Dedup_detector.verdict option;
  sweeps_since_dedup : int;
  probes : int;  (** completed (non-failed) probes *)
  registered_at : Sim.Time.t;
  first_detected_at : Sim.Time.t option;
      (** first time a probe returned [Nested_vm_detected] *)
}

type event =
  | Audit_alarm of { sweep : int; findings : Install_auditor.finding list }
  | Verdict_flip of {
      sweep : int;
      tenant : string;
      before : Dedup_detector.verdict option;
      after : Dedup_detector.verdict;
    }
  | Probe_failed of { sweep : int; tenant : string; reason : string }
  | Budget_exhausted of { sweep : int; tenant : string }
      (** the tenant's probe was deferred because the scan window's
          probe budget was already spent *)

val event_to_string : event -> string

type t

val create : ?policy:policy -> Sim.Ctx.t -> Vmm.Hypervisor.t -> t

val register_tenant :
  t -> name:string -> env:(unit -> Dedup_detector.environment) -> unit
(** [env] is re-evaluated at each probe, so it can track a tenant whose
    OS moves (e.g. into a nested VM). Registering an existing name
    replaces its environment but keeps its history. Under
    {!start_monitor}, a newly registered tenant's first probe is spread
    uniformly over one rotation interval. *)

val unregister_tenant : t -> name:string -> unit

val sweep_now : t -> event list
(** Run one sweep synchronously (advances virtual time by however long
    the probes take); returns the events it raised. Each call is its own
    scan window for budget purposes. *)

val start : t -> unit
(** Batch mode: sweep on the policy's cadence until {!stop}. *)

val start_monitor : t -> unit
(** Continuous SOC mode: periodic audits every [sweep_every] plus
    jittered self-scheduling per-tenant probes, until {!stop}. A service
    is in one mode at a time; calling either start while active is a
    no-op. *)

val pull_probes_forward : t -> unit
(** Schedule every registered tenant's next monitor probe at the
    current instant - what a remote SOC audit request does when it
    reaches this host ({!Fleet_soc}). The scan-window budget still
    applies, so remote audits cannot stampede the host. No-op unless
    the service is in monitor mode. *)

val set_event_hook : t -> (event -> unit) option -> unit
(** Stream every event to [hook] as it is emitted (in addition to the
    journal). The fleet layer uses this to forward verdict flips
    to a datacenter SOC through shard mailboxes; the hook runs on the
    host's own domain, so it must only touch host-local state. *)

val stop : t -> unit
val sweeps_run : t -> int

val budget_deferrals : t -> int
(** Total probes deferred by the per-window budget. *)

val tenant_state : t -> string -> tenant_state option

val time_to_detect : t -> string -> Sim.Time.t option
(** Time from the tenant's registration to its first
    [Nested_vm_detected] verdict; [None] until then. *)

val compromised_tenants : t -> string list
(** Tenants whose last verdict was {!Dedup_detector.Nested_vm_detected}. *)
