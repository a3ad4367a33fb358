(** Bridge from {!Engine} results to the telemetry manifest, plus the
    deterministic stdout rendering the CLI prints.  Both are pure
    functions of the result, so `repro load` output and manifests are
    byte-identical across repeats and pool sizes — and a fault-free,
    policy-free result renders and serializes exactly as it did before
    the fault layer existed. *)

val quantiles : Stats.Hdr.t -> Telemetry.Load_report.quantiles
(** All zeros (mean 0.) for an empty histogram. *)

val default_slo_target : float
(** [0.999] — the default availability objective. *)

val error_budget :
  ?target:float -> Engine.result -> Telemetry.Load_report.budget_row
(** Availability = completed/offered, burn = (1 - availability) /
    (1 - target); verdict [ok] when the budget burn is within 1x,
    [degraded] within 10x, [breached] beyond. *)

val of_result :
  ?window:int ->
  ?slo:Check.Conform.gate list ->
  ?degrade:Check.Conform.gate list ->
  ?error_budget:Telemetry.Load_report.budget_row ->
  Engine.result ->
  Telemetry.Load_report.t
(** Fault/policy extension fields are filled (upgrading the manifest
    to schema 2) exactly when {!reports_faults} holds for the result's
    config. *)

val reports_faults : Engine.config -> bool
(** True when the config injects faults or sets an active request
    policy.  Its report then carries the fault layer's fields
    (manifest schema 2: faults, policy, offered, outcomes, restarts,
    spurious CAS) and the CLI reports its error budget. *)

type stop_cause =
  | Outage  (** Ran 0 steps: the fault plan crashes every worker for good. *)
  | Step_budget  (** Ran out of [max_steps], which is at least 1. *)

val stopped_early :
  Telemetry.Load_report.t -> (stop_cause * int list) list
(** The stopped-early shards grouped by cause, outages first, each
    group in shard order; empty when every shard finished. *)

val render : Telemetry.Load_report.t -> string
(** Multi-line human summary (throughput, tail quantiles,
    per-structure breakdown, outcome taxonomy and injected-fault
    counts when present, SLO / degradation gate verdicts when
    present).  A stopped-early run's header names the offending
    shards and why they stopped. *)
