(** The load generator's telemetry manifest: a deterministic JSON
    document carrying a run's configuration, throughput, tail
    quantiles and per-structure breakdown.

    Everything in the document is a simulation-model quantity
    (requests, steps, step-valued quantiles) or configuration — no
    wall-clock timestamps or hostnames — so two runs with the same
    configuration and seed serialize to byte-identical files, which
    the CI load-smoke and chaos-load jobs diff.  This module is plain
    data in, JSON out: the [lib/load] engine fills the records,
    keeping [telemetry] free of simulator dependencies.

    Two schemas share one record: a document whose fault/policy
    extensions are all [None] serializes as [repro-load-manifest/1],
    byte-identical to the historical form; any faulted or
    policy-bearing run upgrades to [repro-load-manifest/2] with the
    extra fields ([faults], [policy], [offered], [outcomes],
    [restarts], [spurious_cas], per-shard drop/restart columns, and
    optional [error_budget]/[degrade] blocks). *)

type quantiles = {
  count : int;
  min_value : int;  (** 0 when [count = 0], like the quantiles. *)
  max_value : int;
  mean : float;
  p50 : int;
  p99 : int;
  p999 : int;
}

type kind_row = { kind : string; latency : quantiles }

type shard_row = {
  shard : int;
  shard_requests : int;
  shard_steps : int;
  max_queue_depth : int;
  shard_stopped : bool;
      (** Serialized (as [stopped_early: true]) only when set, so
          healthy schema-1 rows keep their historical bytes. *)
  shard_dropped : int;  (** Schema 2 only. *)
  shard_restarts : int;  (** Schema 2 only. *)
}

type gate_row = { gate : string; gate_passed : bool; detail : string }

type outcome_row = {
  ok : int;
  retried : int;
  retries : int;
  redelivered : int;
  hedges : int;
  timed_out : int;
  dropped : int;
}
(** Mirror of {!Load.Policy.counts} as plain manifest data. *)

type budget_row = {
  budget_offered : int;
  budget_completed : int;
  availability : float;  (** completed / offered. *)
  target : float;  (** Availability objective, e.g. 0.999. *)
  burn : float;  (** (1 - availability) / (1 - target). *)
  verdict : string;  (** ["ok"], ["degraded"] or ["breached"]. *)
}
(** Per-window error-budget accounting for `repro serve`. *)

type t = {
  structures : string list;
  clients : int;
  ops_per_client : int;
  workers : int;
  shards : int;
  mode : string;  (** ["open"] or ["closed"]. *)
  arrival : string;  (** ["poisson"], ["bursty"] or ["think"]. *)
  alpha : float;
  seed : int;
  faults : string option;  (** The [--faults] spec string. *)
  policy : string option;  (** {!Load.Policy.to_string} form. *)
  window : int option;  (** Window index for `repro serve` JSONL rows. *)
  requests : int;
  offered : int option;  (** Offered requests (schema 2). *)
  steps_total : int;
  steps_max : int;
  stopped_early : bool;
  throughput_per_kstep : float;
      (** Completed requests per 1000 steps of the slowest shard —
          the parallel-completion throughput. *)
  latency : quantiles;
  service : quantiles;
  queue_wait : quantiles;
  outcomes : outcome_row option;
  restarts : int option;
  spurious_cas : int option;
  per_kind : kind_row list;
  per_shard : shard_row list;
  error_budget : budget_row option;
  slo : gate_row list option;  (** Present for SLO sweep runs. *)
  degrade : gate_row list option;  (** Present for [--expect-degraded]. *)
}

val schema : string
(** ["repro-load-manifest/1"], embedded in every fault-free document. *)

val schema_v2 : string
(** ["repro-load-manifest/2"], used when any extension field is
    present. *)

val to_json : t -> Json.t

val to_string : ?compact:bool -> t -> string
(** [to_string t] is [Json.to_string (to_json t)]; [compact] gives
    the one-line form used for `repro serve`'s JSONL stream. *)

val write : file:string -> t -> unit
(** Atomic write (parent directories created). *)
