(** Degraded-mode gates: how much service quality a fault tier is
    allowed to cost.

    {!run} executes a matched pair — the given config fault-free and
    policy-free versus the same config
    under a {!Sched.Fault_plan.tier_rates} tier plus its policy — and
    gates throughput loss, p99/p999 latency inflation and drop rate
    against the tier's budgets.  Both legs are pure functions of the
    config, so the gates are as reproducible as the runs themselves.

    {!crash_check} is the theory anchor: a crash-only plan that kills
    workers [k..workers-1] at time 0 leaves [k] contenders, and the
    measured mean service-time ratio must track the Markov-chain
    prediction [W(k)/W(workers)] from
    {!Chains.Scu_chain.System.system_latency} — the same
    Theorem 4 / Corollary 2 degradation rows `repro chaos` prints. *)

type budgets = {
  max_throughput_loss : float;
      (** Faulted throughput ≥ (1 - this) × baseline. *)
  max_p99_inflation : float;  (** Faulted p99 ≤ this × baseline p99. *)
  max_p999_inflation : float;
  max_drop_rate : float;
      (** (timed_out + dropped) / offered ≤ this. *)
}

val budgets_for_tier : string -> budgets option
(** Budgets for [quick]/[standard]/[century]/[chaos] (the
    {!Sched.Fault_plan.tier_rates} names); [None] for anything else. *)

type t = {
  tier : string;
  baseline : Engine.result;
  faulted : Engine.result;
  gates : Check.Conform.gate list;
  passed : bool;
}

val run : ?pool:Pool.t -> tier:string -> Engine.config -> (t, string) result
(** Run the matched pair for [tier].  The baseline leg strips faults
    and policy from the config; the faulted leg runs the tier's rates
    (merged over any explicit base events already in the config) with
    the config's policy.  Errors on an unknown tier. *)

val crash_check : ?pool:Pool.t -> k:int -> Engine.config -> Check.Conform.gate list
(** Corollary 2 cross-check for the crash plan the engine injects
    (workers [k..workers-1] crashed at time 0).  Three gates:
    the raw saturated counter under that plan reproduces the chain's
    [W(k)] inter-completion gap (the exp_chaos cor2 rows); the
    engine's faulted shard matches a fault-free shard of [k] workers
    in mean service time (crashes only shrink the active set); and the
    faulted run loses nothing (crash-at-0 is rescued by redelivery).
    Requires [0 < k < workers]. *)
