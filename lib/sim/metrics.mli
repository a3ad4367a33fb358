(** Latency and progress accounting (paper §2.4).

    - *System latency* W: expected number of **system** steps between
      two consecutive completions by *any* process.
    - *Individual latency* W_i: expected number of **system** steps
      between two consecutive completions by process i.
    - *Individual step complexity*: number of process i's **own**
      steps between its consecutive completions (the O(q + s√n) bound
      at the end of §6.3).
    - *Completion rate* (Appendix B / Figure 5): successful operations
      divided by total steps — approximately 1/W. *)

type t

val create : ?record_samples:bool -> n:int -> unit -> t
(** With [record_samples] (default false), every system-latency gap
    and every per-process individual gap is kept for distribution
    analysis (quantiles, tails); otherwise only streaming summaries. *)

val n : t -> int

val on_step : t -> int -> unit
(** Called by the executor once per scheduled step. *)

val tick : t -> unit
(** Advance the clock one step without attributing it to any process —
    the executor idles like this when every process is crashed or
    stalled but a stall expiry or a scheduled restart will make one
    schedulable again. *)

val on_complete : t -> int -> unit
(** Called when a process finishes a method call. *)

val on_complete_method : t -> int -> int -> unit
(** [on_complete_method t i m]: process [i] finished a call of method
    [m].  Feeds both the global accounting (exactly as {!on_complete})
    and the per-method statistics below. *)

val methods : t -> int list
(** Method ids observed so far, ascending. *)

val method_completions : t -> method_:int -> int array
(** Per-process completion counts of one method. *)

val method_system_latency : t -> method_:int -> Stats.Summary.t
(** Gaps (system steps) between consecutive completions of one
    method by anyone. *)

val time : t -> int
(** System steps elapsed. *)

val steps_of : t -> int -> int
(** Steps taken by one process. *)

val completions_of : t -> int -> int
val total_completions : t -> int

val system_latency : t -> Stats.Summary.t
(** Gaps (in system steps) between consecutive completions. *)

val individual_latency : t -> int -> Stats.Summary.t
val own_step_latency : t -> int -> Stats.Summary.t

val completion_rate : t -> float
(** [total_completions / time]; the y-axis of Figure 5. *)

val mean_system_latency : t -> float
val mean_individual_latency : t -> int -> float

val fairness_ratio : t -> float
(** mean individual latency averaged over processes, divided by
    (n × mean system latency) — Lemma 7 predicts 1.0. *)

val fingerprint : t -> string
(** Exact textual rendering of every observable statistic (counts,
    times, summaries in hex-float, per-method tables, recorded
    samples).  Two metrics objects that fingerprint equally are
    observationally identical — the contract the differential
    interpreter-vs-compiled tests check. *)

val system_samples : t -> float array
(** Recorded system gaps ([] unless [record_samples]). *)

val individual_samples : t -> int -> float array
