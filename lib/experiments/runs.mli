(** Shared measurement helpers for the experiment modules. *)

val counter_metrics :
  ?seed:int ->
  ?scheduler:Sched.Scheduler.t ->
  ?record_samples:bool ->
  n:int ->
  steps:int ->
  unit ->
  Sim.Metrics.t
(** Run the CAS counter (SCU(0,1)) for [steps] system steps — through
    the compiled executor ({!Sim.Executor.exec_compiled}), which is
    byte-identical to the interpreted counter and an order of
    magnitude faster. *)

val spec_metrics :
  ?seed:int ->
  ?scheduler:Sched.Scheduler.t ->
  ?record_samples:bool ->
  ?fault_plan:Sched.Fault_plan.t ->
  n:int ->
  steps:int ->
  Sim.Executor.spec ->
  Sim.Metrics.t
(** Run an arbitrary effect-based spec.  Crash-only schedules go
    through [fault_plan] too ({!Sched.Fault_plan.of_crash_events}). *)

val sim_trace :
  ?seed:int -> ?scheduler:Sched.Scheduler.t -> n:int -> steps:int -> unit -> Sched.Trace.t
(** Schedule trace of a counter run (the algorithm does not matter for
    trace statistics; the scheduler does). *)

val fmt : float -> string
(** "%.4g" *)

val fmt_pct : float -> string
(** Percentage with two decimals, e.g. "6.25%". *)
