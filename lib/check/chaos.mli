(** Chaos fuzzing: random schedules under randomly instantiated fault
    plans ({!Sched.Fault_plan} — crash–recovery, stall windows,
    spurious CAS failure).

    Each trial draws a random schedule prefix, operation mix, and a
    concrete fault plan instantiated from the given spec's rates, then
    replays it with a round-robin tail and judges the resulting
    history under the mark-aware partial-history rule.  A failure is
    shrunk on two axes (schedule by ddmin with the plan fixed, then
    fault events by ddmin with the schedule fixed, then the spurious
    rates dropped if unneeded) and replays byte-for-byte from
    (schedule, fault plan, mix seed) — the triple `repro chaos`
    serializes into its violation artifacts. *)

type config = {
  trials : int;  (** Trials per structure. *)
  max_len : int;  (** Longest generated schedule prefix. *)
  seed : int;  (** Master seed; all randomness derives from it. *)
  gates : Schedule.gates;  (** Judges applied per trial. *)
}

val default : config

val default_spec : Sched.Fault_plan.spec
(** A mixed drill: 1% crash and stall rates, 5% recovery, stall
    windows of 5 steps, 10% spurious CAS failure.  What {!Fuzz} uses
    when its [faults] flag is set. *)

type failure = {
  structure : string;
  schedule : int array;  (** Minimal failing schedule (effective form). *)
  replay : string;  (** {!Sched.Scheduler.replay_to_string} form. *)
  faults : Sched.Fault_plan.t;  (** Minimal concrete fault plan. *)
  fault_spec : string;  (** [faults] in [--faults] grammar form. *)
  mix_seed : int;
  verdict : string;
}

type report = {
  structure : string;
  trials : int;  (** Trials that ran; skipped draws are not counted. *)
  failures : failure list;
}

val run :
  ?config:config ->
  spec:Sched.Fault_plan.spec ->
  structure:Scu.Checkable.t ->
  n:int ->
  ops:int ->
  unit ->
  report
(** Fault plans are instantiated per trial from [spec]; draws whose
    merged plan would permanently crash every process are skipped, and
    [trials] counts only the rest, so [0] means nothing was tested.
    Deterministic for a given (config, spec, structure, n, ops). *)
