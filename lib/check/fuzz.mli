(** Random-schedule fuzzing with shrinking.

    Source one: QCheck2-generated (schedule, crash plan, operation
    mix) triples — QCheck's integrated shrinking finds a small failing
    triple, then a greedy {!Schedule.ddmin} pass tightens the
    effective schedule further.  Source two: the repository's own
    adversarial schedulers (zipf, quantum, weakly-fair starver, ...)
    drive traced runs whose traces are replayed and minimized the same
    way on failure.  Every reported failure replays byte-for-byte via
    [Schedule.run] or `repro check --replay`.

    There is no fault-rate pass here: crash–recovery, stall and
    spurious-CAS drills are {!Chaos}, which [Scenario] runs as a
    source of its own. *)

type config = {
  trials : int;  (** QCheck cases per structure. *)
  sched_trials : int;  (** Runs per adversarial scheduler. *)
  max_len : int;  (** Longest generated schedule prefix. *)
  sched_steps : int;  (** Step budget of scheduler-driven runs. *)
  seed : int;  (** Master seed; all randomness derives from it. *)
  gates : Schedule.gates;
      (** Judges applied to every trial (see {!Schedule.gates}). *)
}

val default : config

type failure = {
  structure : string;
  source : string;  (** ["qcheck"] or the adversary's name. *)
  schedule : int array;  (** Minimal failing schedule. *)
  replay : string;  (** {!Sched.Scheduler.replay_to_string} form. *)
  crash_plan : (int * int) list;
      (** The qcheck source's crash plan (generated when n >= 2). *)
  mix_seed : int option;
  verdict : string;
}

type report = { structure : string; trials : int; failures : failure list }

val fuzz :
  ?config:config -> structure:Scu.Checkable.t -> n:int -> ops:int -> unit -> report
