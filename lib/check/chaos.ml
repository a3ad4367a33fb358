(* Chaos fuzzing: random schedules replayed under randomly
   instantiated fault plans (crash–recovery, stalls, spurious CAS
   failure).  Failures shrink on two axes — first the schedule by
   ddmin with the fault plan held fixed, then the fault-event array by
   ddmin with the schedule held fixed, finally dropping the spurious
   rates if the failure survives without them — and replay
   byte-for-byte from (schedule, fault plan, mix seed). *)

module Checkable = Scu.Checkable
module Fault_plan = Sched.Fault_plan

type config = {
  trials : int;
  max_len : int;
  seed : int;
  gates : Schedule.gates;
}

let default =
  { trials = 60; max_len = 48; seed = 0xC0FFEE; gates = Schedule.default_gates }

let default_spec =
  { Fault_plan.base = Fault_plan.none; rates = Fault_plan.chaos_rates }

type failure = {
  structure : string;
  schedule : int array;
  replay : string;
  faults : Fault_plan.t;
  fault_spec : string;
  mix_seed : int;
  verdict : string;
}

type report = { structure : string; trials : int; failures : failure list }

let run_one ?gates ~structure ~n ~ops ~plan ~mix_seed schedule =
  Schedule.run ~fault_plan:plan ?gates ~mix_seed ~structure ~n ~ops
    ~tail:Round_robin schedule

let valid ~n plan =
  match Fault_plan.validate ~n plan with Ok () -> true | Error _ -> false

let shrink_failure ?gates ~structure ~n ~ops ~plan ~mix_seed schedule =
  (* Axis 1: the schedule, fault plan fixed. *)
  let run_one = run_one ?gates in
  let fails_sched s =
    Schedule.is_bad (run_one ~structure ~n ~ops ~plan ~mix_seed s).verdict
  in
  let schedule =
    if fails_sched schedule then Schedule.ddmin ~fails:fails_sched schedule
    else schedule
  in
  (* Axis 2: the fault events, schedule fixed.  Candidates that drop a
     healing restart can crash every process permanently; those are
     invalid plans, treated as non-failing so ddmin skips them. *)
  let spurious = Fault_plan.spurious plan in
  let plan_of events = Fault_plan.make ~spurious (Array.to_list events) in
  let fails_events evs =
    let p = plan_of evs in
    valid ~n p
    && Schedule.is_bad (run_one ~structure ~n ~ops ~plan:p ~mix_seed schedule).verdict
  in
  let events = Fault_plan.events plan in
  let plan =
    if fails_events events then
      plan_of (Schedule.ddmin ~fails:fails_events events)
    else plan
  in
  (* Axis 3: drop the spurious rates entirely when they are not needed. *)
  let plan =
    if Fault_plan.spurious plan <> [] then begin
      let without = Fault_plan.make (Fault_plan.events_list plan) in
      if
        Schedule.is_bad
          (run_one ~structure ~n ~ops ~plan:without ~mix_seed schedule).verdict
      then without
      else plan
    end
    else plan
  in
  (schedule, plan)

let run ?(config = default) ~spec ~structure ~n ~ops () =
  let failures = ref [] in
  let ran = ref 0 in
  for t = 0 to config.trials - 1 do
    let rng = Stats.Rng.create ~seed:(config.seed + (7919 * t)) in
    let len = 1 + Stats.Rng.int rng config.max_len in
    let schedule = Array.init len (fun _ -> Stats.Rng.int rng n) in
    let mix_seed = Stats.Rng.int rng 1_000_000 in
    (* Horizon covering the replayed prefix plus the round-robin tail
       a fault-free run would need, so rate-generated events can land
       anywhere in the run. *)
    let horizon = len + (50 * n * (ops + 1)) in
    let plan =
      Fault_plan.instantiate spec ~seed:(config.seed + (31 * t) + 1) ~n ~horizon
    in
    (* [instantiate] keeps a survivor among the processes *it* crashes,
       but merged with an explicit base plan the union can still crash
       everyone — skip such draws rather than fail. *)
    if valid ~n plan then begin
      incr ran;
      let gates = config.gates in
      let out = run_one ~gates ~structure ~n ~ops ~plan ~mix_seed schedule in
      if Schedule.is_bad out.verdict then begin
        let schedule, plan =
          shrink_failure ~gates ~structure ~n ~ops ~plan ~mix_seed out.executed
        in
        let final = run_one ~gates ~structure ~n ~ops ~plan ~mix_seed schedule in
        failures :=
          {
            structure = structure.Checkable.name;
            schedule = final.executed;
            replay = Sched.Scheduler.replay_to_string final.executed;
            faults = plan;
            fault_spec = Fault_plan.to_string plan;
            mix_seed;
            verdict = Schedule.verdict_to_string final.verdict;
          }
          :: !failures
      end
    end
  done;
  {
    structure = structure.Checkable.name;
    trials = !ran;
    failures = List.rev !failures;
  }
