(* Every workload and metric the benchmark declares.  BENCHMARK.json at
   the repository root carries the same lists; the test suite checks
   that the two agree in both directions, and a run refuses to print a
   metric set that differs from the one declared for its mode. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;
      (** End-to-end only: the share of the parent's median by which
          the metric may worsen before a change counts as a
          regression. *)
}

let workloads =
  [ "load-steady"; "load-faults"; "chain-sparse"; "check-explore"; "paper-quick" ]

(* The measuring time, in seconds, that each workload's fixed count of
   timed iterations was sized to fill. *)
let run_seconds = 16

let e2e name unit better bound = { name; unit; better; bound = Some bound }

(* Every workload reports every one of these.  An "op" is a workload's
   unit of work: a request (both load workloads), a Gauss-Seidel nonzero update
   (chain-sparse), an explorer node (check-explore), an experiment
   (paper-quick). *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "wall_s" "s" Lower 0.25;
    e2e "ops_per_s" "op/s" Higher 0.25;
    e2e "heap_mb" "MB" Lower 0.25;
  ]

(* The 23 simulated experiments of `repro run all --quick`: the full
   catalogue minus fig3, fig4, fig5, ext-replay and hw (real-hardware
   measurements) and microbench (prints wall times). *)
let experiments =
  [
    "fig1"; "thm3"; "lem2"; "thm4"; "lem7"; "thm5"; "lem11"; "lem12";
    "lift"; "meanfield"; "cor2"; "abl-sched"; "abl-wf"; "abl-lock";
    "abl-of"; "abl-tas"; "structs"; "ext-shard"; "ext-mix"; "ext-methods";
    "ext-tail"; "ext-backup"; "chaos";
  ]

(* [Scu.Checkable.stock], by name. *)
let structures =
  [
    "cas-counter"; "faa-counter"; "treiber"; "msqueue"; "elimination-stack";
    "waitfree-counter";
  ]

let layer name unit better = { name; unit; better; bound = None }

(* Printed only by the traced run, identically for every workload: the
   layer suite measures each layer on its home workload's inputs
   whichever workload is traced. *)
let per_layer =
  [
    layer "trace.overhead_frac" "fraction" Lower;
    layer "load.engine.steady.run_shard_s.p50" "s" Lower;
    layer "load.engine.steady.run_shard_s.max" "s" Lower;
    layer "load.engine.steady.ns_per_step" "ns" Lower;
    layer "load.engine.steady.queue_depth_max" "count" Lower;
    layer "load.engine.faults.run_shard_s.p50" "s" Lower;
    layer "load.engine.faults.run_shard_s.max" "s" Lower;
    layer "load.engine.faults.ns_per_step" "ns" Lower;
    layer "load.engine.restarts" "count" Lower;
    layer "load.engine.spurious_cas" "count" Lower;
    layer "sched.fault_plan.instantiate_s" "s" Lower;
    layer "sched.fault_plan.events" "count" Lower;
    layer "sched.fault_plan.ns_per_event" "ns" Lower;
    layer "load.policy.retries" "count" Lower;
    layer "load.policy.redelivered" "count" Lower;
    layer "load.policy.wasted_dispatch_frac" "fraction" Lower;
    layer "load.workload.ns_per_request" "ns" Lower;
    layer "stats.hdr.ns_per_add" "ns" Lower;
    layer "load.report.of_result_s" "s" Lower;
    layer "telemetry.load_report.to_string_s" "s" Lower;
    layer "telemetry.json.parse_mb_per_s" "MB/s" Higher;
    layer "sim.executor.exec.ns_per_step.n8" "ns" Lower;
    layer "sim.executor.exec.ns_per_step.n64" "ns" Lower;
    layer "sim.executor.exec_compiled.ns_per_step.n64" "ns" Lower;
    layer "sim.executor.exec_compiled_faults.ns_per_step.n64" "ns" Lower;
    layer "sim.executor.completions_per_step.n64" "1/step" Higher;
    layer "sched.scheduler.uniform.ns_per_pick.n8" "ns" Lower;
    layer "sched.scheduler.uniform.ns_per_fill.n64" "ns" Lower;
    layer "chains.scu_chain.sparse_build_s.n450" "s" Lower;
    layer "markov.sparse.solve_s.n256" "s" Lower;
    layer "markov.sparse.solve_s.n450" "s" Lower;
    layer "markov.sparse.sweeps.n256" "count" Lower;
    layer "markov.sparse.sweeps.n450" "count" Lower;
    layer "markov.sparse.ns_per_nnz_sweep" "ns" Lower;
    layer "markov.sparse.transpose_s.n450" "s" Lower;
    layer "markov.sparse.residual.n450" "l1" Lower;
    layer "chains.meanfield.latency_s.n1e6" "s" Lower;
  ]
  @ List.map (fun s -> layer ("check.explore.s." ^ s) "s" Lower) structures
  @ List.map (fun s -> layer ("check.explore.nodes." ^ s) "count" Lower) structures
  @ [
      layer "check.explore.pruned_frac" "fraction" Higher;
      layer "check.fuzz.trials_per_s" "1/s" Higher;
      layer "linearize.checker.us_per_history" "us" Lower;
      layer "linearize.shadow.us_per_history" "us" Lower;
    ]
  @ List.map (fun id -> layer ("experiments." ^ id ^ ".s") "s" Lower) experiments

let find name =
  List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)
