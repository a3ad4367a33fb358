(* The layer suite of the traced run: each layer's public functions
   timed on its home workload's inputs at the run's seed, the same
   suite whichever workload is traced.  Every call is wrapped in a
   span; calls re-run beside their caller are marked [beside]. *)

module Span = Perfkit.Span
module Stat = Perfkit.Stat
module Engine = Load.Engine
module Fault_plan = Sched.Fault_plan
module Stepbench = Experiments.Stepbench

let now = Pool.monotonic_now

let timed ?beside tr name f =
  Span.with_ ?beside tr name (fun () ->
      let t0 = now () in
      let v = f () in
      (v, now () -. t0))

(* Median seconds of one call of [f]: [reps] calls per sample, one
   warm-up sample, [repeat] timed samples. *)
let per_call ?(repeat = 3) ?(reps = 1) f =
  let m =
    Stepbench.measure
      ~protocol:{ warmup = 1; repeat }
      (fun () ->
        for _ = 1 to reps do
          f ()
        done)
  in
  m.median /. float_of_int reps

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ns_per ~seconds count = seconds /. float_of_int count *. 1e9

let run_shards tr (cfg : Engine.config) =
  List.init cfg.shards (fun shard ->
      timed tr "load.engine.run_shard" (fun () -> Engine.run_shard cfg ~shard))

let shard_times prefix results =
  let times = Array.of_list (List.map snd results) in
  let steps = sum (fun ((r : Engine.shard_result), _) -> r.steps) results in
  [
    (prefix ^ ".run_shard_s.p50", Stat.lower_median times);
    (prefix ^ ".run_shard_s.max", Array.fold_left Float.max 0. times);
    (prefix ^ ".ns_per_step", ns_per ~seconds:(Array.fold_left ( +. ) 0. times) steps);
  ]

let load_steady tr ~seed =
  let results = run_shards tr (Workloads.load_config ~faulted:false ~seed) in
  shard_times "load.engine.steady" results
  @ [
      ( "load.engine.steady.queue_depth_max",
        float_of_int
          (List.fold_left
             (fun acc ((r : Engine.shard_result), _) -> max acc r.max_queue_depth)
             0 results) );
    ]

(* [Engine.run_shard] instantiates its shard's plan internally, so the
   plan is timed by instantiating it again beside the shard run. *)
let load_faults tr ~seed =
  let cfg = Workloads.load_config ~faulted:true ~seed in
  let plans =
    List.init cfg.shards (fun shard ->
        let clients =
          (cfg.clients / cfg.shards)
          + if shard < cfg.clients mod cfg.shards then 1 else 0
        in
        timed ~beside:true tr "sched.fault_plan.instantiate" (fun () ->
            Engine.shard_plan cfg ~shard ~total:(clients * cfg.ops_per_client)))
  in
  let plan_s = List.fold_left (fun acc (_, t) -> acc +. t) 0. plans in
  let events = sum (fun (p, _) -> Array.length (Fault_plan.events p)) plans in
  let results = run_shards tr cfg in
  let total f = float_of_int (sum (fun ((r : Engine.shard_result), _) -> f r) results) in
  let o f = total (fun r -> f r.Engine.outcomes) in
  let dispatches =
    total (fun r -> r.offered)
    +. o (fun c -> c.retries)
    +. o (fun c -> c.hedges)
    +. o (fun c -> c.redelivered)
  in
  shard_times "load.engine.faults" results
  @ [
      ("load.engine.restarts", total (fun r -> r.restarts));
      ("load.engine.spurious_cas", total (fun r -> r.spurious_cas));
      ("sched.fault_plan.instantiate_s", plan_s);
      ("sched.fault_plan.events", float_of_int events);
      ("sched.fault_plan.ns_per_event", ns_per ~seconds:plan_s events);
      ("load.policy.retries", o (fun c -> c.retries));
      ("load.policy.redelivered", o (fun c -> c.redelivered));
      ( "load.policy.wasted_dispatch_frac",
        (dispatches -. o Load.Policy.completed) /. dispatches );
    ]

(* The draws the engine makes per request: its RNG, arrival gap, key
   and operation coin. *)
let workload_draws ~seed =
  let cfg = Workloads.load_config ~faulted:false ~seed in
  let cdf = Load.Workload.zipf_cdf ~alpha:cfg.alpha ~n:cfg.objects in
  let requests = 200_000 in
  let sink = ref 0 in
  let t =
    per_call (fun () ->
        for i = 0 to requests - 1 do
          let k = i / cfg.clients in
          let rng = Load.Workload.request_rng ~seed ~client:(i mod cfg.clients) ~k in
          let gap = Load.Workload.gap cfg.mode rng ~k in
          let u = Stats.Rng.float rng 1.0 in
          let push = Stats.Rng.bool rng in
          sink := !sink + gap + Load.Workload.pick cdf u + Bool.to_int push
        done)
  in
  ignore (Sys.opaque_identity !sink);
  [ ("load.workload.ns_per_request", ns_per ~seconds:t requests) ]

let hdr_add ~seed =
  let rng = Stats.Rng.create ~seed in
  let values =
    Array.init 1_000_000 (fun _ ->
        int_of_float (Stats.Rng.exponential rng ~mean:200.))
  in
  let t =
    per_call (fun () ->
        let h = Stats.Hdr.create () in
        Array.iter (Stats.Hdr.add h) values)
  in
  [ ("stats.hdr.ns_per_add", ns_per ~seconds:t (Array.length values)) ]

(* Report and manifest costs do not grow with the request count (the
   histograms are fixed-size), so a tenth of the faulted load — whose
   manifest is the larger schema 2 — serves as input. *)
let report tr ~seed =
  let cfg = { (Workloads.load_config ~faulted:true ~seed) with ops_per_client = 25 } in
  let r = Span.with_ tr "load.engine.run" (fun () -> Engine.run cfg) in
  let m = Load.Report.of_result r in
  let s = Telemetry.Load_report.to_string ~compact:true m in
  let of_result = per_call ~reps:20 (fun () -> ignore (Load.Report.of_result r)) in
  let to_string =
    per_call ~reps:20 (fun () ->
        ignore (Telemetry.Load_report.to_string ~compact:true m))
  in
  let parse = per_call ~reps:20 (fun () -> ignore (Telemetry.Json.parse s)) in
  [
    ("load.report.of_result_s", of_result);
    ("telemetry.load_report.to_string_s", to_string);
    ("telemetry.json.parse_mb_per_s", float_of_int (String.length s) /. parse /. 1e6);
  ]

let executor ~seed =
  let interp n =
    let steps = 400_000 in
    ns_per ~seconds:(per_call (fun () ->
        ignore (Stepbench.counter_interp ~seed ~n ~steps ()))) steps
  in
  let compiled_steps = 4_000_000 in
  let compiled =
    per_call (fun () ->
        ignore (Stepbench.counter_compiled ~seed ~n:64 ~steps:compiled_steps ()))
  in
  let m = Stepbench.counter_compiled ~seed ~n:64 ~steps:compiled_steps () in
  (* A standard-rate plan forces the per-pick loop of the compiled
     executor: crashes and stalls change the alive set. *)
  let fault_steps = 200_000 in
  let plan =
    Fault_plan.instantiate
      { base = Fault_plan.none; rates = Fault_plan.standard_rates }
      ~seed ~n:64 ~horizon:fault_steps
  in
  let config = Sim.Executor.Config.(default |> with_seed seed |> with_faults plan) in
  let faulted =
    per_call (fun () ->
        let c = Scu.Counter.make_compiled ~n:64 in
        ignore
          (Sim.Executor.exec_compiled ~config ~scheduler:Sched.Scheduler.uniform
             ~n:64 ~stop:(Steps fault_steps) c.cspec))
  in
  [
    ("sim.executor.exec.ns_per_step.n8", interp 8);
    ("sim.executor.exec.ns_per_step.n64", interp 64);
    ( "sim.executor.exec_compiled.ns_per_step.n64",
      ns_per ~seconds:compiled compiled_steps );
    ( "sim.executor.exec_compiled_faults.ns_per_step.n64",
      ns_per ~seconds:faulted fault_steps );
    ( "sim.executor.completions_per_step.n64",
      float_of_int (Sim.Metrics.total_completions m)
      /. float_of_int (Sim.Metrics.time m) );
  ]

let scheduler ~seed =
  let rng = Stats.Rng.create ~seed in
  let picks = 1_000_000 in
  let alive8 = Array.make 8 true in
  let pick = Sched.Scheduler.uniform.pick in
  let sink = ref 0 in
  let t_pick =
    per_call (fun () ->
        for time = 0 to picks - 1 do
          sink := !sink + pick ~rng ~alive:alive8 ~time
        done)
  in
  let fill =
    match Sched.Scheduler.uniform.fill with
    | Some f -> f
    | None -> failwith "uniform scheduler lost its batched fill"
  in
  let alive64 = Array.make 64 true and dst = Array.make 8192 0 in
  let batches = picks / 8192 in
  let t_fill =
    per_call (fun () ->
        for _ = 1 to batches do
          fill ~rng ~alive:alive64 ~dst ~len:8192
        done)
  in
  ignore (Sys.opaque_identity !sink);
  [
    ("sched.scheduler.uniform.ns_per_pick.n8", ns_per ~seconds:t_pick picks);
    ("sched.scheduler.uniform.ns_per_fill.n64", ns_per ~seconds:t_fill (batches * 8192));
  ]

let chains tr =
  let n1, n2 = Workloads.chain_ns in
  let sp2, build =
    timed tr "chains.scu_chain.sparse_build.n450" (fun () ->
        Chains.Scu_chain.System.sparse ~n:n2)
  in
  let sp1 = Chains.Scu_chain.System.sparse ~n:n1 in
  let _, transpose =
    timed tr "markov.sparse.transpose.n450" (fun () -> Markov.Sparse.transpose sp2)
  in
  let solve n sp =
    timed tr (Printf.sprintf "markov.sparse.stationary_stats.n%d" n) (fun () ->
        snd (Markov.Sparse.stationary_stats sp))
  in
  let (st1 : Markov.Sparse.stats), t1 = solve n1 sp1 in
  let (st2 : Markov.Sparse.stats), t2 = solve n2 sp2 in
  let _, mf =
    timed tr "chains.meanfield.latency.n1e6" (fun () ->
        Chains.Meanfield.latency ~n:1_000_000 ())
  in
  [
    ("chains.scu_chain.sparse_build_s.n450", build);
    ("markov.sparse.solve_s.n256", t1);
    ("markov.sparse.solve_s.n450", t2);
    ("markov.sparse.sweeps.n256", float_of_int st1.sweeps);
    ("markov.sparse.sweeps.n450", float_of_int st2.sweeps);
    ( "markov.sparse.ns_per_nnz_sweep",
      ns_per ~seconds:t2 (st2.sweeps * Markov.Sparse.nnz sp2) );
    ("markov.sparse.transpose_s.n450", transpose);
    ("markov.sparse.residual.n450", st2.residual);
    ("chains.meanfield.latency_s.n1e6", mf);
  ]

let check tr ~seed =
  let per =
    List.map
      (fun name ->
        let s = Scu.Checkable.find name in
        let (e : Check.Explore.report), te =
          timed tr ("check.explore." ^ name) (fun () -> Workloads.explore s)
        in
        let (f : Check.Fuzz.report), tf =
          timed tr ("check.fuzz." ^ name) (fun () -> Workloads.fuzz ~seed s)
        in
        (name, e, te, f, tf))
      Perfkit.Catalog.structures
  in
  let pruned =
    sum (fun (_, e, _, _, _) -> e.Check.Explore.pruned_by_state + e.pruned_by_sleep) per
  in
  let nodes = sum (fun (_, e, _, _, _) -> e.Check.Explore.nodes) per in
  let trials = sum (fun (_, _, _, f, _) -> f.Check.Fuzz.trials) per in
  let fuzz_s = List.fold_left (fun acc (_, _, _, _, tf) -> acc +. tf) 0. per in
  List.map (fun (name, _, te, _, _) -> ("check.explore.s." ^ name, te)) per
  @ List.map
      (fun (name, e, _, _, _) ->
        ("check.explore.nodes." ^ name, float_of_int e.Check.Explore.nodes))
      per
  @ [
      ( "check.explore.pruned_frac",
        float_of_int pruned /. float_of_int (nodes + pruned) );
      ("check.fuzz.trials_per_s", float_of_int trials /. fuzz_s);
    ]

(* A judge's cost per history: the same seeded schedules replayed with
   the judge on, minus with every judge off. *)
let linearize tr ~seed =
  let rng = Stats.Rng.create ~seed in
  let schedules =
    Array.init 40 (fun _ -> Array.init 24 (fun _ -> Stats.Rng.int rng 3))
  in
  let structures = List.map Scu.Checkable.find Perfkit.Catalog.structures in
  let histories = Array.length schedules * List.length structures in
  let replay_all gates () =
    List.iter
      (fun structure ->
        Array.iter
          (fun schedule ->
            ignore
              (Check.Schedule.run ~gates ~structure ~n:3 ~ops:3 ~tail:Round_robin
                 schedule))
          schedules)
      structures
  in
  let time name gates =
    Span.with_ tr name (fun () -> per_call ~repeat:5 (replay_all gates))
  in
  let off = time "check.schedule.run (no judge)" { lin = false; shadow = false } in
  let lin = time "linearize.checker" { lin = true; shadow = false } in
  let shadow = time "linearize.shadow" { lin = false; shadow = true } in
  let us t = (t -. off) /. float_of_int histories *. 1e6 in
  [
    ("linearize.checker.us_per_history", us lin);
    ("linearize.shadow.us_per_history", us shadow);
  ]

let experiments tr ~seed =
  let budget = Experiments.Exp.budget ~quick:true ~seed () in
  List.map
    (fun id ->
      let e = Option.get (Experiments.Exp.find id) in
      let _, t =
        timed tr ("experiments." ^ id) (fun () -> Experiments.Exp.table ~budget e)
      in
      ("experiments." ^ id ^ ".s", t))
    Perfkit.Catalog.experiments

let run tr ~seed =
  List.concat_map
    (fun (name, f) -> Span.with_ tr name f)
    [
      ("load-steady inputs", fun () -> load_steady tr ~seed);
      ("load-faults inputs", fun () -> load_faults tr ~seed);
      ("load draws", fun () -> workload_draws ~seed @ hdr_add ~seed);
      ("load report", fun () -> report tr ~seed);
      ("executor", fun () -> executor ~seed @ scheduler ~seed);
      ("chain-sparse inputs", fun () -> chains tr);
      ("check-explore inputs", fun () -> check tr ~seed @ linearize tr ~seed);
      ("paper-quick inputs", fun () -> experiments tr ~seed);
    ]
