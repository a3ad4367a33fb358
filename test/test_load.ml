(* Tests for the live-service load generator: workload sampling,
   engine determinism and conservation laws, SLO sweep gates, and the
   telemetry manifest round-trip. *)

let prop name ?(count = 100) gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

(* -- Workload ------------------------------------------------------ *)

let test_mix_deterministic () =
  Alcotest.(check int) "same inputs" (Load.Workload.mix 7 42) (Load.Workload.mix 7 42);
  Alcotest.(check bool) "different inputs" true
    (Load.Workload.mix 7 42 <> Load.Workload.mix 7 43);
  Alcotest.(check bool) "non-negative" true (Load.Workload.mix (-3) 17 >= 0)

let test_zipf_cdf_shape () =
  let cdf = Load.Workload.zipf_cdf ~alpha:1.1 ~n:64 in
  Alcotest.(check int) "length" 64 (Array.length cdf);
  Alcotest.(check (float 1e-9)) "last pinned" 1.0 cdf.(63);
  for i = 1 to 63 do
    Alcotest.(check bool) "monotone" true (cdf.(i) >= cdf.(i - 1))
  done;
  (* alpha > 0 concentrates mass on low keys. *)
  Alcotest.(check bool) "skewed head" true (cdf.(0) > 1. /. 64.)

let test_zipf_uniform () =
  let cdf = Load.Workload.zipf_cdf ~alpha:0. ~n:10 in
  Alcotest.(check (float 1e-9)) "uniform head" 0.1 cdf.(0)

let test_pick_bounds () =
  let cdf = Load.Workload.zipf_cdf ~alpha:1.1 ~n:16 in
  Alcotest.(check int) "u=0 picks head" 0 (Load.Workload.pick cdf 0.);
  Alcotest.(check int) "u=1 picks tail" 15 (Load.Workload.pick cdf 0.9999999)

let prop_pick_in_range =
  prop "pick lands in [0, n)" ~count:300
    QCheck2.Gen.(pair (int_range 1 40) (float_bound_inclusive 1.))
    (fun (n, u) ->
      let cdf = Load.Workload.zipf_cdf ~alpha:0.8 ~n in
      let k = Load.Workload.pick cdf u in
      k >= 0 && k < n)

let test_request_rng_independent () =
  (* Every request draws from its own stream: the draws for (client, k)
     do not depend on any other request having been sampled. *)
  let a = Load.Workload.request_rng ~seed:0 ~client:5 ~k:2 in
  let b = Load.Workload.request_rng ~seed:0 ~client:5 ~k:2 in
  Alcotest.(check int64) "same stream" (Stats.Rng.bits64 a) (Stats.Rng.bits64 b);
  let c = Load.Workload.request_rng ~seed:0 ~client:5 ~k:3 in
  Alcotest.(check bool) "distinct per k" true
    (Stats.Rng.bits64 (Load.Workload.request_rng ~seed:0 ~client:5 ~k:2)
    <> Stats.Rng.bits64 c)

let test_validate_mode () =
  let ok m = Alcotest.(check bool) "ok" true (Result.is_ok (Load.Workload.validate m)) in
  let err m =
    Alcotest.(check bool) "err" true (Result.is_error (Load.Workload.validate m))
  in
  ok (Load.Workload.Closed { think = 0. });
  ok (Load.Workload.Open (Poisson { rate = 0.1 }));
  err (Load.Workload.Closed { think = -1. });
  err (Load.Workload.Open (Poisson { rate = 0. }));
  err (Load.Workload.Open (Bursty { rate = 0.1; burst = 0; idle = 10. }))

(* -- Engine -------------------------------------------------------- *)

let small_cfg =
  {
    Load.Engine.default with
    clients = 4_000;
    workers = 4;
    shards = 4;
    objects = 8;
  }

let test_engine_conservation () =
  let r = Load.Engine.run small_cfg in
  Alcotest.(check int) "all requests served" 4_000 r.requests;
  Alcotest.(check int) "latency count" 4_000 (Stats.Hdr.count r.latency);
  Alcotest.(check int) "service count" 4_000 (Stats.Hdr.count r.service);
  let per_kind_total =
    List.fold_left (fun acc (_, h) -> acc + Stats.Hdr.count h) 0 r.per_kind
  in
  Alcotest.(check int) "per-kind partitions requests" 4_000 per_kind_total;
  let shard_total =
    List.fold_left
      (fun acc (s : Load.Engine.shard_result) -> acc + s.requests)
      0 r.shards
  in
  Alcotest.(check int) "shards partition requests" 4_000 shard_total;
  Alcotest.(check bool) "finished" false r.stopped_early

let test_engine_pool_matches_sequential () =
  let seq = Load.Engine.run small_cfg in
  let par =
    Pool.with_pool ~size:4 (fun pool -> Load.Engine.run ~pool small_cfg)
  in
  Alcotest.(check int) "requests" seq.requests par.requests;
  Alcotest.(check int) "steps_total" seq.steps_total par.steps_total;
  Alcotest.(check int) "p50" (Stats.Hdr.p50 seq.latency) (Stats.Hdr.p50 par.latency);
  Alcotest.(check int) "p999" (Stats.Hdr.p999 seq.latency) (Stats.Hdr.p999 par.latency);
  Alcotest.(check (float 1e-12)) "mean service" (Stats.Hdr.mean seq.service)
    (Stats.Hdr.mean par.service)

let test_engine_manifest_deterministic () =
  let manifest cfg =
    Telemetry.Load_report.to_string (Load.Report.of_result (Load.Engine.run cfg))
  in
  Alcotest.(check string) "same seed, same bytes" (manifest small_cfg)
    (manifest small_cfg);
  Alcotest.(check bool) "seed changes bytes" true
    (manifest small_cfg <> manifest { small_cfg with seed = 1 })

let test_engine_zoo_round_robin () =
  let cfg =
    { small_cfg with kinds = Load.Engine.all_kinds; clients = 1_000; shards = 2 }
  in
  let r = Load.Engine.run cfg in
  Alcotest.(check int) "kinds" 5 (List.length r.per_kind);
  List.iter
    (fun (_, h) -> Alcotest.(check int) "even split" 200 (Stats.Hdr.count h))
    r.per_kind

let test_engine_open_loop_queues () =
  (* An open loop pushed well past service capacity must show queueing:
     latency strictly dominates service. *)
  let cfg =
    {
      small_cfg with
      clients = 400;
      ops_per_client = 8;
      shards = 1;
      workers = 2;
      mode = Load.Workload.Open (Poisson { rate = 0.5 });
    }
  in
  let r = Load.Engine.run cfg in
  Alcotest.(check int) "served" 3_200 r.requests;
  Alcotest.(check bool) "queue wait recorded" true
    (Stats.Hdr.mean r.queue_wait > 0.);
  Alcotest.(check bool) "queue built up" true
    (List.exists
       (fun (s : Load.Engine.shard_result) -> s.max_queue_depth > 1)
       r.shards)

let test_engine_closed_think_slows_arrivals () =
  (* Few clients, so the run length is arrival-bound, not service-bound:
     think time staggers the (initial) arrivals and stretches the run. *)
  let run think =
    let cfg =
      {
        small_cfg with
        clients = 64;
        mode = Load.Workload.Closed { think };
        shards = 1;
      }
    in
    (Load.Engine.run cfg).steps_max
  in
  Alcotest.(check bool) "think time stretches the run" true
    (run 500. > run 0.)

let test_engine_validate () =
  let err cfg =
    Alcotest.(check bool) "rejected" true
      (Result.is_error (Load.Engine.validate cfg))
  in
  err { small_cfg with clients = -1 };
  err { small_cfg with kinds = [] };
  err { small_cfg with shards = 0 };
  err { small_cfg with workers = 0 };
  err { small_cfg with alpha = -0.5 };
  (* Rates built in code, not parsed, are checked too. *)
  let rates r =
    { small_cfg with faults = { Sched.Fault_plan.base = Sched.Fault_plan.none; rates = r } }
  in
  err (rates { Sched.Fault_plan.standard_rates with casfail = 1.5 });
  err (rates { Sched.Fault_plan.standard_rates with stall_len = -3 });
  err (rates { Sched.Fault_plan.standard_rates with crash = Float.nan })

let test_kind_names_round_trip () =
  List.iter
    (fun k ->
      match Load.Engine.kind_of_name (Load.Engine.kind_name k) with
      | Ok k' ->
          Alcotest.(check string) "round trip" (Load.Engine.kind_name k)
            (Load.Engine.kind_name k')
      | Error msg -> Alcotest.fail msg)
    Load.Engine.all_kinds;
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Load.Engine.kind_of_name "skiplist"))

(* -- SLO sweep ----------------------------------------------------- *)

let test_slo_counter_passes () =
  let s =
    Load.Slo.run ~ns:[ 2; 4 ] ~requests_per_point:8_000 ~kind:Load.Engine.Counter
      ~seed:0 ()
  in
  Alcotest.(check bool) "passed" true s.passed;
  Alcotest.(check int) "points" 2 (List.length s.points);
  Alcotest.(check bool) "gates present" true (List.length s.gates > 0);
  List.iter
    (fun (p : Load.Slo.point) ->
      Alcotest.(check bool) "measured something" true (p.requests > 0))
    s.points

let test_slo_waitfree_unclassified () =
  Alcotest.check_raises "no (q,s) classification"
    (Invalid_argument
       "Slo.run: waitfree-counter has no SCU(q, s) classification (its \
        helping scan is Theta(n) per attempt); classified structures: \
        counter, treiber, msqueue, elimination-stack")
    (fun () ->
      ignore (Load.Slo.run ~kind:Load.Engine.Waitfree ~seed:0 ()))

let test_slo_params () =
  let p k = Load.Slo.params_of_kind k in
  Alcotest.(check bool) "counter" true (p Load.Engine.Counter = Some { Load.Slo.q = 0; s = 1 });
  Alcotest.(check bool) "treiber" true (p Load.Engine.Treiber = Some { Load.Slo.q = 1; s = 1 });
  Alcotest.(check bool) "msqueue" true (p Load.Engine.Msqueue = Some { Load.Slo.q = 1; s = 2 });
  Alcotest.(check bool) "waitfree" true (p Load.Engine.Waitfree = None)

(* -- Policy -------------------------------------------------------- *)

let test_policy_validate () =
  let ok p = Alcotest.(check bool) "ok" true (Result.is_ok (Load.Policy.validate p)) in
  let err p =
    Alcotest.(check bool) "err" true (Result.is_error (Load.Policy.validate p))
  in
  ok Load.Policy.default;
  ok { Load.Policy.default with deadline = Some 100; max_retries = 3 };
  ok { Load.Policy.default with hedge_after = Some 8 };
  err { Load.Policy.default with deadline = Some 0 };
  err { Load.Policy.default with max_retries = -1 };
  err { Load.Policy.default with backoff_base = 0 };
  err { Load.Policy.default with hedge_after = Some 0 };
  (* Retries without a deadline can never trigger. *)
  err { Load.Policy.default with max_retries = 2 }

let test_policy_backoff () =
  let p = { Load.Policy.default with backoff_base = 16 } in
  let b = Load.Policy.backoff p ~seed:0 ~rid:7 ~attempt:1 in
  Alcotest.(check int) "pure function of (seed, rid, attempt)" b
    (Load.Policy.backoff p ~seed:0 ~rid:7 ~attempt:1);
  Alcotest.(check bool) "exponential floor, bounded jitter" true
    (b >= 16 && b < 32);
  let b2 = Load.Policy.backoff p ~seed:0 ~rid:7 ~attempt:2 in
  Alcotest.(check bool) "attempt 2 doubles" true (b2 >= 32 && b2 < 48);
  Alcotest.(check bool) "seed matters" true
    (Load.Policy.backoff p ~seed:1 ~rid:7 ~attempt:1 <> b
    || Load.Policy.backoff p ~seed:1 ~rid:8 ~attempt:1
       <> Load.Policy.backoff p ~seed:0 ~rid:8 ~attempt:1)

let test_policy_counts_algebra () =
  let a =
    { Load.Policy.zero_counts with ok = 3; retried = 2; timed_out = 1 }
  in
  let b = { Load.Policy.zero_counts with dropped = 4; retries = 9 } in
  let s = Load.Policy.add_counts a b in
  Alcotest.(check int) "completed" 5 (Load.Policy.completed s);
  Alcotest.(check int) "failed" 5 (Load.Policy.failed s);
  Alcotest.(check int) "total partitions" 10 (Load.Policy.total s);
  Alcotest.(check int) "retries carried" 9 s.retries

(* -- Fault-tolerant engine ----------------------------------------- *)

(* Pinned-outcome drills: the engine is a pure function of its config,
   so the full outcome taxonomy of each drill is a regression
   constant.  A change here means the robust dispatch path changed
   behaviour, not just refactored. *)

let counts =
  Alcotest.testable
    (fun fmt c -> Format.pp_print_string fmt (Load.Policy.counts_to_string c))
    ( = )

let tight_cfg =
  { small_cfg with clients = 2_000; workers = 2; shards = 2 }

let test_deadline_expiry_pinned () =
  let cfg =
    { tight_cfg with policy = { Load.Policy.default with deadline = Some 40 } }
  in
  let r = Load.Engine.run cfg in
  Alcotest.check counts "deadline-expiry taxonomy"
    {
      Load.Policy.zero_counts with
      ok = 37;
      timed_out = 1_963;
    }
    r.outcomes;
  Alcotest.(check int) "requests = completed" 37 r.requests;
  Alcotest.(check int) "offered is the full load" 2_000 r.offered;
  Alcotest.(check bool) "resolved, not stopped" false r.stopped_early

let test_retry_exhaustion_pinned () =
  let cfg =
    {
      tight_cfg with
      policy = { Load.Policy.default with deadline = Some 40; max_retries = 2 };
    }
  in
  let r = Load.Engine.run cfg in
  Alcotest.check counts "retry-exhaustion taxonomy"
    {
      Load.Policy.zero_counts with
      ok = 37;
      retried = 103;
      retries = 3_881;
      timed_out = 1_860;
    }
    r.outcomes;
  Alcotest.(check int) "every request resolves" 2_000
    (Load.Policy.total r.outcomes)

let test_hedge_pinned () =
  let cfg =
    {
      tight_cfg with
      workers = 8;
      policy = { Load.Policy.default with hedge_after = Some 4 };
    }
  in
  let r = Load.Engine.run cfg in
  Alcotest.check counts "hedging costs duplicates, loses nothing"
    { Load.Policy.zero_counts with ok = 2_000; hedges = 1_657 }
    r.outcomes

let faulted_cfg =
  {
    Load.Engine.default with
    clients = 4_000;
    workers = 4;
    shards = 4;
    objects = 8;
    faults =
      {
        Sched.Fault_plan.base = Sched.Fault_plan.none;
        rates = Sched.Fault_plan.standard_rates;
      };
    policy = { Load.Policy.default with deadline = Some 400; max_retries = 2 };
  }

let test_faulted_standard_pinned () =
  let r = Load.Engine.run faulted_cfg in
  Alcotest.check counts "standard-tier taxonomy"
    {
      Load.Policy.ok = 624;
      retried = 1_252;
      retries = 6_147;
      redelivered = 43;
      hedges = 0;
      timed_out = 2_124;
      dropped = 0;
    }
    r.outcomes;
  Alcotest.(check int) "injected restarts" 44 r.restarts;
  Alcotest.(check int) "injected spurious CAS" 47 r.spurious_cas

let test_faulted_deterministic () =
  let manifest r =
    Telemetry.Load_report.to_string (Load.Report.of_result r)
  in
  let seq = manifest (Load.Engine.run faulted_cfg) in
  Alcotest.(check string) "same seed, same bytes" seq
    (manifest (Load.Engine.run faulted_cfg));
  let par =
    Pool.with_pool ~size:4 (fun pool ->
        manifest (Load.Engine.run ~pool faulted_cfg))
  in
  Alcotest.(check string) "pool does not change bytes" seq par

let test_faulted_manifest_schema () =
  let report cfg = Load.Report.of_result (Load.Engine.run cfg) in
  let json cfg = Telemetry.Load_report.to_string (report cfg) in
  let has s sub =
    let ns = String.length s and nb = String.length sub in
    let rec go i = i + nb <= ns && (String.sub s i nb = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "fault-free stays schema 1" true
    (has (json small_cfg) Telemetry.Load_report.schema);
  Alcotest.(check bool) "faulted upgrades to schema 2" true
    (has (json faulted_cfg) Telemetry.Load_report.schema_v2)

(* Both workers of every shard crashed for good at step 0. *)
let outage_cfg =
  {
    tight_cfg with
    shards = 2;
    faults =
      {
        Load.Engine.no_faults with
        Sched.Fault_plan.base =
          Sched.Fault_plan.of_crash_events [ (0, 0); (0, 1) ];
      };
  }

let test_outage_all_dropped () =
  (* Permanently crash both workers: the shard must degrade to an
     all-dropped stopped-early result instead of running (the executor
     itself rejects total-outage plans). *)
  let r = Load.Engine.run outage_cfg in
  Alcotest.(check int) "nothing served" 0 r.requests;
  Alcotest.check counts "everything dropped"
    { Load.Policy.zero_counts with dropped = 2_000 }
    r.outcomes;
  Alcotest.(check bool) "stopped early" true r.stopped_early;
  Alcotest.(check (list int)) "both shards named" [ 0; 1 ]
    (Load.Engine.stopped_shards r)

let test_stop_causes () =
  (* A shard that ran out of [max_steps] and one that never ran are
     told apart in the report and its rendering. *)
  let report cfg = Load.Report.of_result (Load.Engine.run cfg) in
  let causes cfg =
    List.map
      (fun (c, ids) ->
        ( (match c with
          | Load.Report.Outage -> "outage"
          | Step_budget -> "step budget"),
          ids ))
      (Load.Report.stopped_early (report cfg))
  in
  let check label want cfg =
    Alcotest.(check (list (pair string (list int)))) label want (causes cfg)
  in
  check "finished" [] small_cfg;
  check "out of steps" [ ("step budget", [ 0; 1; 2; 3 ]) ]
    { small_cfg with max_steps = 100 };
  check "outage" [ ("outage", [ 0; 1 ]) ] outage_cfg;
  let rendered = Load.Report.render (report { small_cfg with max_steps = 100 }) in
  Alcotest.(check bool) ("render names the budget: " ^ rendered) true
    (List.exists
       (String.ends_with ~suffix:"STOPPED EARLY (step budget; shards 0,1,2,3)")
       (String.split_on_char '\n' rendered))

let test_empty_shards () =
  (* Fewer clients than shards: a shard past the last client carries no
     request and returns without simulating — 0 steps, all-zero
     outcomes, never stopped early — with or without a fault spec, even
     a total outage that stops every shard that has requests. *)
  List.iter
    (fun (label, (cfg : Load.Engine.config), busy_stopped) ->
      let r = Load.Engine.run cfg in
      List.iter
        (fun (s : Load.Engine.shard_result) ->
          let name = Printf.sprintf "%s shard %d" label s.shard in
          if s.shard < cfg.clients then
            Alcotest.(check bool) (name ^ " stopped early") busy_stopped
              s.stopped_early
          else begin
            Alcotest.(check int) (name ^ " offered") 0 s.offered;
            Alcotest.(check int) (name ^ " steps") 0 s.steps;
            Alcotest.(check bool) (name ^ " stopped early") false
              s.stopped_early;
            Alcotest.check counts (name ^ " outcomes") Load.Policy.zero_counts
              s.outcomes
          end)
        r.shards)
    [
      ("fault-free", { small_cfg with clients = 3; shards = 8 }, false);
      ("faulted", { faulted_cfg with clients = 3; shards = 8 }, false);
      ("outage", { outage_cfg with clients = 1 }, true);
    ]

let test_shard_plan_deterministic () =
  let plan s = Load.Engine.shard_plan faulted_cfg ~shard:s ~total:1_000 in
  Alcotest.(check bool) "same shard, same plan" true
    (Sched.Fault_plan.events (plan 0) = Sched.Fault_plan.events (plan 0));
  Alcotest.(check bool) "shards draw independent plans" true
    (Sched.Fault_plan.events (plan 0) <> Sched.Fault_plan.events (plan 1))

let test_error_budget_verdicts () =
  let budget cfg = Load.Report.error_budget (Load.Engine.run cfg) in
  let healthy = budget { small_cfg with clients = 500 } in
  Alcotest.(check string) "fault-free meets the objective" "ok"
    healthy.Telemetry.Load_report.verdict;
  Alcotest.(check (float 1e-9)) "full availability" 1.0 healthy.availability;
  let hurt =
    budget
      { tight_cfg with policy = { Load.Policy.default with deadline = Some 40 } }
  in
  Alcotest.(check string) "mass timeouts breach the budget" "breached"
    hurt.Telemetry.Load_report.verdict;
  Alcotest.(check bool) "burn is enormous" true (hurt.burn > 10.)

(* -- Degradation gates --------------------------------------------- *)

let test_degrade_budgets_table () =
  List.iter
    (fun tier ->
      Alcotest.(check bool) tier true
        (Load.Degrade.budgets_for_tier tier <> None))
    [ "quick"; "standard"; "century"; "chaos" ];
  Alcotest.(check bool) "unknown tier" true
    (Load.Degrade.budgets_for_tier "hurricane" = None)

(* A deadline comfortably above the queueing delay, so the standard
   tier's budget is spent on injected faults rather than self-inflicted
   timeouts (the CLI's --expect-degraded drills use the same shape). *)
let degrade_cfg =
  {
    Load.Engine.default with
    clients = 8_000;
    workers = 8;
    shards = 4;
    objects = 16;
    policy = { Load.Policy.default with deadline = Some 4_000; max_retries = 2 };
  }

let test_degrade_standard_passes () =
  match Load.Degrade.run ~tier:"standard" degrade_cfg with
  | Error e -> Alcotest.fail e
  | Ok d ->
      Alcotest.(check bool) "within budget" true d.passed;
      Alcotest.(check int) "five gates" 5 (List.length d.gates);
      Alcotest.(check bool) "baseline leg is fault-free" false
        (Load.Report.reports_faults d.baseline.config)

let test_degrade_unknown_tier () =
  Alcotest.(check bool) "unknown tier is an error" true
    (Result.is_error (Load.Degrade.run ~tier:"hurricane" faulted_cfg))

let test_crash_check_gates () =
  let gates = Load.Degrade.crash_check ~k:2 faulted_cfg in
  Alcotest.(check int) "three gates" 3 (List.length gates);
  List.iter
    (fun (g : Check.Conform.gate) ->
      Alcotest.(check bool) (g.name ^ ": " ^ g.detail) true g.passed)
    gates;
  Alcotest.check_raises "k out of range"
    (Invalid_argument "Degrade.crash_check: need 0 < k < workers")
    (fun () -> ignore (Load.Degrade.crash_check ~k:4 faulted_cfg))

(* -- Manifest ------------------------------------------------------ *)

let test_manifest_json_round_trip () =
  let r = Load.Engine.run { small_cfg with clients = 500 } in
  let gates =
    [ Check.Conform.gate "slo-demo" true "demo gate for serialization" ]
  in
  let report = Load.Report.of_result ~window:3 ~slo:gates r in
  let json = Telemetry.Json.parse_exn (Telemetry.Load_report.to_string report) in
  let get path conv =
    match Telemetry.Json.member path json with
    | Some v -> conv v
    | None -> Alcotest.failf "missing field %s" path
  in
  Alcotest.(check (option string))
    "schema" (Some Telemetry.Load_report.schema)
    (get "schema" Telemetry.Json.to_str);
  Alcotest.(check (option int)) "requests" (Some 500)
    (get "requests" Telemetry.Json.to_int);
  Alcotest.(check (option int)) "window" (Some 3)
    (get "window" Telemetry.Json.to_int);
  Alcotest.(check (option bool)) "stopped_early" (Some false)
    (get "stopped_early" Telemetry.Json.to_bool);
  (match get "latency" Fun.id |> Telemetry.Json.member "p99" with
  | Some p99 ->
      Alcotest.(check bool) "p99 positive" true
        (Telemetry.Json.to_int p99 > Some 0)
  | None -> Alcotest.fail "missing latency.p99");
  match get "slo" Telemetry.Json.to_list with
  | Some [ g ] ->
      Alcotest.(check (option string))
        "gate name" (Some "slo-demo")
        (Telemetry.Json.member "gate" g |> Option.map (fun v -> Option.get (Telemetry.Json.to_str v)))
  | _ -> Alcotest.fail "expected one slo gate row"

let test_manifest_compact_single_line () =
  let r = Load.Engine.run { small_cfg with clients = 200 } in
  let line = Telemetry.Load_report.to_string ~compact:true (Load.Report.of_result r) in
  Alcotest.(check bool) "no newline" false (String.contains line '\n')

let test_render_mentions_gates () =
  let r = Load.Engine.run { small_cfg with clients = 200 } in
  let gates = [ Check.Conform.gate "slo-x" false "boom" ] in
  let s = Load.Report.render (Load.Report.of_result ~slo:gates r) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "FAIL rendered" true (contains s "FAIL slo-x")

let () =
  Alcotest.run "load"
    [
      ( "workload",
        [
          Alcotest.test_case "mix deterministic" `Quick test_mix_deterministic;
          Alcotest.test_case "zipf cdf shape" `Quick test_zipf_cdf_shape;
          Alcotest.test_case "zipf uniform" `Quick test_zipf_uniform;
          Alcotest.test_case "pick bounds" `Quick test_pick_bounds;
          prop_pick_in_range;
          Alcotest.test_case "request rng independent" `Quick
            test_request_rng_independent;
          Alcotest.test_case "mode validation" `Quick test_validate_mode;
        ] );
      ( "engine",
        [
          Alcotest.test_case "conservation" `Quick test_engine_conservation;
          Alcotest.test_case "pool matches sequential" `Quick
            test_engine_pool_matches_sequential;
          Alcotest.test_case "manifest deterministic" `Quick
            test_engine_manifest_deterministic;
          Alcotest.test_case "zoo round robin" `Quick test_engine_zoo_round_robin;
          Alcotest.test_case "open loop queues" `Quick test_engine_open_loop_queues;
          Alcotest.test_case "think time slows arrivals" `Quick
            test_engine_closed_think_slows_arrivals;
          Alcotest.test_case "config validation" `Quick test_engine_validate;
          Alcotest.test_case "kind names round trip" `Quick
            test_kind_names_round_trip;
        ] );
      ( "policy",
        [
          Alcotest.test_case "validation" `Quick test_policy_validate;
          Alcotest.test_case "deterministic backoff" `Quick test_policy_backoff;
          Alcotest.test_case "counts algebra" `Quick test_policy_counts_algebra;
        ] );
      ( "robust",
        [
          Alcotest.test_case "deadline expiry pinned" `Quick
            test_deadline_expiry_pinned;
          Alcotest.test_case "retry exhaustion pinned" `Quick
            test_retry_exhaustion_pinned;
          Alcotest.test_case "hedging pinned" `Quick test_hedge_pinned;
          Alcotest.test_case "faulted standard pinned" `Quick
            test_faulted_standard_pinned;
          Alcotest.test_case "faulted deterministic" `Quick
            test_faulted_deterministic;
          Alcotest.test_case "manifest schema split" `Quick
            test_faulted_manifest_schema;
          Alcotest.test_case "total outage degrades" `Quick
            test_outage_all_dropped;
          Alcotest.test_case "stop causes" `Quick test_stop_causes;
          Alcotest.test_case "empty shards" `Quick test_empty_shards;
          Alcotest.test_case "shard plans deterministic" `Quick
            test_shard_plan_deterministic;
          Alcotest.test_case "error budget verdicts" `Quick
            test_error_budget_verdicts;
        ] );
      ( "degrade",
        [
          Alcotest.test_case "budgets table" `Quick test_degrade_budgets_table;
          Alcotest.test_case "standard tier within budget" `Quick
            test_degrade_standard_passes;
          Alcotest.test_case "unknown tier" `Quick test_degrade_unknown_tier;
          Alcotest.test_case "corollary-2 crash check" `Quick
            test_crash_check_gates;
        ] );
      ( "slo",
        [
          Alcotest.test_case "counter sweep passes" `Quick test_slo_counter_passes;
          Alcotest.test_case "waitfree unclassified" `Quick
            test_slo_waitfree_unclassified;
          Alcotest.test_case "params table" `Quick test_slo_params;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "json round trip" `Quick test_manifest_json_round_trip;
          Alcotest.test_case "compact single line" `Quick
            test_manifest_compact_single_line;
          Alcotest.test_case "render mentions gates" `Quick
            test_render_mentions_gates;
        ] );
    ]
