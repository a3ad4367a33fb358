module Hdr = Stats.Hdr
module LR = Telemetry.Load_report

let quantiles h =
  if Hdr.count h = 0 then
    {
      LR.count = 0;
      min_value = 0;
      max_value = 0;
      mean = 0.;
      p50 = 0;
      p99 = 0;
      p999 = 0;
    }
  else
    {
      LR.count = Hdr.count h;
      min_value = Hdr.min_value h;
      max_value = Hdr.max_value h;
      mean = Hdr.mean h;
      p50 = Hdr.p50 h;
      p99 = Hdr.p99 h;
      p999 = Hdr.p999 h;
    }

let default_slo_target = 0.999

let error_budget ?(target = default_slo_target) (r : Engine.result) =
  let offered = r.offered in
  let completed = Policy.completed r.outcomes in
  let availability =
    if offered = 0 then 1. else float_of_int completed /. float_of_int offered
  in
  let burn = (1. -. availability) /. (1. -. target) in
  {
    LR.budget_offered = offered;
    budget_completed = completed;
    availability;
    target;
    burn;
    verdict =
      (if burn <= 1. then "ok" else if burn <= 10. then "degraded" else "breached");
  }

let reports_faults (cfg : Engine.config) =
  not (Sched.Fault_plan.spec_is_none cfg.faults && Policy.is_none cfg.policy)

let of_result ?window ?slo ?degrade ?error_budget (r : Engine.result) =
  let cfg = r.config in
  let fault_fields = reports_faults cfg in
  {
    LR.structures = List.map Engine.kind_name cfg.kinds;
    clients = cfg.clients;
    ops_per_client = cfg.ops_per_client;
    workers = cfg.workers;
    shards = cfg.shards;
    mode = Workload.mode_label cfg.mode;
    arrival = Workload.arrival_label cfg.mode;
    alpha = cfg.alpha;
    seed = cfg.seed;
    faults =
      (if fault_fields then Some (Sched.Fault_plan.spec_to_string cfg.faults)
       else None);
    policy =
      (if fault_fields then Some (Policy.to_string cfg.policy) else None);
    window;
    requests = r.requests;
    offered = (if fault_fields then Some r.offered else None);
    steps_total = r.steps_total;
    steps_max = r.steps_max;
    stopped_early = r.stopped_early;
    throughput_per_kstep =
      (if r.steps_max = 0 then 0.
       else 1000. *. float_of_int r.requests /. float_of_int r.steps_max);
    latency = quantiles r.latency;
    service = quantiles r.service;
    queue_wait = quantiles r.queue_wait;
    outcomes =
      (if fault_fields then
         Some
           {
             LR.ok = r.outcomes.Policy.ok;
             retried = r.outcomes.retried;
             retries = r.outcomes.retries;
             redelivered = r.outcomes.redelivered;
             hedges = r.outcomes.hedges;
             timed_out = r.outcomes.timed_out;
             dropped = r.outcomes.dropped;
           }
       else None);
    restarts = (if fault_fields then Some r.restarts else None);
    spurious_cas = (if fault_fields then Some r.spurious_cas else None);
    per_kind =
      List.map
        (fun (k, h) -> { LR.kind = Engine.kind_name k; latency = quantiles h })
        r.per_kind;
    per_shard =
      List.map
        (fun (s : Engine.shard_result) ->
          {
            LR.shard = s.shard;
            shard_requests = s.requests;
            shard_steps = s.steps;
            max_queue_depth = s.max_queue_depth;
            shard_stopped = s.stopped_early;
            shard_dropped = s.outcomes.Policy.dropped;
            shard_restarts = s.restarts;
          })
        r.shards;
    error_budget;
    slo =
      Option.map
        (List.map (fun (g : Check.Conform.gate) ->
             { LR.gate = g.name; gate_passed = g.passed; detail = g.detail }))
        slo;
    degrade =
      Option.map
        (List.map (fun (g : Check.Conform.gate) ->
             { LR.gate = g.name; gate_passed = g.passed; detail = g.detail }))
        degrade;
  }

type stop_cause = Outage | Step_budget

let stopped_early (t : LR.t) =
  (* [max_steps] is at least 1, so a stopped shard that ran no step
     never started: its plan left no worker to run. *)
  let cause (r : LR.shard_row) =
    if r.shard_steps = 0 then Outage else Step_budget
  in
  List.filter_map
    (fun c ->
      match
        List.filter_map
          (fun (r : LR.shard_row) ->
            if r.shard_stopped && cause r = c then Some r.shard else None)
          t.per_shard
      with
      | [] -> None
      | ids -> Some (c, ids))
    [ Outage; Step_budget ]

let render (t : LR.t) =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "[load] %s: %d client(s) x %d op(s), %d worker(s) x %d shard(s), %s/%s\n"
    (String.concat "," t.structures)
    t.clients t.ops_per_client t.workers t.shards t.mode t.arrival;
  (match t.faults with Some f -> add "  faults: %s\n" f | None -> ());
  (match t.policy with Some p -> add "  policy: %s\n" p | None -> ());
  (match t.window with Some w -> add "  window: %d\n" w | None -> ());
  add "  requests: %d  steps: %d (max shard %d)%s\n" t.requests t.steps_total
    t.steps_max
    (if t.stopped_early then
       Printf.sprintf "  STOPPED EARLY (%s)"
         (String.concat "; "
            (List.map
               (fun (cause, ids) ->
                 Printf.sprintf "%s; shard%s %s"
                   (match cause with
                   | Outage -> "total outage"
                   | Step_budget -> "step budget")
                   (if List.length ids = 1 then "" else "s")
                   (String.concat "," (List.map string_of_int ids)))
               (stopped_early t)))
     else "");
  add "  throughput: %.2f req/kstep\n" t.throughput_per_kstep;
  (match t.outcomes with
  | Some o ->
      add
        "  outcomes: ok=%d retried=%d timed_out=%d dropped=%d  (offered %d; \
         retries=%d redelivered=%d hedges=%d)\n"
        o.ok o.retried o.timed_out o.dropped
        (Option.value t.offered ~default:(o.ok + o.retried + o.timed_out + o.dropped))
        o.retries o.redelivered o.hedges
  | None -> ());
  (match (t.restarts, t.spurious_cas) with
  | Some r, Some s -> add "  injected: restarts=%d spurious-cas=%d\n" r s
  | _ -> ());
  let q label (q : LR.quantiles) =
    if q.count > 0 then
      add "  %-10s mean=%.1f p50=%d p99=%d p999=%d max=%d\n" label q.mean q.p50
        q.p99 q.p999 q.max_value
  in
  q "latency" t.latency;
  q "service" t.service;
  q "queue-wait" t.queue_wait;
  List.iter
    (fun (r : LR.kind_row) ->
      if r.latency.count > 0 then
        add "  %-18s n=%d p50=%d p99=%d p999=%d\n" r.kind r.latency.count
          r.latency.p50 r.latency.p99 r.latency.p999)
    t.per_kind;
  (match t.error_budget with
  | Some eb ->
      add "  error-budget: availability=%.6f target=%g burn=%.2f verdict=%s\n"
        eb.availability eb.target eb.burn eb.verdict
  | None -> ());
  let gates tag = function
    | None -> ()
    | Some gs ->
        List.iter
          (fun (g : LR.gate_row) ->
            add "  [%s] %s %-28s %s\n" tag
              (if g.gate_passed then "PASS" else "FAIL")
              g.gate g.detail)
          gs
  in
  gates "slo" t.slo;
  gates "degrade" t.degrade;
  Buffer.contents b
