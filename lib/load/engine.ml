module Memory = Sim.Memory
module Program = Sim.Program
module Hdr = Stats.Hdr
module Fault_plan = Sched.Fault_plan

type kind = Counter | Treiber | Msqueue | Elimination | Waitfree

let all_kinds = [ Counter; Treiber; Msqueue; Elimination; Waitfree ]

let kind_name = function
  | Counter -> "counter"
  | Treiber -> "treiber"
  | Msqueue -> "msqueue"
  | Elimination -> "elimination-stack"
  | Waitfree -> "waitfree-counter"

let kind_of_name s =
  match List.find_opt (fun k -> kind_name k = s) all_kinds with
  | Some k -> Ok k
  | None ->
      Error
        (Printf.sprintf "unknown structure %S (known: %s)" s
           (String.concat ", " (List.map kind_name all_kinds)))

let no_faults = { Fault_plan.base = Fault_plan.none; rates = Fault_plan.zero_rates }

type config = {
  kinds : kind list;
  objects : int;
  clients : int;
  ops_per_client : int;
  workers : int;
  shards : int;
  mode : Workload.mode;
  alpha : float;
  seed : int;
  max_steps : int;
  faults : Fault_plan.spec;
  policy : Policy.t;
}

let default =
  {
    kinds = [ Counter ];
    objects = 64;
    clients = 10_000;
    ops_per_client = 1;
    workers = 8;
    shards = 8;
    mode = Workload.Closed { think = 0. };
    alpha = 1.1;
    seed = 0;
    max_steps = 200_000_000;
    faults = no_faults;
    policy = Policy.default;
  }

(* A base plan that permanently crashes every worker is a *total
   outage*: {!Fault_plan.validate} rejects it, but the service layer
   accepts it deliberately — each shard detects it ([Fault_plan.outage])
   and degrades to an all-dropped, stopped-early result instead of
   running, so the outage drill surfaces as exit 1 with a manifest
   rather than an exception.  (Rate-generated plans always keep a
   survivor, so only explicit events can cause this, and a shard plan
   without them is not expanded to find out.) *)
let validate cfg =
  if cfg.kinds = [] then Error "need at least one structure"
  else if cfg.objects < 1 then Error "need at least one object per structure"
  else if cfg.clients < 0 then Error "clients must be non-negative"
  else if cfg.ops_per_client < 1 then Error "need at least one op per client"
  else if cfg.workers < 1 then Error "need at least one worker per shard"
  else if cfg.shards < 1 then Error "need at least one shard"
  else if cfg.alpha < 0. then Error "alpha must be non-negative"
  else if cfg.max_steps < 1 then Error "max-steps must be positive"
  else
    match Workload.validate cfg.mode with
    | Error _ as e -> e
    | Ok () -> (
        match Policy.validate cfg.policy with
        | Error msg -> Error ("policy: " ^ msg)
        | Ok () -> (
            let base = cfg.faults.Fault_plan.base in
            match
              ( Fault_plan.validate_rates cfg.faults.rates,
                Fault_plan.validate ~n:cfg.workers base )
            with
            | Error msg, _ -> Error ("faults: " ^ msg)
            | Ok (), Ok () -> Ok ()
            | Ok (), Error _ when Fault_plan.outage ~n:cfg.workers base ->
                (* Heal one process with a far-future restart and
                   re-validate: an outage is accepted, but only if the
                   plan has no *other* defect (bad ids, times, rates). *)
                Result.map_error
                  (fun msg -> "faults: " ^ msg)
                  (Fault_plan.validate ~n:cfg.workers
                     (Fault_plan.merge base
                        (Fault_plan.make
                           [ (max_int, Fault_plan.Restart 0) ])))
            | Ok (), Error msg -> Error ("faults: " ^ msg)))

type shard_result = {
  shard : int;
  requests : int;
  offered : int;
  steps : int;
  max_queue_depth : int;
  stopped_early : bool;
  latency : Hdr.t;
  service : Hdr.t;
  queue_wait : Hdr.t;
  per_kind : (kind * Hdr.t) list;
  outcomes : Policy.counts;
  restarts : int;
  spurious_cas : int;
}

type result = {
  config : config;
  shards : shard_result list;
  requests : int;
  offered : int;
  steps_total : int;
  steps_max : int;
  stopped_early : bool;
  latency : Hdr.t;
  service : Hdr.t;
  queue_wait : Hdr.t;
  per_kind : (kind * Hdr.t) list;
  outcomes : Policy.counts;
  restarts : int;
  spurious_cas : int;
}

let stopped_shards r =
  List.filter_map
    (fun (s : shard_result) -> if s.stopped_early then Some s.shard else None)
    r.shards

(* One dispatch of a request.  [rid] is the shard-local request id
   [i * ops_per_client + k] for the shard's [i]-th client and its [k]-th
   request, so the client, [k] and the structure kind all follow from
   it; every random draw the record embodies came from that request's
   own (seed, client, k) RNG.  [born] is the original arrival, which
   latency is measured from; [arrival] is this copy's.  [dup] 0 = the
   original arrival, 1 = a retry or crash redelivery, 2 = a hedged
   duplicate. *)
type req = {
  rid : int;
  key : int;
  push : bool;
  born : int;
  arrival : int;
  attempt : int;
  dup : int;
}

(* Host-level min-heap of future arrivals, keyed (arrival, rid, dup) so
   ties break deterministically; within a shard, [rid] orders as
   (client, k).  Bounded by one entry per client plus outstanding
   retries/hedges: a session's next request is scheduled only when its
   predecessor is dispatched (open loop) or resolves (closed loop). *)
module Rheap = struct
  type t = { mutable a : req array; mutable len : int; dummy : req }

  let create dummy = { a = Array.make 64 dummy; len = 0; dummy }

  let less x y =
    x.arrival < y.arrival
    || (x.arrival = y.arrival
       && (x.rid < y.rid || (x.rid = y.rid && x.dup < y.dup)))

  let push t r =
    if t.len = Array.length t.a then begin
      let bigger = Array.make (2 * t.len) t.dummy in
      Array.blit t.a 0 bigger 0 t.len;
      t.a <- bigger
    end;
    t.a.(t.len) <- r;
    t.len <- t.len + 1;
    let i = ref (t.len - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      less t.a.(!i) t.a.(p)
    do
      let p = (!i - 1) / 2 in
      let tmp = t.a.(p) in
      t.a.(p) <- t.a.(!i);
      t.a.(!i) <- tmp;
      i := p
    done

  let peek t = if t.len = 0 then None else Some t.a.(0)

  let pop t =
    let top = t.a.(0) in
    t.len <- t.len - 1;
    t.a.(0) <- t.a.(t.len);
    t.a.(t.len) <- t.dummy;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.len && less t.a.(l) t.a.(!smallest) then smallest := l;
      if r < t.len && less t.a.(r) t.a.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = t.a.(!smallest) in
        t.a.(!smallest) <- t.a.(!i);
        t.a.(!i) <- tmp;
        i := !smallest
      end
    done;
    top
end

(* Per-shard structure instances: [objects] of each configured kind,
   all over the shard's one memory. *)
type objset =
  | OCounter of int array  (* register *)
  | OTreiber of int array  (* top *)
  | OMsqueue of (int * int) array  (* head, tail *)
  | OElim of { tops : int array; slotss : int array array; elims : int array }
  | OWf of { ptrs : int array; anns : int array; seqs : int array array }

let build_objset memory ~workers ~objects = function
  | Counter ->
      OCounter (Array.init objects (fun _ -> Memory.alloc_init memory [| 0 |]))
  | Treiber ->
      OTreiber (Array.init objects (fun _ -> Memory.alloc_init memory [| 0 |]))
  | Msqueue ->
      OMsqueue
        (Array.init objects (fun _ ->
             let sentinel = Memory.alloc memory ~size:2 in
             let head = Memory.alloc_init memory [| sentinel |] in
             let tail = Memory.alloc_init memory [| sentinel |] in
             (head, tail)))
  | Elimination ->
      let nslots = max 1 (workers / 4) in
      OElim
        {
          tops = Array.init objects (fun _ -> Memory.alloc_init memory [| 0 |]);
          slotss =
            Array.init objects (fun _ ->
                Array.init nslots (fun _ -> Memory.alloc_init memory [| 0 |]));
          elims =
            Array.init objects (fun _ -> Memory.alloc_init memory [| 0 |]);
        }
  | Waitfree ->
      OWf
        {
          ptrs =
            Array.init objects (fun _ ->
                let first = Memory.alloc memory ~size:(workers + 1) in
                Memory.alloc_init memory [| first |]);
          anns = Array.init objects (fun _ -> Memory.alloc memory ~size:workers);
          seqs = Array.init objects (fun _ -> Array.make workers 0);
        }

(* The horizon of the rate part of a shard's fault plan: the times
   its walk may emit events at.  Any pure function of (config, shard)
   keeps determinism; 64 steps per offered request covers every
   structure's service cost with generous slack.  The walk is expanded
   only as far as the run reads it, so the horizon bounds where faults
   can land, not what a shard pays up front. *)
let fault_horizon cfg ~total = min cfg.max_steps ((64 * total) + 4096)

let shard_plan cfg ~shard ~total =
  Fault_plan.instantiate cfg.faults
    ~seed:(Workload.mix (Workload.mix cfg.seed 0xFA171) shard)
    ~n:cfg.workers
    ~horizon:(fault_horizon cfg ~total)

let run_shard cfg ~shard =
  let kinds = Array.of_list cfg.kinds in
  let nkinds = Array.length kinds in
  let ops = cfg.ops_per_client in
  let latency = Hdr.create () in
  let service = Hdr.create () in
  let queue_wait = Hdr.create () in
  let per_kind = Array.init nkinds (fun _ -> Hdr.create ()) in
  (* Clients with [c mod shards = shard]. *)
  let nclients =
    (cfg.clients / cfg.shards)
    + (if shard < cfg.clients mod cfg.shards then 1 else 0)
  in
  let total = nclients * ops in
  let plan = shard_plan cfg ~shard ~total in
  let result ~steps ~stopped_early ~max_queue_depth ~outcomes ~restarts
      ~spurious_cas =
    {
      shard;
      requests = Hdr.count latency;
      offered = total;
      steps;
      max_queue_depth;
      stopped_early;
      latency;
      service;
      queue_wait;
      per_kind = List.mapi (fun i k -> (k, per_kind.(i))) cfg.kinds;
      outcomes;
      restarts;
      spurious_cas;
    }
  in
  if total = 0 || Fault_plan.outage ~n:cfg.workers plan then
    (* No request to serve, or a total outage where no worker ever
       can: return without simulating, every offered request dropped
       (and the shard stopped early unless it was empty). *)
    result ~steps:0 ~stopped_early:(total > 0) ~max_queue_depth:0
      ~outcomes:{ Policy.zero_counts with dropped = total }
      ~restarts:0 ~spurious_cas:0
  else begin
    let memory = Memory.create ~capacity:4096 () in
    let objsets =
      Array.map (build_objset memory ~workers:cfg.workers ~objects:cfg.objects)
        kinds
    in
    let cdf = Workload.zipf_cdf ~alpha:cfg.alpha ~n:cfg.objects in
    let pol = cfg.policy in
    (* The attempt each request is on, or -1 once it resolved: a queued,
       watched or in-flight copy whose attempt differs is stale. *)
    let cur_attempt = Array.make total 0 in
    let hedged = Bytes.make total '\000' in
    let resolved = ref 0 in
    let ok_c = ref 0 in
    let retried_c = ref 0 in
    let retries_c = ref 0 in
    let redelivered_c = ref 0 in
    let hedges_c = ref 0 in
    let timedout_c = ref 0 in
    let make_req ~i ~k ~base =
      let client = shard + (i * cfg.shards) in
      let rng = Workload.request_rng ~seed:cfg.seed ~client ~k in
      let g = Workload.gap cfg.mode rng ~k in
      let u = Stats.Rng.float rng 1.0 in
      let push = Stats.Rng.bool rng in
      let arrival = base + g in
      {
        rid = (i * ops) + k;
        key = Workload.pick cdf u;
        push;
        born = arrival;
        arrival;
        attempt = 0;
        dup = 0;
      }
    in
    let dummy =
      {
        rid = -1;
        key = 0;
        push = false;
        born = 0;
        arrival = 0;
        attempt = 0;
        dup = 0;
      }
    in
    let pending = Rheap.create dummy in
    for i = 0 to nclients - 1 do
      Rheap.push pending (make_req ~i ~k:0 ~base:0)
    done;
    let ready : req Queue.t = Queue.create () in
    let max_depth = ref 0 in
    let vref = ref 0 in
    let next_value () =
      incr vref;
      !vref
    in
    let is_open = match cfg.mode with Workload.Open _ -> true | _ -> false in
    let schedule_next ~base r =
      let k = (r.rid mod ops) + 1 in
      if k < ops then Rheap.push pending (make_req ~i:(r.rid / ops) ~k ~base)
    in
    (* Deadline watch: the watched copies in drain order.  That order
       is non-decreasing in arrival time and the deadline is a constant
       past it, so the queue is sorted by deadline and the scan only
       ever inspects its head. *)
    let watch : req Queue.t = Queue.create () in
    let drain now =
      let continue = ref true in
      while !continue do
        match Rheap.peek pending with
        | Some r when r.arrival <= now ->
            ignore (Rheap.pop pending);
            (* Open loop: the successor's arrival is independent of
               service, so it is scheduled as soon as this request
               reaches the queue (originals only — retries, hedges and
               redeliveries have no successor of their own). *)
            if is_open && r.dup = 0 then schedule_next ~base:r.arrival r;
            if pol.deadline <> None && r.dup < 2 then Queue.add r watch;
            Queue.add r ready;
            if Queue.length ready > !max_depth then
              max_depth := Queue.length ready
        | _ -> continue := false
      done
    in
    (* Expired deadlines: retry with seeded backoff while budget
       remains, else resolve the request as timed out.  Runs inside
       whichever worker is scheduled, costs no simulated step. *)
    let rec scan d now =
      match Queue.peek_opt watch with
      | Some r when r.arrival + d <= now ->
          ignore (Queue.pop watch);
          if cur_attempt.(r.rid) = r.attempt then begin
            if r.attempt < pol.max_retries then begin
              let attempt = r.attempt + 1 in
              cur_attempt.(r.rid) <- attempt;
              incr retries_c;
              let b = Policy.backoff pol ~seed:cfg.seed ~rid:r.rid ~attempt in
              Rheap.push pending { r with arrival = now + b; attempt; dup = 1 }
            end
            else begin
              cur_attempt.(r.rid) <- -1;
              incr timedout_c;
              incr resolved;
              if not is_open then schedule_next ~base:now r;
              Program.complete ()
            end
          end;
          scan d now
      | _ -> ()
    in
    (* Per-worker dispatch slots: which request copy each worker
       currently holds ([dummy] when none), and since when.  Host-level
       state — a crash drops the worker's continuation but not this
       record, which is exactly what redelivery needs. *)
    let inflight = Array.make cfg.workers dummy in
    let inflight_since = Array.make cfg.workers 0 in
    (* Hedging: a request in flight for [h] steps without completing
       gets one duplicate dispatch — including around a crashed or
       stalled worker, which is the production use case. *)
    let hedge_scan h now =
      for w = 0 to cfg.workers - 1 do
        let r = inflight.(w) in
        if
          r.rid >= 0
          && cur_attempt.(r.rid) = r.attempt
          && Bytes.get hedged r.rid = '\000'
          && now - inflight_since.(w) >= h
        then begin
          Bytes.set hedged r.rid '\001';
          incr hedges_c;
          Rheap.push pending { r with arrival = now; dup = 2 }
        end
      done
    in
    (* The plan is engine-side data, so the load generator gets a
       perfect failure detector: requests held by a worker that is
       crashed for good ([Fault_plan.down_for_good]) are redelivered
       instead of waiting on a restart that never comes — this is what
       keeps the [Completions] stop reachable for faults-only runs with
       no deadline policy. *)
    let redeliver ~now ~w =
      let r = inflight.(w) in
      inflight.(w) <- dummy;
      if r.rid >= 0 && cur_attempt.(r.rid) = r.attempt then begin
        incr redelivered_c;
        Rheap.push pending { r with arrival = now; dup = 1 }
      end
    in
    let rescue now =
      for w = 0 to cfg.workers - 1 do
        if inflight.(w).rid >= 0 && Fault_plan.down_for_good plan w ~now then
          redeliver ~now ~w
      done
    in
    let exec_request (ctx : Program.ctx) ~kind r =
      match objsets.(kind) with
      | OCounter regs -> ignore (Scu.Counter.fetch_and_increment regs.(r.key))
      | OTreiber tops ->
          if r.push then
            Scu.Treiber.push_op ~memory ~top:tops.(r.key) (next_value ())
          else ignore (Scu.Treiber.pop_op ~top:tops.(r.key))
      | OMsqueue hts ->
          let head, tail = hts.(r.key) in
          if r.push then Scu.Msqueue.enqueue_op ~memory ~tail (next_value ())
          else ignore (Scu.Msqueue.dequeue_op ~head ~tail)
      | OElim e ->
          if r.push then
            Scu.Elimination_stack.push_op ~memory ~top:e.tops.(r.key)
              ~slots:e.slotss.(r.key) ~poll:2 ctx (next_value ())
          else
            ignore
              (Scu.Elimination_stack.pop_op ~top:e.tops.(r.key)
                 ~slots:e.slotss.(r.key) ~eliminated:e.elims.(r.key) ctx)
      | OWf w ->
          let sq = w.seqs.(r.key) in
          sq.(ctx.id) <- sq.(ctx.id) + 1;
          Scu.Waitfree_counter.incr_op ~memory ~pointer:w.ptrs.(r.key)
            ~announce:w.anns.(r.key) ~n:ctx.n ~id:ctx.id ~seq:sq.(ctx.id)
    in
    (* The worker program: take the next live request, execute it,
       record it.  Around that loop sit crash redelivery on re-entry,
       the deadline and hedge scans, stale ready entries discarded
       without burning a step, and duplicate completions (hedge losers,
       late redelivered copies) resolved at-least-once — the first
       finisher wins.  None of this bookkeeping takes a simulated step
       or an RNG draw, so a run without faults or an active policy
       keeps the historical step sequence.  [Program.complete] fires
       exactly once per resolution (success or final timeout), so
       [Completions total] still means "every request resolved". *)
    let program (ctx : Program.ctx) =
      (* A restarted worker re-enters here with a fresh body; whatever
         request it held when it crashed is redelivered (same attempt —
         a crash consumes no retry budget). *)
      if inflight.(ctx.id).rid >= 0 then
        redeliver ~now:(Program.now ()) ~w:ctx.id;
      let rec take_ready () =
        match Queue.take_opt ready with
        | Some r when cur_attempt.(r.rid) <> r.attempt -> take_ready ()
        | next -> next
      in
      let rec loop () =
        if !resolved < total then begin
          let now = Program.now () in
          (match pol.deadline with Some d -> scan d now | None -> ());
          (match pol.hedge_after with Some h -> hedge_scan h now | None -> ());
          drain now;
          match take_ready () with
          | None ->
              (* Nothing dispatchable: burn one step polling so time
                 advances towards the next arrival. *)
              rescue now;
              Program.yield_noop ();
              loop ()
          | Some r ->
              let dispatch = now in
              let kind = r.rid / ops mod nkinds in
              inflight.(ctx.id) <- r;
              inflight_since.(ctx.id) <- dispatch;
              exec_request ctx ~kind r;
              let fin = Program.now () in
              inflight.(ctx.id) <- dummy;
              let attempt = cur_attempt.(r.rid) in
              if attempt >= 0 then begin
                cur_attempt.(r.rid) <- -1;
                incr resolved;
                if attempt > 0 then incr retried_c else incr ok_c;
                Hdr.add latency (fin - r.born);
                Hdr.add service (fin - dispatch);
                Hdr.add queue_wait (dispatch - r.arrival);
                Hdr.add per_kind.(kind) (fin - r.born);
                if not is_open then schedule_next ~base:fin r;
                Program.complete ()
              end;
              loop ()
        end
      in
      loop ()
    in
    let spec = { Sim.Executor.name = "load-shard"; memory; program } in
    let exec_config =
      Sim.Executor.Config.(
        default
        |> with_seed (Workload.mix cfg.seed (shard + 0x10AD))
        |> with_max_steps cfg.max_steps
        |> with_faults plan)
    in
    let r =
      Sim.Executor.exec ~config:exec_config ~scheduler:Sched.Scheduler.uniform
        ~n:cfg.workers ~stop:(Completions total) spec
    in
    result ~steps:(Sim.Metrics.time r.metrics) ~stopped_early:r.stopped_early
      ~max_queue_depth:!max_depth
      ~outcomes:
        {
          Policy.ok = !ok_c;
          retried = !retried_c;
          retries = !retries_c;
          redelivered = !redelivered_c;
          hedges = !hedges_c;
          timed_out = !timedout_c;
          dropped = total - !resolved;
        }
      ~restarts:(Array.fold_left ( + ) 0 r.restarts)
      ~spurious_cas:r.spurious_cas
  end

let merge_shards cfg (shards : shard_result list) =
  let latency = Hdr.create () in
  let service = Hdr.create () in
  let queue_wait = Hdr.create () in
  let per_kind = List.map (fun k -> (k, Hdr.create ())) cfg.kinds in
  List.iter
    (fun (s : shard_result) ->
      Hdr.merge_into ~into:latency s.latency;
      Hdr.merge_into ~into:service s.service;
      Hdr.merge_into ~into:queue_wait s.queue_wait;
      List.iter2
        (fun (_, into) (_, src) -> Hdr.merge_into ~into src)
        per_kind s.per_kind)
    shards;
  {
    config = cfg;
    shards;
    requests =
      List.fold_left (fun acc (s : shard_result) -> acc + s.requests) 0 shards;
    offered =
      List.fold_left (fun acc (s : shard_result) -> acc + s.offered) 0 shards;
    steps_total =
      List.fold_left (fun acc (s : shard_result) -> acc + s.steps) 0 shards;
    steps_max =
      List.fold_left (fun acc (s : shard_result) -> max acc s.steps) 0 shards;
    stopped_early =
      List.exists (fun (s : shard_result) -> s.stopped_early) shards;
    latency;
    service;
    queue_wait;
    per_kind;
    outcomes =
      List.fold_left
        (fun acc (s : shard_result) -> Policy.add_counts acc s.outcomes)
        Policy.zero_counts shards;
    restarts =
      List.fold_left (fun acc (s : shard_result) -> acc + s.restarts) 0 shards;
    spurious_cas =
      List.fold_left
        (fun acc (s : shard_result) -> acc + s.spurious_cas)
        0 shards;
  }

let run ?pool cfg =
  (match validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Engine.run: " ^ msg));
  let shards =
    match pool with
    | Some p when cfg.shards > 1 ->
        Pool.run_init p cfg.shards (fun s -> run_shard cfg ~shard:s)
    | _ -> List.init cfg.shards (fun s -> run_shard cfg ~shard:s)
  in
  merge_shards cfg shards
