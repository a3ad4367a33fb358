(* The five workloads.  Each has a set-up, done once per process before
   anything is timed, and an iteration, which is what one timed sample
   measures.  Iterations call only public functions of lib/, in one
   domain, and open a span around each call into a layer (a no-op
   unless the run is traced). *)

module Span = Perfkit.Span
module Checks = Perfkit.Checks
module Engine = Load.Engine
module Fault_plan = Sched.Fault_plan

type iteration = {
  ops : float;  (** Units of work, for ops_per_s. *)
  attempted : int;
  failed : int;
  digest : string;  (** Deterministic content; equal across iterations. *)
  checks : Checks.t list;
  anchors : (string * float) list;
}

type t =
  | W : {
      name : string;
      warmup : bool;  (** One discarded iteration before timing. *)
      iters : int;  (** Timed iterations per run. *)
      setup : seed:int -> 's;
      iterate : Span.t -> 's -> iteration;
    }
      -> t

(* The invocations the repository documents and CI runs: every
   structure kind, 8 shards x 8 workers, a closed loop at the default
   think time of 0, Zipf α 1.1 over 64 objects.  Fault-free, this is
   `repro load --structure all --clients 1000000 --mode closed`: each
   client sends one request at once and the shards drain the backlog.
   Faulted, it is the CI chaos-load run (`--faults standard --deadline
   4000 --retries 2`).  Its 40,000 one-shot clients queue for longer
   than the deadline and three quarters of them time out, so here 800
   clients (100 per shard) send 250 requests each: the queue wait stays
   near 650 steps, retries happen and no request fails. *)
let load_config ~faulted ~seed =
  {
    Engine.default with
    kinds = Engine.all_kinds;
    clients = (if faulted then 800 else 1_000_000);
    ops_per_client = (if faulted then 250 else 1);
    mode = Load.Workload.Closed { think = 0. };
    seed;
    faults =
      (if faulted then
         { Fault_plan.base = Fault_plan.none; rates = Fault_plan.standard_rates }
       else Engine.no_faults);
    policy =
      (if faulted then { Load.Policy.default with deadline = Some 4_000; max_retries = 2 }
       else Load.Policy.default);
  }

let load ~faulted =
  W
    {
      name = (if faulted then "load-faults" else "load-steady");
      warmup = true;
      iters = 5;
      setup =
        (fun ~seed ->
          let cfg = load_config ~faulted ~seed in
          (match Engine.validate cfg with Ok () -> () | Error e -> failwith e);
          cfg);
      iterate =
        (fun tr cfg ->
          let r = Span.with_ tr "load.engine.run" (fun () -> Engine.run cfg) in
          let m =
            Span.with_ tr "load.report.of_result" (fun () -> Load.Report.of_result r)
          in
          let s =
            Span.with_ tr "telemetry.load_report.to_string" (fun () ->
                Telemetry.Load_report.to_string ~compact:true m)
          in
          let round_trip =
            Span.with_ tr "telemetry.json.parse" (fun () ->
                Checks.manifest_round_trip s)
          in
          let completed = Load.Policy.completed r.outcomes
          and failed = Load.Policy.failed r.outcomes in
          {
            ops = float_of_int r.offered;
            attempted = r.offered;
            failed;
            digest = Digest.string s;
            checks =
              [
                Checks.outcomes ~completed ~failed ~offered:r.offered;
                Checks.no_stopped_shards (Engine.stopped_shards r);
                round_trip;
              ];
            anchors =
              [
                ("sim_p50_steps", float_of_int (Stats.Hdr.p50 r.latency));
                ("sim_p999_steps", float_of_int (Stats.Hdr.p999 r.latency));
                ("sim_req_per_kstep", m.throughput_per_kstep);
                ("sim_steps_total", float_of_int r.steps_total);
                ("sim_completed", float_of_int completed);
              ];
          });
    }

(* W = 1 / Σ π(a,b)·(n−a−b)/n: the expected system steps between
   successes in the stationary distribution. *)
let latency ~n pi =
  let nf = float_of_int n in
  let rate = ref 0. in
  Array.iteri
    (fun i p ->
      let a, b = Chains.Scu_chain.System.decode_index ~n i in
      rate := !rate +. (p *. (float_of_int (n - a - b) /. nf)))
    pi;
  1. /. !rate

let chain_ns = (256, 450)

(* The solver is called directly: [System.sparse_latency] is memoized,
   so a second iteration would time a table lookup. *)
let chain_sparse =
  W
    {
      name = "chain-sparse";
      warmup = false;
      iters = 3;
      setup =
        (fun ~seed:_ ->
          let n1, n2 = chain_ns in
          List.map (fun n -> (n, Chains.Scu_chain.System.sparse ~n)) [ n1; n2 ]);
      iterate =
        (fun tr chains ->
          let solved =
            List.map
              (fun (n, sp) ->
                let pi, st =
                  Span.with_ tr
                    (Printf.sprintf "markov.sparse.stationary_stats.n%d" n)
                    (fun () -> Markov.Sparse.stationary_stats sp)
                in
                (n, Markov.Sparse.nnz sp, latency ~n pi, st))
              chains
          in
          let residual_checks =
            List.map
              (fun (n, _, _, (st : Markov.Sparse.stats)) ->
                Checks.residual ~label:(Printf.sprintf "n=%d" n) st.residual)
              solved
          in
          let n1, n2 = chain_ns in
          let w n =
            List.find_map (fun (m, _, w, _) -> if m = n then Some w else None) solved
            |> Option.get
          in
          {
            ops =
              List.fold_left
                (fun acc (_, nnz, _, (st : Markov.Sparse.stats)) ->
                  acc +. float_of_int (nnz * st.sweeps))
                0. solved;
            attempted = List.length solved;
            failed =
              List.length
                (List.filter (fun (g : Checks.t) -> not g.passed) residual_checks);
            digest =
              String.concat ";"
                (List.map
                   (fun (n, _, w, (st : Markov.Sparse.stats)) ->
                     Printf.sprintf "%d %h %d %h" n w st.sweeps st.residual)
                   solved);
            checks =
              residual_checks
              @ [
                  Checks.asymptote ~n:n2 ~w:(w n2);
                  Checks.richardson ~n1 ~w1:(w n1) ~n2 ~w2:(w n2);
                ];
            anchors = [];
          });
    }

(* The explorer runs the structures' role-based operation mix (even
   processes add, odd ones take), so every seed explores the same state
   space and iteration times compare across seeds; the seed drives the
   fuzzer's schedules and mixes. *)
let explore (s : Scu.Checkable.t) =
  Check.Explore.explore
    ~config:{ Check.Explore.default with max_nodes = 60_000 }
    ~structure:s ~n:3 ~ops:3 ()

let fuzz ~seed (s : Scu.Checkable.t) =
  Check.Fuzz.fuzz
    ~config:{ Check.Fuzz.default with trials = 3_000; seed }
    ~structure:s ~n:3 ~ops:3 ()

let check_explore =
  W
    {
      name = "check-explore";
      warmup = true;
      iters = 3;
      setup =
        (fun ~seed ->
          (seed, List.map Scu.Checkable.find Perfkit.Catalog.structures));
      iterate =
        (fun tr (seed, structures) ->
          let per =
            List.map
              (fun (s : Scu.Checkable.t) ->
                let e =
                  Span.with_ tr ("check.explore." ^ s.name) (fun () -> explore s)
                in
                let f =
                  Span.with_ tr ("check.fuzz." ^ s.name) (fun () -> fuzz ~seed s)
                in
                (s.name, e, f))
              structures
          in
          let violations (_, (e : Check.Explore.report), (f : Check.Fuzz.report)) =
            List.length e.violations + List.length f.failures
          in
          {
            ops =
              float_of_int
                (List.fold_left
                   (fun acc (_, (e : Check.Explore.report), _) -> acc + e.nodes)
                   0 per);
            attempted = List.length per;
            failed = List.length (List.filter (fun p -> violations p > 0) per);
            digest =
              String.concat ";"
                (List.map
                   (fun ((name, (e : Check.Explore.report), (f : Check.Fuzz.report)) as p)
                   ->
                     Printf.sprintf "%s %d %d %d %d %b %d %d" name e.nodes
                       e.terminals e.pruned_by_state e.pruned_by_sleep
                       e.exhausted f.trials (violations p))
                   per);
            checks =
              List.map
                (fun ((name, _, _) as p) ->
                  Checks.no_violations ~structure:name (violations p))
                per;
            anchors = [];
          });
    }

(* One cold iteration: every `repro run` pays the memoized chain solves
   that a second, warm iteration would skip. *)
let paper_quick =
  W
    {
      name = "paper-quick";
      warmup = false;
      iters = 1;
      setup =
        (fun ~seed ->
          ( Experiments.Exp.budget ~quick:true ~seed (),
            List.map
              (fun id ->
                match Experiments.Exp.find id with
                | Some e -> e
                | None -> failwith ("unknown experiment " ^ id))
              Perfkit.Catalog.experiments ));
      iterate =
        (fun tr (budget, exps) ->
          let outs =
            List.map
              (fun (e : Experiments.Exp.t) ->
                Span.with_ tr ("experiments." ^ e.id) (fun () ->
                    match Experiments.Exp.table ~budget e with
                    | table -> (e.id, Ok (Experiments.Exp.render_table e table))
                    | exception ex -> (e.id, Error (Printexc.to_string ex))))
              exps
          in
          let raised = function _, Error _ -> true | _, Ok _ -> false in
          {
            ops = float_of_int (List.length outs);
            attempted = List.length outs;
            failed = List.length (List.filter raised outs);
            digest =
              Digest.string
                (String.concat "\n"
                   (List.map
                      (function id, Ok s -> id ^ "\n" ^ s | id, Error _ -> id)
                      outs));
            checks =
              List.map
                (fun (id, out) ->
                  Checks.ran ~id
                    (match out with Ok _ -> None | Error msg -> Some msg))
                outs;
            anchors = [];
          });
    }

let all =
  [ load ~faulted:false; load ~faulted:true; chain_sparse; check_explore; paper_quick ]

let find name = List.find_opt (fun (W w) -> w.name = name) all
