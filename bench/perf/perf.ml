(* The benchmark: one process runs one workload at one seed.

     perf.exe [--workload] WORKLOAD [--seed N] [--seconds S]
              [--trace 0|1|FILE] [--record FILE]

   Untraced (the default): set up, run one discarded warm-up iteration
   where the workload has one, then the workload's fixed number of
   timed iterations, check every output, and print each end-to-end
   metric.  S is the measuring time the workloads were sized for; the
   run reports how long its timed iterations took against it.  Traced
   (--trace 1, or a FILE): set up, discard one iteration, run one traced
   iteration, run the layer suite, write the spans to FILE (for 1:
   bench/perf/out/trace-WORKLOAD-seedN.json) and print each per-layer
   metric.  The last line of stdout is the
   result as one JSON object.  --record appends the result, with the
   run's identity, to a run-set file for compare.exe.  The exit code is
   1 when a correctness check fails and 2 on a usage error. *)

module Span = Perfkit.Span
module Stat = Perfkit.Stat
module Catalog = Perfkit.Catalog
module Record = Perfkit.Record
module Checks = Perfkit.Checks

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : string option;  (** The raw --trace value, unless 0. *)
  record : string option;
}

let usage =
  "usage: perf.exe [--workload] WORKLOAD [--seed N] [--seconds S] [--trace \
   0|1|FILE] [--record FILE]"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perf: " ^ msg);
      prerr_endline usage;
      exit 2)
    fmt

let parse argv =
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s: not an integer: %S" flag v
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: v :: rest -> go { a with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest ->
        let s = int_arg "--seconds" v in
        if s < 1 then die "--seconds must be at least 1";
        go { a with seconds = float_of_int s } rest
    | "--trace" :: "0" :: rest -> go { a with trace = None } rest
    | "--trace" :: v :: rest -> go { a with trace = Some v } rest
    | "--record" :: file :: rest -> go { a with record = Some file } rest
    | [ flag ] when String.starts_with ~prefix:"--" flag -> die "%s needs a value" flag
    | w :: rest when a.workload = "" && not (String.starts_with ~prefix:"-" w) ->
        go { a with workload = w } rest
    | bad :: _ -> die "unexpected argument %S" bad
  in
  let a =
    go
      {
        workload = "";
        seed = 0;
        seconds = float_of_int Catalog.run_seconds;
        trace = None;
        record = None;
      }
      argv
  in
  match Workloads.find a.workload with
  | Some w -> (a, w)
  | None ->
      die "unknown workload %S (known: %s)" a.workload
        (String.concat ", " Catalog.workloads)

let now = Pool.monotonic_now

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* All outcomes of a run: the digests must agree, every check must
   pass, and a failing check fails every operation of the run. *)
let verdict (outs : Workloads.iteration list) =
  let checks =
    Checks.identical ~what:"iteration outputs"
      (List.map (fun (o : Workloads.iteration) -> o.digest) outs)
    :: List.concat_map (fun (o : Workloads.iteration) -> o.checks) outs
  in
  let correct = List.for_all (fun (g : Checks.t) -> g.passed) checks in
  let sum f = List.fold_left (fun acc (o : Workloads.iteration) -> acc + f o) 0 outs in
  let attempted = sum (fun o -> o.attempted) in
  let failed = if correct then sum (fun o -> o.failed) else attempted in
  (checks, correct, attempted, failed)

(* Each distinct check once: a failure with its detail, else "ok". *)
let print_checks checks =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (g : Checks.t) ->
      if not g.passed then Printf.printf "  check %-40s FAIL  %s\n" g.name g.detail
      else if not (Hashtbl.mem seen g.name) then begin
        Hashtbl.add seen g.name ();
        Printf.printf "  check %-40s ok    %s\n" g.name g.detail
      end)
    checks

let print_metric ?(note = "") (name, v) =
  Printf.printf "  %-52s %-14.6g %-8s %s\n" name v (Record.unit_of name) note

(* A run prints exactly the metric set declared for its mode. *)
let require_declared ~mode metrics declared =
  let names l = List.sort compare l in
  let got = names (List.map fst metrics)
  and want = names (List.map (fun (m : Catalog.metric) -> m.name) declared) in
  if got <> want then begin
    Printf.eprintf "perf: %s metrics differ from the catalogue\n" mode;
    exit 1
  end

let finish a ~traced ~started ~correct ~attempted ~failed ~metrics ~anchors =
  let r =
    {
      Record.workload = a.workload;
      seed = a.seed;
      traced;
      started;
      correct;
      attempted;
      failed;
      metrics;
      anchors;
    }
  in
  Option.iter (fun file -> Record.append ~file r) a.record;
  print_endline (Record.result_line r);
  exit (if correct then 0 else 1)

(* One iteration from a compacted heap, as in a fresh process, so
   garbage left by the one before is not charged to it. *)
let timed_iteration iterate =
  Gc.compact ();
  let out = ref None in
  let m =
    Experiments.Stepbench.measure ~protocol:{ warmup = 0; repeat = 1 } (fun () ->
        out := Some (iterate ()))
  in
  (Option.get !out, m.median)

let measure a (Workloads.W w) =
  let started = Unix.gettimeofday () in
  let st = w.setup ~seed:a.seed in
  if w.warmup then begin
    Gc.compact ();
    ignore (w.iterate Span.disabled st)
  end;
  (* The processor time this process has used so far: start-up,
     set-up and warm-up.  The run is one CPU-bound domain, so this is
     the time from process start to the first timed iteration, less
     any time the host gave to other work. *)
  let setup_s = Sys.time () in
  let runs =
    List.init w.iters (fun _ -> timed_iteration (fun () -> w.iterate Span.disabled st))
  in
  let outs = List.map fst runs and samples = Array.of_list (List.map snd runs) in
  let checks, correct, attempted, failed = verdict outs in
  let wall = Stat.lower_median samples in
  let metrics =
    [
      ("setup_s", setup_s);
      ("wall_s", wall);
      ("ops_per_s", (List.hd outs).ops /. wall);
      ("heap_mb", heap_mb ());
    ]
  in
  require_declared ~mode:"end-to-end" metrics Catalog.end_to_end;
  let timed = Array.fold_left ( +. ) 0. samples in
  Printf.printf "perf %s seed=%d: %d timed iteration(s) in %.4g s (--seconds %g)%s\n"
    a.workload a.seed w.iters timed a.seconds
    (if w.warmup then " after 1 warm-up" else ", no warm-up");
  if timed > 2. *. a.seconds then
    Printf.eprintf
      "perf: the timed iterations took %.4g s, over twice --seconds %g: this \
       host is slower than the one the workload was sized on\n"
      timed a.seconds;
  print_checks checks;
  let spread =
    if Array.length samples < 2 then ""
    else
      let q1, _, q3 = Stat.quartiles samples in
      Printf.sprintf "q1 %.4g q3 %.4g (%s)" q1 q3
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4g") samples)))
  in
  List.iter
    (fun ((name, _) as m) ->
      let note =
        match name with
        | "setup_s" -> "processor time before the first timed iteration"
        | "wall_s" ->
            Printf.sprintf "lower median of %d samples %s" (Array.length samples) spread
        | _ -> ""
      in
      print_metric ~note m)
    metrics;
  let anchors = (List.hd outs).anchors in
  List.iter (fun (k, v) -> Printf.printf "  anchor %-45s %.17g\n" k v) anchors;
  finish a ~traced:false ~started ~correct ~attempted ~failed ~metrics ~anchors

(* Where the traced iteration's time went: the self time of each span
   below it, by name, as a share of the iteration.  Every row is a span
   measured inside the iteration. *)
let span_shares spans (root : Span.span) =
  let self = Span.self_ns spans in
  let total = float_of_int (Span.duration root) /. 1e9 in
  let rec below id =
    List.concat_map
      (fun (s : Span.span) -> if s.parent = Some id then s :: below s.id else [])
      spans
  in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (s : Span.span) ->
      let prev = Option.value (Hashtbl.find_opt by_name s.name) ~default:0 in
      Hashtbl.replace by_name s.name (prev + self s))
    (below root.id);
  let rows =
    Hashtbl.fold (fun name ns acc -> (name, float_of_int ns /. 1e9) :: acc) by_name []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  rows @ [ ("(iteration self)", float_of_int (self root) /. 1e9) ]
  |> List.map (fun (name, s) -> (name, s, s /. total))

(* An estimate, not a measurement: the engine runs every shard inside
   one call, so [load.engine.run] is split with rates the layer suite
   measured on its own inputs (a counter kernel, standalone draws)
   times the iteration's counts, and the dispatcher row is whatever is
   left over.  Shares are of the iteration's [load.engine.run]. *)
let engine_estimate ~faulted ~engine_s layers anchors =
  let get k = List.assoc k layers and anchor k = List.assoc k anchors in
  let requests = anchor "sim_completed" in
  let parts =
    (if faulted then
       [ ("sched.fault_plan.instantiate", get "sched.fault_plan.instantiate_s") ]
     else [])
    @ [
        ("load.workload draws", get "load.workload.ns_per_request" *. requests /. 1e9);
        ("stats.hdr.add", get "stats.hdr.ns_per_add" *. 4. *. requests /. 1e9);
        ( "sim.executor.exec steps",
          get "sim.executor.exec.ns_per_step.n8" *. anchor "sim_steps_total" /. 1e9 );
      ]
  in
  let parts_s = List.fold_left (fun acc (_, s) -> acc +. s) 0. parts in
  List.map (fun (n, s) -> (n, s, s /. engine_s)) parts
  @ [
      ( "load.engine dispatcher (remainder)",
        engine_s -. parts_s,
        (engine_s -. parts_s) /. engine_s );
    ]

(* The recorder's own cost per span, from a loop of empty spans. *)
let span_cost_s () =
  let tr = Span.create ~enabled:true () in
  let n = 100_000 in
  let t0 = now () in
  for _ = 1 to n do
    Span.with_ tr "probe" ignore
  done;
  (now () -. t0) /. float_of_int n

let write_spans file ~a ~overhead ~shares ~estimate spans =
  let module J = Telemetry.Json in
  let rows l =
    J.List
      (List.map
         (fun (name, s, share) ->
           J.Obj [ ("layer", Str name); ("s", Float s); ("share", Float share) ])
         l)
  in
  let doc =
    J.Obj
      [
        ("workload", Str a.workload);
        ("seed", Int a.seed);
        ("overhead_frac", Float overhead);
        ( "notes",
          List
            [
              Str
                "beside=true marks a layer re-run next to its caller: \
                 Load.Engine.run_shard instantiates its shard's fault plan \
                 internally, so sched.fault_plan.instantiate is timed by \
                 calling Load.Engine.shard_plan beside it.";
              Str
                "self_ns is a span's duration minus the part of it its \
                 children cover.";
              Str
                "shares are measured spans of the traced iteration; \
                 engine_estimate splits its load.engine.run with layer-suite \
                 rates times the iteration's counts, its dispatcher row being \
                 the remainder.";
            ] );
        ("shares", rows shares);
        ("engine_estimate", rows estimate);
        ("spans", Span.to_json spans);
      ]
  in
  Telemetry.Fsutil.mkdir_p (Filename.dirname file);
  Telemetry.Fsutil.write_atomic file (J.to_string doc ^ "\n")

let traced a (Workloads.W w) file =
  let started = Unix.gettimeofday () in
  let tr = Span.create ~enabled:true () in
  let st = Span.with_ tr "setup" (fun () -> w.setup ~seed:a.seed) in
  (* A discarded untraced iteration (for paper-quick: the cold one),
     then the traced one. *)
  Gc.compact ();
  let first = w.iterate Span.disabled st in
  Gc.compact ();
  let root_name = "iteration " ^ w.name in
  let out = Span.with_ tr root_name (fun () -> w.iterate tr st) in
  let spans_in_iteration = List.length (Span.spans tr) - 1 in
  let layers = Span.with_ tr "layers" (fun () -> Layers.run tr ~seed:a.seed) in
  let spans = Span.spans tr in
  let root = List.find (fun (s : Span.span) -> s.name = root_name) spans in
  let t_traced = float_of_int (Span.duration root) /. 1e9 in
  (* What tracing adds to the iteration: the spans it opened, at the
     recorder's own cost each.  Timing a traced iteration against an
     untraced one cannot resolve this: back-to-back iterations on a
     shared host differ by up to 20%. *)
  let per_span = span_cost_s () in
  let overhead = float_of_int spans_in_iteration *. per_span /. t_traced in
  let metrics = ("trace.overhead_frac", overhead) :: layers in
  require_declared ~mode:"per-layer" metrics Catalog.per_layer;
  let checks, correct, attempted, failed = verdict [ first; out ] in
  let shares = span_shares spans root in
  let estimate =
    match w.name with
    | "load-steady" | "load-faults" ->
        let engine_s =
          List.fold_left
            (fun acc (n, s, _) -> if n = "load.engine.run" then acc +. s else acc)
            0. shares
        in
        engine_estimate ~faulted:(w.name = "load-faults") ~engine_s layers out.anchors
    | _ -> []
  in
  write_spans file ~a ~overhead ~shares ~estimate spans;
  Printf.printf
    "perf %s seed=%d traced: iteration %.4g s, %d spans x %.0f ns, spans in %s\n"
    a.workload a.seed t_traced spans_in_iteration (per_span *. 1e9) file;
  print_checks checks;
  let print_rows title l =
    if l <> [] then begin
      Printf.printf "  %s:\n" title;
      List.iter
        (fun (name, s, share) ->
          Printf.printf "    %-44s %9.4f s %6.1f%%\n" name s (100. *. share))
        l
    end
  in
  print_rows "measured share of the traced iteration" shares;
  print_rows "estimated split of its load.engine.run (dispatcher = remainder)" estimate;
  List.iter print_metric metrics;
  finish a ~traced:true ~started ~correct ~attempted ~failed ~metrics
    ~anchors:out.anchors

let () =
  let a, workload = parse (List.tl (Array.to_list Sys.argv)) in
  match a.trace with
  | None -> measure a workload
  | Some "1" ->
      traced a workload
        (Printf.sprintf "bench/perf/out/trace-%s-seed%d.json" a.workload a.seed)
  | Some file -> traced a workload file
