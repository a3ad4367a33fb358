(* Tests of the benchmark's own machinery: order statistics, span self
   time, the metric catalogue against BENCHMARK.json, the power of each
   correctness check, and the comparison rule. *)

open Perfkit
module Json = Telemetry.Json

let close = Alcotest.float 1e-12
let passes (g : Checks.t) = g.passed

(* Order statistics; expected values from Python's statistics module. *)

let test_lower_median () =
  Alcotest.(check close) "odd" 3. (Stat.lower_median [| 5.; 1.; 3. |]);
  Alcotest.(check close) "even takes the smaller middle" 2.
    (Stat.lower_median [| 4.; 1.; 3.; 2. |]);
  Alcotest.(check close) "median averages the middles" 2.5
    (Stat.median [| 4.; 1.; 3.; 2. |])

let test_quartiles () =
  let q xs = Stat.quartiles xs in
  let triple = Alcotest.(triple close close close) in
  Alcotest.check triple "two samples" (0.75, 1.5, 2.25) (q [| 1.; 2. |]);
  Alcotest.check triple "one to ten" (2.75, 5.5, 8.25)
    (q (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "unsorted" (1.5, 3., 4.5) (q [| 5.; 1.; 4.; 2.; 3. |]);
  Alcotest.check triple "outlier" (2.425, 2.55, 3.575) (q [| 2.4; 2.5; 2.6; 3.9 |]);
  Alcotest.(check close) "spread" ((3.575 -. 2.425) /. 2.55)
    (Stat.spread [| 2.4; 2.5; 2.6; 3.9 |])

(* Spans. *)

let span ?parent id start_ns end_ns =
  { Span.id; parent; name = string_of_int id; start_ns; end_ns; beside = false }

let test_self_time () =
  let root = span 0 0 100 in
  let a = span ~parent:0 1 10 30 in
  let b = span ~parent:0 2 20 50 in
  let late = span ~parent:0 3 90 120 in
  let grandchild = span ~parent:1 4 12 14 in
  let spans = [ root; a; b; late; grandchild ] in
  let self = Span.self_ns spans in
  (* Children cover [10,50] once, overlap counted once, plus [90,100]
     clipped to the parent; the grandchild is inside its parent. *)
  Alcotest.(check int) "root" 50 (self root);
  Alcotest.(check int) "nested child" 18 (self a);
  Alcotest.(check int) "leaf" 30 (self b);
  Alcotest.(check int) "disjoint children" 40
    (Span.self_ns [ root; span ~parent:0 1 0 20; span ~parent:0 2 60 100 ] root)

let test_recorder_nesting () =
  let t = ref 0 in
  let clock () = incr t; !t * 10 in
  let tr = Span.create ~clock ~enabled:true () in
  Span.with_ tr "outer" (fun () ->
      Span.with_ tr "inner" (fun () -> ());
      Span.with_ tr "sibling" (fun () -> ()));
  let spans = Span.spans tr in
  let parent name = (List.find (fun (s : Span.span) -> s.name = name) spans).parent in
  Alcotest.(check (option int)) "outer is a root" None (parent "outer");
  Alcotest.(check (option int)) "inner under outer" (Some 0) (parent "inner");
  Alcotest.(check (option int)) "sibling under outer" (Some 0) (parent "sibling");
  Alcotest.(check int) "disabled records nothing" 0
    (List.length (Span.spans Span.disabled))

(* The catalogue against BENCHMARK.json. *)

let benchmark =
  let ic = open_in_bin "../../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.parse_exn s

let member k j = Option.get (Json.member k j)
let str k j = Option.get (Json.to_str (member k j))
let entries k = Option.get (Json.to_list (member k benchmark))

let declared k =
  List.map
    (fun j ->
      ( str "name" j,
        str "unit" j,
        str "better" j,
        Option.bind (Json.member "bound" j) Json.to_float ))
    (entries k)

let of_catalog ms =
  List.map
    (fun (m : Catalog.metric) ->
      let better = match m.better with Lower -> "lower" | Higher -> "higher" in
      (m.name, m.unit, better, m.bound))
    ms

let metric_row =
  Alcotest.(list (pair string (pair string (pair string (option (float 0.))))))
let flat = List.map (fun (a, b, c, d) -> (a, (b, (c, d))))

let test_declared_both_ways () =
  Alcotest.check metric_row "end_to_end" (flat (of_catalog Catalog.end_to_end))
    (flat (declared "end_to_end"));
  Alcotest.check metric_row "per_layer" (flat (of_catalog Catalog.per_layer))
    (flat (declared "per_layer"));
  Alcotest.(check (list string)) "workloads" Catalog.workloads
    (List.map (str "name") (entries "workloads"));
  Alcotest.(check (option int)) "run_seconds" (Some Catalog.run_seconds)
    (Json.to_int (member "run_seconds" benchmark));
  List.iter
    (fun w ->
      let why = str "why" w in
      Alcotest.(check bool) ("one-line why: " ^ str "name" w) true
        (String.length why <= 200 && not (String.contains why '\n')))
    (entries "workloads")

(* The name rule of BENCHMARK.json: a letter or digit first, then at
   most 63 more letters, digits, '_', '.' or '-'. *)
let name_ok s =
  let alnum = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false in
  let n = String.length s in
  n >= 1 && n <= 64 && alnum s.[0]
  && String.for_all (fun c -> alnum c || c = '_' || c = '.' || c = '-') s

let test_names () =
  let all = Catalog.end_to_end @ Catalog.per_layer in
  List.iter
    (fun (m : Catalog.metric) ->
      Alcotest.(check bool) ("name " ^ m.name) true (name_ok m.name))
    all;
  Alcotest.(check int) "names are unique" (List.length all)
    (List.length
       (List.sort_uniq compare (List.map (fun (m : Catalog.metric) -> m.name) all)));
  Alcotest.(check bool) "bad names are refused" false
    (List.exists name_ok [ ""; "_x"; "a b"; "a/b"; String.make 65 'a' ])

(* What a run prints: every metric in the result line is declared, with
   its declared unit, and every declared metric is there. *)
let test_result_line () =
  List.iter
    (fun (mode, catalogued) ->
      let r =
        {
          Record.workload = "load-steady";
          seed = 3;
          traced = mode = "per_layer";
          started = 1.5;
          correct = true;
          attempted = 10;
          failed = 0;
          metrics = List.map (fun (m : Catalog.metric) -> (m.name, 1.25)) catalogued;
          anchors = [ ("sim_p50_steps", 33.) ];
        }
      in
      let j = Json.parse_exn (Record.result_line r) in
      Alcotest.(check (list string)) (mode ^ " keys")
        [ "correct"; "attempted"; "failed"; "metrics" ]
        (match j with Json.Obj kvs -> List.map fst kvs | _ -> []);
      let printed =
        match member "metrics" j with
        | Json.Obj kvs -> List.map (fun (name, v) -> (name, str "unit" v)) kvs
        | _ -> []
      in
      Alcotest.(check (list (pair string string))) (mode ^ " printed = declared")
        (List.sort compare
           (List.map (fun (m, u, _, _) -> (m, u)) (declared mode)))
        (List.sort compare printed);
      Alcotest.(check bool) (mode ^ " record round trip") true
        (Record.of_line (Record.to_line r) = Ok r))
    [ ("end_to_end", Catalog.end_to_end); ("per_layer", Catalog.per_layer) ]

(* Check power: each check passes on a good input and rejects a
   doctored one. *)

let test_check_power () =
  Alcotest.(check bool) "residual 1e-13" true (passes (Checks.residual ~label:"x" 1e-13));
  Alcotest.(check bool) "residual 1e-6" false (passes (Checks.residual ~label:"x" 1e-6));
  Alcotest.(check bool) "outcomes add up" true
    (passes (Checks.outcomes ~completed:99 ~failed:1 ~offered:100));
  Alcotest.(check bool) "outcomes off by one" false
    (passes (Checks.outcomes ~completed:99 ~failed:0 ~offered:100));
  Alcotest.(check bool) "identical digests" true
    (passes (Checks.identical ~what:"d" [ "a"; "a"; "a" ]));
  Alcotest.(check bool) "differing digests" false
    (passes (Checks.identical ~what:"d" [ "a"; "a"; "b" ]));
  Alcotest.(check bool) "no violations" true
    (passes (Checks.no_violations ~structure:"treiber" 0));
  Alcotest.(check bool) "injected violation" false
    (passes (Checks.no_violations ~structure:"treiber" 1));
  let w n = sqrt (Float.pi *. float_of_int n) +. 0.6 in
  Alcotest.(check bool) "W near the asymptote" true
    (passes (Checks.asymptote ~n:450 ~w:(w 450)));
  Alcotest.(check bool) "W off the asymptote" false
    (passes (Checks.asymptote ~n:450 ~w:(1.05 *. w 450)));
  Alcotest.(check bool) "Richardson slope" true
    (passes (Checks.richardson ~n1:256 ~w1:(w 256) ~n2:450 ~w2:(w 450)));
  Alcotest.(check bool) "Richardson slope off" false
    (passes (Checks.richardson ~n1:256 ~w1:(w 256) ~n2:450 ~w2:(w 450 +. 0.1)));
  Alcotest.(check bool) "manifest round trip" true
    (passes (Checks.manifest_round_trip {|{"a":[1,2.5,"x"]}|}));
  Alcotest.(check bool) "truncated manifest" false
    (passes (Checks.manifest_round_trip {|{"a":[1,2.5,"x"]|}));
  Alcotest.(check bool) "stopped shard" false (passes (Checks.no_stopped_shards [ 3 ]));
  Alcotest.(check bool) "raised" false (passes (Checks.ran ~id:"fig1" (Some "Failure")))

(* The comparison rule. *)

let wall = Option.get (Catalog.find "wall_s")
let ops = Option.get (Catalog.find "ops_per_s")
let verdict m parent change = (Verdict.judge m ~parent ~change).verdict
let vt =
  Alcotest.testable (fun f v -> Format.pp_print_string f (Verdict.to_string v)) ( = )

let around base =
  Array.init 10 (fun i -> base *. (1. +. (0.002 *. float_of_int (i mod 5))))

let test_verdict () =
  Alcotest.check vt "faster" Verdict.Improved (verdict wall (around 2.) (around 1.8));
  Alcotest.check vt "higher throughput" Verdict.Improved
    (verdict ops (around 100.) (around 110.));
  let bound = Option.get wall.bound in
  Alcotest.check vt "within bound" Verdict.Unchanged
    (verdict wall (around 2.) (around (2. *. (1. +. (bound /. 2.)))));
  Alcotest.check vt "worse than bound" Verdict.Regressed
    (verdict wall (around 2.) (around (2. *. (1. +. (2. *. bound)))));
  Alcotest.check vt "too few pairs to claim" Verdict.Unchanged
    (verdict wall (Array.sub (around 2.) 0 9) (Array.sub (around 1.8) 0 9));
  let noisy = Array.init 10 (fun i -> if i mod 2 = 0 then 1.5 else 2.5) in
  Alcotest.check vt "spread wider than bound" Verdict.Unresolved
    (verdict wall noisy noisy);
  Alcotest.(check bool) "alternating" true
    (Verdict.alternating ~parent_started:[| 0.; 3.; 4. |]
       ~change_started:[| 1.; 2.; 5. |]);
  Alcotest.(check bool) "same side first" false
    (Verdict.alternating ~parent_started:[| 0.; 2. |] ~change_started:[| 1.; 3. |])

let () =
  Alcotest.run "perf"
    [
      ( "stat",
        [
          Alcotest.test_case "lower median" `Quick test_lower_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
        ] );
      ( "span",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder nesting" `Quick test_recorder_nesting;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "declared both ways" `Quick test_declared_both_ways;
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
      ("checks", [ Alcotest.test_case "power" `Quick test_check_power ]);
      ("verdict", [ Alcotest.test_case "rule" `Quick test_verdict ]);
    ]
