(* Long-budget checks, attached to the @slow alias (not runtest):
   deeper exhaustive exploration, larger fuzz budgets, a long
   interpreter-vs-compiled differential sweep, and the long
   conformance gates.  Run with `dune build @slow`.

   Self-contained seed plumbing (this stanza does not share modules
   with the fast tests): REPRO_TEST_SEED, default 421, printed on
   failure. *)

let seed =
  match Sys.getenv_opt "REPRO_TEST_SEED" with
  | None | Some "" -> 421
  | Some s -> (
      try int_of_string (String.trim s)
      with _ -> invalid_arg "REPRO_TEST_SEED must be an integer")

let find = Scu.Checkable.find

let deep = { Check.Explore.default with max_nodes = 500_000; max_depth = 96 }

let test_deep_stock_certification () =
  (* Exhaustive interleaving coverage one size up from the fast tier. *)
  List.iter
    (fun (name, n, ops) ->
      let r = Check.Explore.explore ~config:deep ~structure:(find name) ~n ~ops () in
      Alcotest.(check int)
        (Printf.sprintf "%s (n=%d, ops=%d) no violations" name n ops)
        0
        (List.length r.Check.Explore.violations);
      Alcotest.(check bool)
        (Printf.sprintf "%s exhausted (%d nodes)" name r.Check.Explore.nodes)
        true r.Check.Explore.exhausted)
    [ ("cas-counter", 3, 3); ("faa-counter", 4, 2); ("treiber", 3, 3) ]

let test_deep_msqueue_bug () =
  (* The msqueue seed bug needs two concurrent dequeuers; certify the
     explorer finds it at the wider instance, and that every reported
     schedule replays. *)
  let r =
    Check.Explore.explore ~config:deep ~structure:(find "msqueue-nocas") ~n:4
      ~ops:1 ()
  in
  Alcotest.(check bool) "violations found" true (r.Check.Explore.violations <> []);
  List.iter
    (fun (v : Check.Explore.violation) ->
      let out =
        Check.Schedule.run ~structure:(find "msqueue-nocas") ~n:4 ~ops:1
          ~tail:Check.Schedule.Stop v.schedule
      in
      Alcotest.(check bool) "replays" true
        (Check.Schedule.is_bad out.Check.Schedule.verdict))
    r.Check.Explore.violations

let test_long_fuzz_stock_clean () =
  let config = { Check.Fuzz.default with trials = 2_000; sched_trials = 8; seed } in
  List.iter
    (fun name ->
      let r =
        Check.Fuzz.fuzz ~config ~structure:(find name) ~n:3 ~ops:3 ()
      in
      Alcotest.(check int)
        (Printf.sprintf "%s clean over %d trials (REPRO_TEST_SEED=%d)" name
           r.Check.Fuzz.trials seed)
        0
        (List.length r.Check.Fuzz.failures))
    [ "cas-counter"; "faa-counter"; "treiber"; "msqueue" ]

let test_long_differential () =
  (* Interpreter vs compiled executor on 5,000 random programs, plans
     and configurations: the push tier runs 180 such cases. *)
  match Check.Differential.run_trials ~seed:2014 ~trials:5_000 with
  | None -> ()
  | Some (case, outcome) ->
      Alcotest.failf "interpreter/compiled divergence:\n%s\n%s"
        (Check.Differential.case_to_string case)
        outcome.Check.Differential.detail

let test_long_conform_gates () =
  let r = Check.Conform.run ~long_budget:true ~seed:0 () in
  List.iter
    (fun (g : Check.Conform.gate) ->
      Alcotest.(check bool) (g.name ^ ": " ^ g.detail) true g.passed)
    r.Check.Conform.gates

let () =
  Alcotest.run "slow"
    [
      ( "explore (deep)",
        [
          Alcotest.test_case "stock certification" `Slow
            test_deep_stock_certification;
          Alcotest.test_case "msqueue-nocas found" `Slow test_deep_msqueue_bug;
        ] );
      ( "fuzz (long)",
        [ Alcotest.test_case "stock clean" `Slow test_long_fuzz_stock_clean ] );
      ( "differential (long)",
        [
          Alcotest.test_case "5000 seeded trials" `Slow test_long_differential;
        ] );
      ( "conform (long)",
        [ Alcotest.test_case "all gates" `Slow test_long_conform_gates ] );
    ]
