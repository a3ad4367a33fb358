(* Tests for lib/check: the schedule-replay substrate, the bounded
   exhaustive explorer (which must catch every seeded bug and certify
   every stock structure clean), the fuzzer with shrinking, digests
   pinning what every Checkable structure does, and the statistical
   conformance gates. *)

open Core

let find = Scu.Checkable.find

let run_schedule ?mix_seed structure ~n ~ops ~tail sched =
  Check.Schedule.run ?mix_seed ~structure:(find structure) ~n ~ops ~tail sched

(* -- Schedule replay substrate -------------------------------------- *)

let test_any_array_is_a_schedule () =
  (* Entries naming dead/out-of-range processes normalize to the next
     runnable process; replaying the effective schedule is a fixed
     point. *)
  let sched = [| 7; -3; 0; 99; 1; 1; 42; 0; -1; 5 |] in
  let out = run_schedule "cas-counter" ~n:2 ~ops:2 ~tail:Stop sched in
  Array.iter
    (fun p -> Alcotest.(check bool) "pick in range" true (p >= 0 && p < 2))
    out.Check.Schedule.executed;
  let again =
    run_schedule "cas-counter" ~n:2 ~ops:2 ~tail:Stop out.Check.Schedule.executed
  in
  Alcotest.(check (array int))
    "effective schedule is a fixed point" out.Check.Schedule.executed
    again.Check.Schedule.executed;
  Alcotest.(check string)
    "same verdict"
    (Check.Schedule.verdict_to_string out.Check.Schedule.verdict)
    (Check.Schedule.verdict_to_string again.Check.Schedule.verdict)

let test_round_robin_tail_completes () =
  let out = run_schedule "treiber" ~n:2 ~ops:2 ~tail:Round_robin [||] in
  Alcotest.(check bool) "terminal" true out.Check.Schedule.terminal;
  Alcotest.(check (array int))
    "all ops completed" [| 2; 2 |] out.Check.Schedule.completed;
  Alcotest.(check bool)
    "linearizable" false
    (Check.Schedule.is_bad out.Check.Schedule.verdict)

let test_62_op_boundary () =
  (* n * ops = 62 is the checker's bitmask limit: accepted end-to-end;
     63 is rejected up front. *)
  let out = run_schedule "faa-counter" ~n:1 ~ops:62 ~tail:Round_robin [||] in
  Alcotest.(check bool)
    "62 sequential ops check out" false
    (Check.Schedule.is_bad out.Check.Schedule.verdict);
  Alcotest.check_raises "63 ops rejected"
    (Invalid_argument
       "Schedule.run: n * ops must be <= 62 (linearizability checker limit)")
    (fun () -> ignore (run_schedule "faa-counter" ~n:1 ~ops:63 ~tail:Stop [||]))

let test_crash_never_false_alarms () =
  (* Crashing a process mid-operation leaves an in-flight op; the
     sound partial-history rule must never call that a violation. *)
  let fault_plan =
    Sched.Fault_plan.of_crash_events [ (3, 1) ]
  in
  let out =
    Check.Schedule.run ~fault_plan ~structure:(find "cas-counter") ~n:2 ~ops:2
      ~tail:Round_robin [||]
  in
  Alcotest.(check bool)
    "no false alarm under crash" false
    (Check.Schedule.is_bad out.Check.Schedule.verdict)

let test_ddmin_minimizes () =
  (* ddmin over a pure predicate: keep arrays containing >= 3 sevens.
     The greedy minimum is exactly three sevens. *)
  let fails a = Array.fold_left (fun n x -> if x = 7 then n + 1 else n) 0 a >= 3 in
  let input = [| 1; 7; 2; 7; 3; 7; 4; 7; 5; 7 |] in
  let out = Check.Schedule.ddmin ~fails input in
  Alcotest.(check bool) "still fails" true (fails out);
  Alcotest.(check (array int)) "1-minimal" [| 7; 7; 7 |] out

(* -- Explorer: seeded bugs found, stock certified ------------------- *)

let explore ?config name ~n ~ops =
  Check.Explore.explore ?config ~structure:(find name) ~n ~ops ()

let check_bug_found name ~n ~ops () =
  let r = explore name ~n ~ops in
  Alcotest.(check bool)
    (name ^ " violations found") true
    (r.Check.Explore.violations <> []);
  (* Every reported schedule must replay to a bad verdict. *)
  List.iter
    (fun (v : Check.Explore.violation) ->
      let out = run_schedule name ~n ~ops ~tail:Stop v.schedule in
      Alcotest.(check bool)
        "violation replays" true
        (Check.Schedule.is_bad out.Check.Schedule.verdict))
    r.Check.Explore.violations

let check_stock_clean name ~n ~ops () =
  let r = explore name ~n ~ops in
  Alcotest.(check int)
    (name ^ " no violations") 0
    (List.length r.Check.Explore.violations);
  Alcotest.(check bool) (name ^ " exhausted") true r.Check.Explore.exhausted

let test_pruning_is_sound () =
  (* The DPOR-lite prunes must not change the verdict: with pruning
     disabled the explorer visits more nodes but finds the same
     violations-or-not answer. *)
  let bare =
    { Check.Explore.default with prune_states = false; sleep_sets = false }
  in
  let fast = explore "counter-nocas" ~n:2 ~ops:2 in
  let slow = explore ~config:bare "counter-nocas" ~n:2 ~ops:2 in
  Alcotest.(check bool) "pruned finds bug" true (fast.Check.Explore.violations <> []);
  Alcotest.(check bool) "unpruned finds bug" true (slow.Check.Explore.violations <> []);
  Alcotest.(check bool)
    "pruning saves work" true
    (fast.Check.Explore.nodes < slow.Check.Explore.nodes);
  let clean = explore "cas-counter" ~n:2 ~ops:2 in
  let clean_bare = explore ~config:bare "cas-counter" ~n:2 ~ops:2 in
  Alcotest.(check int)
    "clean stays clean unpruned" 0
    (List.length clean_bare.Check.Explore.violations);
  Alcotest.(check int)
    "clean stays clean pruned" 0
    (List.length clean.Check.Explore.violations)

(* -- Fuzzer --------------------------------------------------------- *)

let fuzz ?config name ~n ~ops =
  Check.Fuzz.fuzz ?config ~structure:(find name) ~n ~ops ()

let fuzz_config =
  { Check.Fuzz.default with trials = 150; seed = Test_util.seed }

let test_fuzz_catches_seeded_bug () =
  let r = fuzz ~config:fuzz_config "treiber-nocas" ~n:2 ~ops:2 in
  Alcotest.(check bool)
    (Printf.sprintf "failures found (REPRO_TEST_SEED=%d)" Test_util.seed)
    true
    (r.Check.Fuzz.failures <> []);
  List.iter
    (fun (f : Check.Fuzz.failure) ->
      (* A qcheck failure was judged under the deterministic
         round-robin tail; scheduler-trace failures under Stop. *)
      let tail =
        if f.source = "qcheck" then Check.Schedule.Round_robin
        else Check.Schedule.Stop
      in
      let out = run_schedule ?mix_seed:f.mix_seed "treiber-nocas" ~n:2 ~ops:2 ~tail f.schedule in
      Alcotest.(check bool)
        ("minimal schedule replays: " ^ f.replay)
        true
        (Check.Schedule.is_bad out.Check.Schedule.verdict))
    r.Check.Fuzz.failures

let test_fuzz_stock_clean () =
  List.iter
    (fun name ->
      let r = fuzz ~config:fuzz_config name ~n:3 ~ops:2 in
      Alcotest.(check int)
        (Printf.sprintf "%s clean (REPRO_TEST_SEED=%d)" name Test_util.seed)
        0
        (List.length r.Check.Fuzz.failures))
    [
      "cas-counter";
      "faa-counter";
      "treiber";
      "msqueue";
      "elimination-stack";
      "waitfree-counter";
    ]

(* -- Chaos fuzzing (fault plans) ------------------------------------ *)

let chaos_config = { Check.Chaos.default with trials = 40; seed = Test_util.seed }

let test_chaos_catches_seeded_bug () =
  let r =
    Check.Chaos.run ~config:chaos_config ~spec:Check.Chaos.default_spec
      ~structure:(find "counter-nocas") ~n:3 ~ops:2 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "failures found (REPRO_TEST_SEED=%d)" Test_util.seed)
    true
    (r.Check.Chaos.failures <> []);
  (* Every shrunk failure replays byte-for-byte from its
     (schedule, fault plan, mix seed) triple. *)
  List.iter
    (fun (f : Check.Chaos.failure) ->
      let out =
        Check.Schedule.run ~fault_plan:f.faults ~mix_seed:f.mix_seed
          ~structure:(find "counter-nocas") ~n:3 ~ops:2 ~tail:Round_robin
          f.schedule
      in
      Alcotest.(check bool)
        ("minimal failure replays: " ^ f.replay)
        true
        (Check.Schedule.is_bad out.Check.Schedule.verdict);
      Alcotest.(check (array int))
        "effective schedule is a fixed point" f.schedule
        out.Check.Schedule.executed)
    r.Check.Chaos.failures

let test_chaos_stock_clean () =
  (* Crash–recovery, stalls, and spurious CAS failure must not produce
     false alarms on the correct structures — recovery-safe re-entry
     plus the mark-aware partial-history rule. *)
  List.iter
    (fun name ->
      let r =
        Check.Chaos.run ~config:chaos_config ~spec:Check.Chaos.default_spec
          ~structure:(find name) ~n:3 ~ops:2 ()
      in
      Alcotest.(check int)
        (Printf.sprintf "%s clean under chaos (REPRO_TEST_SEED=%d)" name
           Test_util.seed)
        0
        (List.length r.Check.Chaos.failures))
    [
      "cas-counter";
      "faa-counter";
      "treiber";
      "msqueue";
      "elimination-stack";
      "waitfree-counter";
    ]

let test_chaos_elimination_recovery_heavy () =
  (* The elimination stack's crash-recovery settlement (a parked push
     withdrawn or completed by [recover_push]) and its spurious-CAS
     robust reclaim only fire under faults; drive them hard with rates
     well above the default drill.  Any double-push, lost value, or
     phantom pop would surface as a linearizability failure. *)
  let spec =
    {
      Sched.Fault_plan.base = Sched.Fault_plan.none;
      rates =
        {
          Sched.Fault_plan.crash = 0.08;
          recover = 0.3;
          stall = 0.02;
          stall_len = 4;
          casfail = 0.25;
        };
    }
  in
  let r =
    Check.Chaos.run
      ~config:{ chaos_config with trials = 120 }
      ~spec ~structure:(find "elimination-stack") ~n:3 ~ops:2 ()
  in
  Alcotest.(check int)
    (Printf.sprintf "clean under heavy faults (REPRO_TEST_SEED=%d)"
       Test_util.seed)
    0
    (List.length r.Check.Chaos.failures)

let test_chaos_deterministic () =
  let run () =
    let r =
      Check.Chaos.run ~config:chaos_config ~spec:Check.Chaos.default_spec
        ~structure:(find "msqueue-nocas") ~n:3 ~ops:2 ()
    in
    List.map
      (fun (f : Check.Chaos.failure) -> (f.replay, f.fault_spec, f.mix_seed))
      r.Check.Chaos.failures
  in
  Alcotest.(check bool) "same failures both runs" true (run () = run ())

(* The fault-rate drill rides next to the fuzzer as a scenario source
   of its own: a [Fuzz; Chaos] scenario reports chaos failures. *)
let test_fuzz_faults_flag_adds_chaos_source () =
  let scn =
    Scenario.make ~n:3 ~ops:2 ~seed:Test_util.seed
      ~faults:Check.Chaos.default_spec
      ~sources:[ Scenario.Fuzz; Scenario.Chaos ]
      ~gates:[ Scenario.Lin ]
      ~budget:
        {
          Scenario.standard.budget with
          fuzz_trials = 30;
          chaos_trials = Check.Chaos.default.trials;
        }
      ~structures:[ "counter-nocas" ] ()
  in
  let r = Scenario.run scn in
  Alcotest.(check bool)
    "chaos source contributes failures" true
    (List.exists (fun (f : Scenario.failure) -> f.source = "chaos") r.failures)

(* -- Pinned behaviour ------------------------------------------------ *)

(* Verdict tests cannot see a refactor that reorders a structure's
   allocations or RNG draws: every run still judges clean or buggy.
   This table pins what each structure actually does — one digest per
   (structure, mix seed, fault plan) of the executor fingerprint (or
   the invariant's failure), the recorded history and the final
   memory — under a crash/restart/spurious-CAS plan and fault-free. *)

let pinned_faults =
  match
    Sched.Fault_plan.parse_spec
      "crash@5:1,restart@9:1,crash@14:2,restart@20:2,casfail:*=0.3"
  with
  | Ok spec -> spec.Sched.Fault_plan.base
  | Error msg -> failwith msg

let pinned_digest (s : Scu.Checkable.t) ~mix_seed ~fault_plan =
  let inst = s.make ~n:4 ~ops:3 ?mix_seed () in
  let config =
    Sim.Executor.Config.(
      default |> with_seed 3 |> with_trace true |> with_faults fault_plan
      |> with_invariant ~interval:1 inst.invariant)
  in
  let outcome =
    match
      Sim.Executor.exec ~config ~scheduler:Sched.Scheduler.uniform ~n:4
        ~stop:(Steps 20_000) inst.spec
    with
    | r -> Sim.Executor.fingerprint r
    | exception Failure msg -> "invariant: " ^ msg
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          ((outcome :: List.map Scu.Checkable.event_to_string (inst.events ()))
          @ List.map string_of_int
              (Array.to_list (Sim.Memory.snapshot inst.spec.memory)))))

(* The reference digests.  A change that means to alter a structure's
   behaviour recaptures them from its parent's build, never from its
   own. *)
let pinned =
  [
    ("cas-counter mix=none fault-free", "49d95ba0e4a79ad2ee13b3f25cda2ff4");
    ("cas-counter mix=none faulted", "aba2d85cbd604d7128ba4a4c1d1db9a1");
    ("cas-counter mix=7 fault-free", "49d95ba0e4a79ad2ee13b3f25cda2ff4");
    ("cas-counter mix=7 faulted", "aba2d85cbd604d7128ba4a4c1d1db9a1");
    ("faa-counter mix=none fault-free", "276739b1dd9d49070b9e667aef2f1d44");
    ("faa-counter mix=none faulted", "61e5d5a23337883eceb8e70509cd3a75");
    ("faa-counter mix=7 fault-free", "276739b1dd9d49070b9e667aef2f1d44");
    ("faa-counter mix=7 faulted", "61e5d5a23337883eceb8e70509cd3a75");
    ("treiber mix=none fault-free", "b49f43829c22e569ad42191898616be7");
    ("treiber mix=none faulted", "124f507ce9520ec215aed5132db7e0f5");
    ("treiber mix=7 fault-free", "a14c8b7120cf5d0f75b5977dbfaa7d6b");
    ("treiber mix=7 faulted", "e0748b36ebf98ec078c6b536134c4001");
    ("msqueue mix=none fault-free", "2138963082274b0bfd3f50d363ed8429");
    ("msqueue mix=none faulted", "700c302f48d583814a62092925b000bb");
    ("msqueue mix=7 fault-free", "eadc1befcc15541d8a9f16a15e565647");
    ("msqueue mix=7 faulted", "6677963712f2eec57f653d0919053be5");
    ("elimination-stack mix=none fault-free", "c2049004671572e1aa2b5650cfe7fe30");
    ("elimination-stack mix=none faulted", "f85269a91d6bbd97936ad7e796ed9cb5");
    ("elimination-stack mix=7 fault-free", "d4f2e47a63e11ff2dcb3505101463632");
    ("elimination-stack mix=7 faulted", "446ad6753edbe906002564ce4b9a7f0e");
    ("waitfree-counter mix=none fault-free", "e35754e94add3366217d43bbae28da44");
    ("waitfree-counter mix=none faulted", "0dd265854cbc613d8398fd6daf70bee0");
    ("waitfree-counter mix=7 fault-free", "e35754e94add3366217d43bbae28da44");
    ("waitfree-counter mix=7 faulted", "0dd265854cbc613d8398fd6daf70bee0");
    ("counter-nocas mix=none fault-free", "f78317dfa51f9049f74d491ed3602500");
    ("counter-nocas mix=none faulted", "eeb2b0e55e1f45dbb655088e4ff18a4c");
    ("counter-nocas mix=7 fault-free", "f78317dfa51f9049f74d491ed3602500");
    ("counter-nocas mix=7 faulted", "eeb2b0e55e1f45dbb655088e4ff18a4c");
    ("treiber-nocas mix=none fault-free", "f82c8cba50b187b54c09f8655da870a4");
    ("treiber-nocas mix=none faulted", "bfc58a37f03544e8fcd96f2567ca5f91");
    ("treiber-nocas mix=7 fault-free", "51de2de0efec7d7e063ea483d80c1fcd");
    ("treiber-nocas mix=7 faulted", "a75242ead83c12389d50dca9099af710");
    ("msqueue-nocas mix=none fault-free", "5c136702204bb7b5aeff534af0381d05");
    ("msqueue-nocas mix=none faulted", "840fb505ce64101e90b5edbef831f15d");
    ("msqueue-nocas mix=7 fault-free", "38ce68376d35b55fe37b53e742329378");
    ("msqueue-nocas mix=7 faulted", "99917232ac48b0d66e4d4b7edacaa296");
    ("counter-misreport mix=none fault-free", "7aee9822dc9185073857c57cdd574833");
    ("counter-misreport mix=none faulted", "d9087a6ecabd4f74a9c904663d1f35eb");
    ("counter-misreport mix=7 fault-free", "7aee9822dc9185073857c57cdd574833");
    ("counter-misreport mix=7 faulted", "d9087a6ecabd4f74a9c904663d1f35eb");
  ]

let test_pinned_behaviour () =
  let actual =
    List.concat_map
      (fun (s : Scu.Checkable.t) ->
        List.concat_map
          (fun mix_seed ->
            List.map
              (fun (label, fault_plan) ->
                ( Printf.sprintf "%s mix=%s %s" s.name
                    (match mix_seed with
                    | None -> "none"
                    | Some m -> string_of_int m)
                    label,
                  pinned_digest s ~mix_seed ~fault_plan ))
              [ ("fault-free", Sched.Fault_plan.none); ("faulted", pinned_faults) ])
          [ None; Some 7 ])
      (Scu.Checkable.all @ [ find "counter-misreport" ])
  in
  Alcotest.(check int) "40 runs" 40 (List.length actual);
  List.iter2
    (fun (label, want) (label', got) ->
      Alcotest.(check string) "same run" label label';
      Alcotest.(check string) label want got)
    pinned actual

(* -- Conformance gates ---------------------------------------------- *)

let test_conform_smoke () =
  let r = Check.Conform.run ~seed:0 () in
  List.iter
    (fun (g : Check.Conform.gate) ->
      Alcotest.(check bool) (g.name ^ ": " ^ g.detail) true g.passed)
    r.Check.Conform.gates

let () =
  Alcotest.run "check"
    [
      ( "schedule",
        [
          Alcotest.test_case "any array is a schedule" `Quick
            test_any_array_is_a_schedule;
          Alcotest.test_case "round-robin tail completes" `Quick
            test_round_robin_tail_completes;
          Alcotest.test_case "62-op boundary" `Quick test_62_op_boundary;
          Alcotest.test_case "crash soundness" `Quick test_crash_never_false_alarms;
          Alcotest.test_case "ddmin" `Quick test_ddmin_minimizes;
        ] );
      ( "explore",
        [
          Alcotest.test_case "counter-nocas bug found" `Quick
            (check_bug_found "counter-nocas" ~n:2 ~ops:2);
          Alcotest.test_case "treiber-nocas bug found" `Quick
            (check_bug_found "treiber-nocas" ~n:2 ~ops:2);
          Alcotest.test_case "msqueue-nocas bug found" `Quick
            (check_bug_found "msqueue-nocas" ~n:4 ~ops:1);
          Alcotest.test_case "cas-counter certified" `Quick
            (check_stock_clean "cas-counter" ~n:3 ~ops:2);
          Alcotest.test_case "faa-counter certified" `Quick
            (check_stock_clean "faa-counter" ~n:3 ~ops:2);
          Alcotest.test_case "treiber certified" `Quick
            (check_stock_clean "treiber" ~n:2 ~ops:2);
          Alcotest.test_case "msqueue certified" `Quick
            (check_stock_clean "msqueue" ~n:4 ~ops:1);
          Alcotest.test_case "elimination-stack certified" `Quick
            (check_stock_clean "elimination-stack" ~n:2 ~ops:2);
          Alcotest.test_case "waitfree-counter certified" `Quick
            (check_stock_clean "waitfree-counter" ~n:2 ~ops:2);
          Alcotest.test_case "pruning soundness" `Quick test_pruning_is_sound;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "seeded bug caught" `Quick test_fuzz_catches_seeded_bug;
          Alcotest.test_case "stock clean" `Quick test_fuzz_stock_clean;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "seeded bug caught under faults" `Quick
            test_chaos_catches_seeded_bug;
          Alcotest.test_case "stock clean under faults" `Quick test_chaos_stock_clean;
          Alcotest.test_case "elimination recovery under heavy faults" `Quick
            test_chaos_elimination_recovery_heavy;
          Alcotest.test_case "deterministic" `Quick test_chaos_deterministic;
          Alcotest.test_case "fuzz --faults adds chaos source" `Quick
            test_fuzz_faults_flag_adds_chaos_source;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "structure behaviour digests" `Quick
            test_pinned_behaviour;
        ] );
      ("conform", [ Alcotest.test_case "smoke gates" `Quick test_conform_smoke ]);
    ]
