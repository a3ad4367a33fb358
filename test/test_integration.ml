(* Integration tests: the simulator, the exact Markov chains, and the
   balls-into-bins game must all tell the same story.  These are the
   executable versions of the paper's headline claims:

   - simulated SCU(0,1) latency = exact system-chain latency (§6.1);
   - simulated individual latency ~ n x system latency (Lemma 7);
   - simulated parallel code latency = q and nq exactly in expectation
     (Lemma 11);
   - simulated augmented-CAS counter latency = Z(n-1) (Lemma 12);
   - Theorem 3: under any weakly-fair scheduler every process keeps
     completing (maximal progress w.p. 1), with the bound degrading as
     theta shrinks;
   - Theorem 4 composition: latency(q,s,n) ~ q + alpha s sqrt(n). *)

open Core

let uniform = Sched.Scheduler.uniform

(* Every run in this file is a plain seeded run; faults are expressed
   as fault plans where needed. *)
let run ~seed ?fault_plan ~scheduler ~n ~stop spec =
  let config =
    Sim.Executor.Config.(
      default |> with_seed seed
      |> with_faults (Option.value fault_plan ~default:Sched.Fault_plan.none))
  in
  Sim.Executor.exec ~config ~scheduler ~n ~stop spec

let within ?(tol = 0.05) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.4f, measured %.4f" name expected actual)
    true
    (Float.abs (actual -. expected) /. expected <= tol)

let test_counter_sim_matches_chain () =
  (* The CAS counter is SCU(0,1): its long-run system latency must
     match the exact stationary value of the system chain. *)
  List.iter
    (fun n ->
      let exact = Chains.Scu_chain.System.system_latency ~n in
      let c = Scu.Counter.make ~n in
      let r =
        run ~seed:(1000 + n) ~scheduler:uniform ~n ~stop:(Steps 600_000)
          c.spec
      in
      within ~tol:0.03
        (Printf.sprintf "W sim-vs-chain n=%d" n)
        exact
        (Sim.Metrics.mean_system_latency r.metrics))
    [ 2; 4; 8 ]

let test_fairness_lemma7_in_simulation () =
  let n = 6 in
  let c = Scu.Counter.make ~n in
  let r =
    run ~seed:7 ~scheduler:uniform ~n ~stop:(Steps 1_200_000) c.spec
  in
  within ~tol:0.05 "individual/system ratio = 1" 1. (Sim.Metrics.fairness_ratio r.metrics);
  (* And every process's latency is individually close to n*W. *)
  let w = Sim.Metrics.mean_system_latency r.metrics in
  for i = 0 to n - 1 do
    within ~tol:0.1
      (Printf.sprintf "W_%d = nW" i)
      (float_of_int n *. w)
      (Sim.Metrics.mean_individual_latency r.metrics i)
  done

let test_parallel_code_lemma11_in_simulation () =
  List.iter
    (fun (n, q) ->
      let p = Scu.Parallel_code.make ~n ~q in
      let r =
        run ~seed:(n * q) ~scheduler:uniform ~n ~stop:(Steps 400_000) p.spec
      in
      within ~tol:0.02
        (Printf.sprintf "W = q (n=%d q=%d)" n q)
        (float_of_int q)
        (Sim.Metrics.mean_system_latency r.metrics);
      within ~tol:0.08
        (Printf.sprintf "W_0 = nq (n=%d q=%d)" n q)
        (float_of_int (n * q))
        (Sim.Metrics.mean_individual_latency r.metrics 0))
    [ (4, 3); (8, 5) ]

let test_aug_counter_matches_z_recurrence () =
  List.iter
    (fun n ->
      let exact = (Chains.Counter_chain.z_recurrence ~n).(n - 1) in
      let c = Scu.Counter_aug.make ~n in
      let r =
        run ~seed:(77 + n) ~scheduler:uniform ~n ~stop:(Steps 600_000) c.spec
      in
      within ~tol:0.03
        (Printf.sprintf "aug counter W = Z(n-1) at n=%d" n)
        exact
        (Sim.Metrics.mean_system_latency r.metrics))
    [ 2; 4; 8; 16 ]

let test_scan_steps_scale_theorem4 () =
  (* Corollary 1: with s scan steps, system latency ~ alpha s sqrt(n).
     Measure s=1 vs s=3 at fixed n: the ratio should approach 3 (each
     retry costs s+1 steps instead of 2; allow broad tolerance). *)
  let n = 16 in
  let latency s =
    let p = Scu.Scu_pattern.make ~n ~q:0 ~s in
    let r =
      run ~seed:(90 + s) ~scheduler:uniform ~n ~stop:(Steps 800_000) p.spec
    in
    Sim.Metrics.mean_system_latency r.metrics
  in
  let w1 = latency 1 and w3 = latency 3 in
  (* Per attempt s=3 costs 4 steps vs 2 (scan + CAS), and more
     processes sit mid-scan, so the ratio lands above 3; O(s sqrt n)
     only promises linearity in s up to constants. *)
  Alcotest.(check bool)
    (Printf.sprintf "W(s=3)=%.2f between 2x and 4.5x W(s=1)=%.2f" w3 w1)
    true
    (w3 > 2. *. w1 && w3 < 4.5 *. w1)

let test_preamble_shifts_latency_theorem4 () =
  (* Adding q preamble steps adds ~q to the system latency. *)
  let n = 8 in
  let latency q =
    let p = Scu.Scu_pattern.make ~n ~q ~s:1 in
    let r =
      run ~seed:(900 + q) ~scheduler:uniform ~n ~stop:(Steps 800_000) p.spec
    in
    Sim.Metrics.mean_system_latency r.metrics
  in
  let w0 = latency 0 and w10 = latency 10 in
  within ~tol:0.15 "q adds to latency" (w0 +. 10.) w10

let test_theorem3_maximal_progress_under_theta () =
  (* A bounded lock-free algorithm under a theta-fair adversary:
     every process completes operations (maximal progress), and the
     victim's throughput grows with theta. *)
  let n = 4 in
  let victim_done theta =
    let c = Scu.Counter.make ~n in
    let sched =
      Sched.Scheduler.with_weak_fairness ~theta (Sched.Scheduler.starver ~victim:0)
    in
    let r = run ~seed:5 ~scheduler:sched ~n ~stop:(Steps 300_000) c.spec in
    Sim.Metrics.completions_of r.metrics 0
  in
  let slow = victim_done 0.01 and fast = victim_done 0.2 in
  Alcotest.(check bool)
    (Printf.sprintf "victim completes under theta=0.01 (%d ops)" slow)
    true (slow > 0);
  Alcotest.(check bool)
    (Printf.sprintf "more theta, more progress (%d < %d)" slow fast)
    true (slow < fast)

let test_crash_latency_tracks_survivors_corollary2 () =
  (* Corollary 2: with only k correct processes the latency is
     O(q + s sqrt k).  Crash half the processes at t=0 and compare
     against an honest k-process run. *)
  let n = 16 and k = 8 in
  let c1 = Scu.Counter.make ~n in
  let fault_plan =
    Sched.Fault_plan.of_crash_events (List.init (n - k) (fun i -> (0, k + i)))
  in
  let r1 =
    run ~seed:3 ~fault_plan ~scheduler:uniform ~n ~stop:(Steps 600_000) c1.spec
  in
  let c2 = Scu.Counter.make ~n:k in
  let r2 =
    run ~seed:4 ~scheduler:uniform ~n:k ~stop:(Steps 600_000) c2.spec
  in
  within ~tol:0.05 "crashed-n run behaves like k-process run"
    (Sim.Metrics.mean_system_latency r2.metrics)
    (Sim.Metrics.mean_system_latency r1.metrics)

let test_quantum_scheduler_keeps_long_run_shape () =
  (* Ablation: an OS-like bursty scheduler with small quantum keeps the
     same long-run completion-rate ordering as uniform (robustness of
     the model's predictions), though constants shift. *)
  let n = 8 in
  let rate sched =
    let c = Scu.Counter.make ~n in
    let r = run ~seed:8 ~scheduler:sched ~n ~stop:(Steps 400_000) c.spec in
    Sim.Metrics.completion_rate r.metrics
  in
  let uni = rate uniform in
  let quantum = rate (Sched.Scheduler.quantum ~length:4) in
  (* Under quantum scheduling a process runs solo within its slice, so
     retries are rarer and the rate is at least the uniform one. *)
  Alcotest.(check bool)
    (Printf.sprintf "quantum rate %.4f >= 0.8 x uniform %.4f" quantum uni)
    true
    (quantum >= 0.8 *. uni)

let test_zipf_breaks_fairness () =
  (* Ablation: under a skewed scheduler the individual latencies are no
     longer equal (Lemma 7 needs uniformity). *)
  let n = 6 in
  let c = Scu.Counter.make ~n in
  let r =
    run ~seed:9
      ~scheduler:(Sched.Scheduler.zipf ~n ~alpha:1.5)
      ~n ~stop:(Steps 600_000) c.spec
  in
  let w0 = Sim.Metrics.mean_individual_latency r.metrics 0 in
  let w5 = Sim.Metrics.mean_individual_latency r.metrics (n - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "favored p0 (%.1f) much faster than p5 (%.1f)" w0 w5)
    true
    (w5 > 3. *. w0)

let test_seed_robustness () =
  (* The headline number (W at n=8) must be stable across seeds: the
     runs are long enough that seed-to-seed spread is ~1%. *)
  let ws =
    List.map
      (fun seed ->
        let c = Scu.Counter.make ~n:8 in
        let r = run ~seed ~scheduler:uniform ~n:8 ~stop:(Steps 400_000) c.spec in
        Sim.Metrics.mean_system_latency r.metrics)
      [ 1; 2; 3; 4; 5 ]
  in
  let s = Stats.Summary.of_array (Array.of_list ws) in
  Alcotest.(check bool)
    (Printf.sprintf "spread small (mean %.3f, sd %.4f)" (Stats.Summary.mean s)
       (Stats.Summary.stddev s))
    true
    (Stats.Summary.stddev s /. Stats.Summary.mean s < 0.01)

let test_game_chain_sim_triangle () =
  (* Three independent computations of W(8): exact chain, ball game,
     full simulator.  All must agree. *)
  let n = 8 in
  let exact = Chains.Scu_chain.System.system_latency ~n in
  let game =
    let g = Ballsbins.Game.create ~n in
    Ballsbins.Game.mean_phase_length g ~rng:(Stats.Rng.create ~seed:12) ~phases:80_000
  in
  let sim =
    let c = Scu.Counter.make ~n in
    let r = run ~seed:13 ~scheduler:uniform ~n ~stop:(Steps 800_000) c.spec in
    Sim.Metrics.mean_system_latency r.metrics
  in
  within ~tol:0.03 "game vs chain" exact game;
  within ~tol:0.03 "sim vs chain" exact sim

let () =
  Alcotest.run "integration"
    [
      ( "sim = chain",
        [
          Alcotest.test_case "counter latency (§6.1)" `Slow test_counter_sim_matches_chain;
          Alcotest.test_case "fairness (Lemma 7)" `Slow test_fairness_lemma7_in_simulation;
          Alcotest.test_case "parallel code (Lemma 11)" `Slow
            test_parallel_code_lemma11_in_simulation;
          Alcotest.test_case "aug counter (Lemma 12)" `Slow
            test_aug_counter_matches_z_recurrence;
          Alcotest.test_case "triangle: game = chain = sim" `Slow
            test_game_chain_sim_triangle;
          Alcotest.test_case "seed robustness" `Slow test_seed_robustness;
        ] );
      ( "theorem 4 shape",
        [
          Alcotest.test_case "scan steps scale" `Slow test_scan_steps_scale_theorem4;
          Alcotest.test_case "preamble adds q" `Slow test_preamble_shifts_latency_theorem4;
        ] );
      ( "progress",
        [
          Alcotest.test_case "theta => maximal progress (Thm 3)" `Slow
            test_theorem3_maximal_progress_under_theta;
          Alcotest.test_case "crashes: k survivors (Cor 2)" `Slow
            test_crash_latency_tracks_survivors_corollary2;
        ] );
      ( "scheduler ablations",
        [
          Alcotest.test_case "quantum keeps shape" `Slow
            test_quantum_scheduler_keeps_long_run_shape;
          Alcotest.test_case "zipf breaks fairness" `Slow test_zipf_breaks_fairness;
        ] );
    ]
