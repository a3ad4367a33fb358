(* Statistical conformance gates: re-run the repository's Markov-chain
   predictions against fresh simulations and fail loudly on
   divergence.  Each gate is a pass/fail restatement of one of the
   paper's quantitative claims (Lemmas 7 and 11, Theorem 5, the
   Appendix B counter measurement) or of a scheduler-contract check
   (Definition 1 validity, chi-square uniformity, distributional
   stability), with thresholds several standard errors wide so the
   smoke budgets stay deterministic-in-practice in CI. *)

type gate = { name : string; passed : bool; detail : string }
type report = { gates : gate list; passed : bool }

type budget = {
  steps : int;  (** System steps per simulated run. *)
  phases : int;  (** Balls-into-bins phases. *)
  fuzz_trials : int;  (** Linearizability smoke trials per structure. *)
  rel_tol : float;  (** Relative error allowed on chain predictions. *)
  ks_tol : float;  (** Two-sample KS distance allowed between halves. *)
  sparse_ns : int * int;
      (** Populations (n₁, n₂) for the large-n exact legs, solved round
          by round; n₂'s lumped chain has (n₂+1)(n₂+2)/2 − 1 states and
          the pair feeds the Richardson extrapolation of W/√n. *)
}

let smoke =
  {
    steps = 60_000;
    phases = 2_000;
    fuzz_trials = 60;
    rel_tol = 0.10;
    ks_tol = 0.05;
    (* n = 450 → 101,925 states: past the 10⁵ mark, ~0.1 s round
       by round. *)
    sparse_ns = (256, 450);
  }

let long =
  {
    steps = 1_000_000;
    phases = 20_000;
    fuzz_trials = 600;
    rel_tol = 0.05;
    ks_tol = 0.02;
    (* n = 1000 → 501,500 states, ~1 s round by round. *)
    sparse_ns = (450, 1000);
  }

let gate name passed detail = { name; passed; detail }

let rel_err ~got ~want = Float.abs (got -. want) /. Float.abs want

let rel_gate name ~got ~want ~tol =
  gate name
    (rel_err ~got ~want <= tol)
    (Printf.sprintf "got %.4g, predicted %.4g (rel err %.3f, tol %.2f)" got
       want
       (rel_err ~got ~want)
       tol)

let metrics ?(record_samples = false) ?(scheduler = Sched.Scheduler.uniform)
    ~seed ~n ~steps spec =
  (Sim.Executor.exec
     ~config:
       Sim.Executor.Config.(
         default |> with_seed seed |> with_samples record_samples)
     ~scheduler ~n ~stop:(Steps steps) spec)
    .metrics

(* Appendix B / Figure 5: simulated counter system latency vs the
   exact stationary latency of the SCU(0,1) system chain; plus Lemma 7
   (fairness ratio = 1) on the same run. *)
let counter_gates ~budget ~seed =
  let n = 8 in
  let c = Scu.Counter.make ~n in
  let m = metrics ~seed ~n ~steps:budget.steps c.spec in
  [
    rel_gate "counter-latency"
      ~got:(Sim.Metrics.mean_system_latency m)
      ~want:(Chains.Predict.exact_scan_validate_latency ~n)
      ~tol:budget.rel_tol;
    rel_gate "lem7-fairness"
      ~got:(Sim.Metrics.fairness_ratio m)
      ~want:1.0 ~tol:budget.rel_tol;
  ]

(* Lemma 11: parallel code with q steps has W = q exactly. *)
let parallel_gate ~budget ~seed =
  let n = 4 and q = 3 in
  let p = Scu.Parallel_code.make ~n ~q in
  let m = metrics ~seed:(seed + 1) ~n ~steps:budget.steps p.spec in
  rel_gate "lem11-parallel"
    ~got:(Sim.Metrics.mean_system_latency m)
    ~want:(Chains.Parallel_chain.System.system_latency ~n ~q)
    ~tol:budget.rel_tol

(* Theorem 5 / Lemmas 8-9: mean balls-into-bins phase length equals
   the stationary system latency of the SCU chain. *)
let ballsbins_gate ~budget ~seed =
  let n = 16 in
  let g = Ballsbins.Game.create ~n in
  let rng = Stats.Rng.create ~seed:(seed + 2) in
  for _ = 1 to budget.phases / 10 do
    ignore (Ballsbins.Game.run_phase g ~rng)
  done;
  let ps = Ballsbins.Game.run g ~rng ~phases:budget.phases in
  let mean =
    float_of_int
      (List.fold_left (fun acc p -> acc + p.Ballsbins.Game.length) 0 ps)
    /. float_of_int budget.phases
  in
  rel_gate "thm5-phase-length" ~got:mean
    ~want:(Chains.Scu_chain.System.system_latency ~n)
    ~tol:budget.rel_tol

(* Chi-square scheduling-uniformity: the uniform scheduler must pass,
   and the test must have the power to reject a zipf adversary. *)
let chi2_gates ~budget ~seed =
  let n = 8 in
  let trace_counts scheduler seed =
    let c = Scu.Counter.make ~n in
    let r =
      Sim.Executor.exec
        ~config:
          Sim.Executor.Config.(default |> with_seed seed |> with_trace true)
        ~scheduler ~n ~stop:(Steps budget.steps) c.spec
    in
    Sched.Trace.step_counts (Option.get r.trace)
  in
  let uni = trace_counts Sched.Scheduler.uniform (seed + 3) in
  let zipf =
    trace_counts (Sched.Scheduler.zipf ~n ~alpha:1.5) (seed + 4)
  in
  [
    gate "chi2-uniform-pass"
      (Stats.Chi_square.test_uniform ~alpha:0.001 uni)
      (Printf.sprintf "uniform statistic %.2f"
         (Stats.Chi_square.uniform_statistic uni));
    gate "chi2-zipf-reject"
      (not (Stats.Chi_square.test_uniform ~alpha:0.001 zipf))
      (Printf.sprintf "zipf statistic %.2f (power check)"
         (Stats.Chi_square.uniform_statistic zipf));
  ]

(* Distributional stability: two halves of one run's latency samples
   must agree (two-sample KS).  Catches nonstationarity bugs that mean
   comparisons miss. *)
let ks_gate ~budget ~seed =
  let n = 8 in
  let c = Scu.Counter.make ~n in
  let m = metrics ~record_samples:true ~seed:(seed + 5) ~n ~steps:budget.steps c.spec in
  let samples = Sim.Metrics.system_samples m in
  let half = Array.length samples / 2 in
  let d =
    Stats.Ecdf.ks_distance
      (Stats.Ecdf.of_array (Array.sub samples 0 half))
      (Stats.Ecdf.of_array (Array.sub samples half (Array.length samples - half)))
  in
  gate "ks-stability"
    (d <= budget.ks_tol)
    (Printf.sprintf "KS distance between run halves %.4f (tol %.3f, %d samples)"
       d (budget.ks_tol) (Array.length samples))

(* Definition 1 validity, including the once-ill-defined round-robin
   case: with 4 of 5 processes alive its time-averaged distribution is
   exactly 1/4. *)
let validity_gates ~seed =
  let alive = [| true; true; true; false; true |] in
  let rng = Stats.Rng.create ~seed:(seed + 6) in
  let v_uni = Sched.Validity.check Sched.Scheduler.uniform ~rng ~alive () in
  let v_rr =
    Sched.Validity.check (Sched.Scheduler.round_robin ()) ~rng ~alive ()
  in
  let v_zipf =
    Sched.Validity.check
      (Sched.Scheduler.zipf ~n:5 ~alpha:1.0)
      ~rng ~alive ()
  in
  [
    gate "validity-uniform"
      (v_uni.well_formed && v_uni.weak_fair && v_uni.no_dead_scheduled)
      (Printf.sprintf "min alive probability %.4f" v_uni.min_alive_probability);
    gate "validity-round-robin"
      (v_rr.well_formed
      && Float.abs (v_rr.min_alive_probability -. 0.25) < 1e-9)
      (Printf.sprintf "time-averaged min probability %.6f (want exactly 0.25)"
         v_rr.min_alive_probability);
    gate "validity-zipf"
      (v_zipf.well_formed && v_zipf.weak_fair && v_zipf.no_dead_scheduled)
      (Printf.sprintf "min alive probability %.4f vs declared theta %.4f"
         v_zipf.min_alive_probability
         (Sched.Scheduler.zipf ~n:5 ~alpha:1.0).theta);
  ]

(* Linearizability smoke over every stock structure, and a power check
   that the same detector catches a seeded bug. *)
let linearizability_gates ~budget ~seed =
  let fuzz_cfg structure n ops =
    Fuzz.fuzz
      ~config:
        {
          Fuzz.default with
          trials = budget.fuzz_trials;
          sched_trials = 2;
          seed;
        }
      ~structure ~n ~ops ()
  in
  let stock_gates =
    List.map
      (fun (name, n, ops) ->
        let r = fuzz_cfg (Scu.Checkable.find name) n ops in
        gate ("linearizable-" ^ name)
          (r.Fuzz.failures = [])
          (Printf.sprintf "%d fuzz trials, %d failures" r.trials
             (List.length r.failures)))
      [
        ("cas-counter", 3, 3);
        ("faa-counter", 3, 3);
        ("treiber", 3, 3);
        ("msqueue", 4, 2);
        ("elimination-stack", 3, 3);
        ("waitfree-counter", 3, 2);
      ]
  in
  let power =
    let r = fuzz_cfg (Scu.Checkable.find "treiber-nocas") 2 2 in
    gate "detector-power"
      (r.Fuzz.failures <> [])
      (Printf.sprintf
         "seeded treiber-nocas bug caught %d times in %d trials (power check)"
         (List.length r.Fuzz.failures)
         r.trials)
  in
  stock_gates @ [ power ]

(* Tentpole cross-validation: three independent legs of the Θ(√n)
   completion-law, each reaching a scale the others cannot.

   Leg 1 (exact): the lumped (a, b) chain solved round by round at
   10⁵ states (smoke) / 5·10⁵ (long) — far past the dense solver's
   ~4000-state ceiling — and pinned three ways: against Gauss–Seidel
   on the CSR chain at n = 256 (itself checked against the dense path
   at n = 64), against the √(πn) asymptote directly, and via
   Richardson extrapolation (the W(n) ≈ √(πn) + c tail makes the
   slope of W against √n converge to √π like 1/n, so the extrapolated
   constant lands within ~1e-3 already at n ≈ 450).

   Leg 2 (simulation): the compiled-executor counter at n = 32,
   against the exact chain latency — the measured leg of Figure 5.

   Leg 3 (mean field): the RK4 fluid limit, evaluated directly at
   n = 10⁶ (cost O(√n), no state space), against its closed form
   √(2n); and the exact/mean-field ratio against the √(π/2)
   fluctuation correction, which ties legs 1 and 3 together. *)
let scaling_gates ~budget ~seed =
  let n1, n2 = budget.sparse_ns in
  let rounds n = (Chains.Scu_chain.System.round_latency ~n).latency in
  let w1 = rounds n1 and w2 = rounds n2 in
  let sqrtn n = sqrt (float_of_int n) in
  let sim_latency =
    let n = 32 in
    let c = Scu.Counter.make_compiled ~n in
    let config = Sim.Executor.Config.(default |> with_seed (seed + 7)) in
    let r =
      Sim.Executor.exec_compiled ~config ~scheduler:Sched.Scheduler.uniform ~n
        ~stop:(Steps budget.steps) c.cspec
    in
    Sim.Metrics.mean_system_latency r.metrics
  in
  [
    rel_gate "sparse-vs-dense-latency"
      ~got:(Chains.Scu_chain.System.sparse_latency ~n:64 ())
      ~want:(Chains.Predict.exact_scan_validate_latency ~n:64)
      ~tol:1e-9;
    rel_gate "rounds-vs-sparse-latency" ~got:(rounds 256)
      ~want:(Chains.Scu_chain.System.sparse_latency ~n:256 ())
      ~tol:1e-9;
    rel_gate
      (Printf.sprintf "sparse-at-scale (n=%d, %d states)" n2
         (((n2 + 1) * (n2 + 2) / 2) - 1))
      ~got:w2
      ~want:(Chains.Predict.asymptotic_scan_validate_latency ~n:n2)
      ~tol:0.025;
    rel_gate "sqrt-pi-asymptote (Richardson)"
      ~got:((w2 -. w1) /. (sqrtn n2 -. sqrtn n1))
      ~want:(sqrt Float.pi) ~tol:5e-3;
    rel_gate "sim-leg-sqrtn (n=32 compiled)" ~got:sim_latency
      ~want:(Chains.Predict.exact_scan_validate_latency ~n:32)
      ~tol:budget.rel_tol;
    rel_gate "meanfield-rk4 (n=1e6)"
      ~got:(Chains.Meanfield.latency ~n:1_000_000 ())
      ~want:(Chains.Predict.meanfield_scan_validate_latency ~n:1_000_000)
      ~tol:1e-6;
    rel_gate "fluctuation-correction sqrt(pi/2)"
      ~got:(w2 /. Chains.Predict.meanfield_scan_validate_latency ~n:n2)
      ~want:Chains.Predict.fluctuation_correction ~tol:0.025;
  ]

let run ?(long_budget = false) ~seed () =
  let budget = if long_budget then long else smoke in
  let gates =
    counter_gates ~budget ~seed
    @ [ parallel_gate ~budget ~seed; ballsbins_gate ~budget ~seed ]
    @ chi2_gates ~budget ~seed
    @ [ ks_gate ~budget ~seed ]
    @ validity_gates ~seed
    @ linearizability_gates ~budget ~seed
    @ scaling_gates ~budget ~seed
  in
  { gates; passed = List.for_all (fun (g : gate) -> g.passed) gates }
