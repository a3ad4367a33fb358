(* Tests for the exact paper chains: ergodicity (Lemma 3), the lifting
   results (Lemmas 5, 10, 13), fiber symmetry (Lemma 6), the fairness
   consequence W_i = n W (Lemmas 7, 14), parallel-code latency (Lemma
   11), the augmented-CAS return time and Z recurrence (Lemma 12), and
   the Ramanujan asymptotics (Corollary 3). *)

open Core

let check_close ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %.9g, got %.9g)" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. (1. +. Float.abs expected))

(* -- SCU scan-validate chains (§6.1) -------------------------------- *)

let test_scu_sizes () =
  let ind = Chains.Scu_chain.Individual.make ~n:3 in
  Alcotest.(check int) "3^3 - 1 states" 26 ind.chain.size;
  let sys = Chains.Scu_chain.System.make ~n:3 in
  (* (n+1)(n+2)/2 - 1 = 9 for n = 3. *)
  Alcotest.(check int) "system states" 9 sys.chain.size

let test_scu_chains_valid () =
  List.iter
    (fun n ->
      let ind = Chains.Scu_chain.Individual.make ~n in
      (match Markov.Chain.validate ind.chain with
      | Ok () -> ()
      | Error e -> Alcotest.failf "individual n=%d: %s" n e);
      let sys = Chains.Scu_chain.System.make ~n in
      match Markov.Chain.validate sys.chain with
      | Ok () -> ()
      | Error e -> Alcotest.failf "system n=%d: %s" n e)
    [ 1; 2; 3; 4; 5 ]

let test_scu_ergodic_lemma3 () =
  (* Reproduction finding: Lemma 3 claims both chains are ergodic, but
     they are in fact *periodic with period 2* — every step changes
     exactly one process's phase, flipping the parity of
     #CCAS + #OldCAS (equivalently, a changes by ±1 in the system
     chain), and no state has a self-loop.  What the paper actually
     uses — irreducibility, hence a unique stationary distribution
     (Theorem 1) and long-run averages — does hold, so every
     quantitative result stands.  We assert the correct facts. *)
  List.iter
    (fun n ->
      let ind = Chains.Scu_chain.Individual.make ~n in
      Alcotest.(check bool)
        (Printf.sprintf "individual n=%d irreducible" n)
        true
        (Markov.Ergodic.strongly_connected ind.chain);
      Alcotest.(check int)
        (Printf.sprintf "individual n=%d period" n)
        2
        (Markov.Ergodic.period ind.chain);
      let sys = Chains.Scu_chain.System.make ~n in
      Alcotest.(check bool)
        (Printf.sprintf "system n=%d irreducible" n)
        true
        (Markov.Ergodic.strongly_connected sys.chain);
      Alcotest.(check int)
        (Printf.sprintf "system n=%d period" n)
        2
        (Markov.Ergodic.period sys.chain))
    [ 2; 3; 4 ]

let test_scu_lifting_lemma5 () =
  (* Lemma 5: the system chain is a lifting of the individual chain,
     via the Definition 2 map. *)
  List.iter
    (fun n ->
      let ind = Chains.Scu_chain.Individual.make ~n in
      let sys = Chains.Scu_chain.System.make ~n in
      let f = Chains.Scu_chain.lift ind sys in
      let report = Markov.Lifting.verify ~base:sys.chain ~lifted:ind.chain ~f () in
      Alcotest.(check bool)
        (Printf.sprintf "flow homomorphism n=%d (err %.2e)" n report.max_flow_error)
        true (report.max_flow_error < 1e-9);
      Alcotest.(check bool)
        (Printf.sprintf "pi aggregation n=%d (Lemma 4)" n)
        true (report.max_pi_error < 1e-9))
    [ 2; 3; 4; 5 ]

let test_scu_fiber_symmetry_lemma6 () =
  List.iter
    (fun n ->
      let ind = Chains.Scu_chain.Individual.make ~n in
      let sys = Chains.Scu_chain.System.make ~n in
      let pi = Markov.Stationary.compute ind.chain in
      Alcotest.(check bool)
        (Printf.sprintf "symmetric fibers n=%d" n)
        true
        (Markov.Lifting.fiber_symmetric ~lifted:ind.chain
           ~f:(Chains.Scu_chain.lift ind sys) ~pi ()))
    [ 2; 3; 4 ]

let test_scu_figure1_two_process () =
  (* Figure 1: for n=2, check a few hand-derived facts.  States of the
     system chain: (2,0),(1,0),(1,1),(0,1),(0,0); total 5 states. *)
  let sys = Chains.Scu_chain.System.make ~n:2 in
  Alcotest.(check int) "5 system states" 5 sys.chain.size;
  (* From (0,0) — both about to CAS with the current value — one wins
     and the other goes stale: -> (1,1) with probability 1. *)
  let from00 = sys.chain.row (sys.encode ~a:0 ~b:0) in
  Alcotest.(check int) "one outgoing edge" 1 (List.length from00);
  (match from00 with
  | [ (target, p) ] ->
      Alcotest.(check int) "goes to (1,1)" (sys.encode ~a:1 ~b:1) target;
      check_close "prob 1" 1. p
  | _ -> Alcotest.fail "unexpected structure");
  (* From (1,1): the Read process steps -> (0,1) w.p. 1/2; the OldCAS
     process steps -> (2,0) w.p. 1/2. *)
  let from11 = List.sort compare (sys.chain.row (sys.encode ~a:1 ~b:1)) in
  let expected =
    List.sort compare
      [ (sys.encode ~a:0 ~b:1, 0.5); (sys.encode ~a:2 ~b:0, 0.5) ]
  in
  Alcotest.(check bool) "edges from (1,1)" true (from11 = expected)

let test_scu_individual_latency_lemma7 () =
  (* W_i = n * W, derived two ways: from the individual chain's
     per-process success rate and from the system chain. *)
  List.iter
    (fun n ->
      let ind = Chains.Scu_chain.Individual.make ~n in
      let pi = Markov.Stationary.compute ind.chain in
      let rate_p0 =
        Markov.Stationary.success_rate ind.chain ~pi
          ~weight:(Chains.Scu_chain.Individual.success_weight ind ~proc:0)
      in
      let w_i = 1. /. rate_p0 in
      let w = Chains.Scu_chain.System.system_latency ~n in
      check_close ~tol:1e-7 (Printf.sprintf "W_0 = nW at n=%d" n) (float_of_int n *. w) w_i)
    [ 2; 3; 4; 5 ]

let test_scu_latency_sqrt_growth () =
  (* Theorem 5: W = Theta(sqrt n).  Fit the exact chain values for a
     range of n; the exponent should be close to 1/2 (it approaches
     1/2 from above as n grows; allow slack at these small n). *)
  let ns = [ 4; 9; 16; 25; 36; 49; 64 ] in
  let pts =
    List.map
      (fun n -> (float_of_int n, Chains.Scu_chain.System.system_latency ~n))
      ns
  in
  let fit = Stats.Regression.power_law pts in
  Alcotest.(check bool)
    (Printf.sprintf "exponent ~0.5 (got %.3f)" fit.slope)
    true
    (fit.slope > 0.40 && fit.slope < 0.60);
  (* And the constant is modest: W <= 2 sqrt(n) for these n. *)
  List.iter
    (fun (n, w) ->
      Alcotest.(check bool)
        (Printf.sprintf "W(%g)=%.3f <= 2 sqrt n" n w)
        true
        (w <= 2. *. sqrt n))
    pts

let test_scu_n1_exact () =
  (* Single process: read, CAS, success — W = 2 exactly. *)
  check_close "W(1) = 2" 2. (Chains.Scu_chain.System.system_latency ~n:1)

(* -- Parallel code chains (§6.2) ------------------------------------ *)

let test_parallel_sizes () =
  let ind = Chains.Parallel_chain.Individual.make ~n:3 ~q:4 in
  Alcotest.(check int) "q^n states" 64 ind.chain.size;
  let sys = Chains.Parallel_chain.System.make ~n:3 ~q:4 in
  (* C(3+3,3) = 20. *)
  Alcotest.(check int) "compositions" 20 sys.chain.size

let test_parallel_individual_uniform () =
  (* §6.2: the individual chain's stationary distribution is uniform. *)
  let ind = Chains.Parallel_chain.Individual.make ~n:3 ~q:3 in
  let pi = Markov.Stationary.compute ind.chain in
  Array.iter (fun p -> check_close ~tol:1e-7 "uniform" (1. /. 27.) p) pi

let test_parallel_periodicity () =
  (* Same reproduction finding as for the SCU chains: §6.2 calls both
     parallel-code chains ergodic, but each step advances one counter
     by one, so the total counter sum mod q is a rotating invariant:
     the chains are irreducible with period exactly q. *)
  List.iter
    (fun (n, q) ->
      let ind = Chains.Parallel_chain.Individual.make ~n ~q in
      Alcotest.(check bool) "individual irreducible" true
        (Markov.Ergodic.strongly_connected ind.chain);
      Alcotest.(check int)
        (Printf.sprintf "individual period = q (n=%d q=%d)" n q)
        q
        (Markov.Ergodic.period ind.chain);
      let sys = Chains.Parallel_chain.System.make ~n ~q in
      Alcotest.(check int)
        (Printf.sprintf "system period = q (n=%d q=%d)" n q)
        q
        (Markov.Ergodic.period sys.chain))
    [ (2, 2); (3, 3); (2, 5) ]

let test_parallel_lifting_lemma10 () =
  List.iter
    (fun (n, q) ->
      let ind = Chains.Parallel_chain.Individual.make ~n ~q in
      let sys = Chains.Parallel_chain.System.make ~n ~q in
      let f = Chains.Parallel_chain.lift ind sys in
      Alcotest.(check bool)
        (Printf.sprintf "lifting holds n=%d q=%d" n q)
        true
        (Markov.Lifting.is_lifting ~base:sys.chain ~lifted:ind.chain ~f ()))
    [ (2, 2); (3, 3); (2, 5); (4, 2) ]

let test_parallel_latency_lemma11 () =
  (* System latency exactly q; individual latency exactly nq. *)
  List.iter
    (fun (n, q) ->
      check_close ~tol:1e-7
        (Printf.sprintf "W = q at n=%d q=%d" n q)
        (float_of_int q)
        (Chains.Parallel_chain.System.system_latency ~n ~q);
      let ind = Chains.Parallel_chain.Individual.make ~n ~q in
      let pi = Markov.Stationary.compute ind.chain in
      let rate =
        Markov.Stationary.success_rate ind.chain ~pi
          ~weight:(Chains.Parallel_chain.Individual.completion_weight ind ~proc:0)
      in
      check_close ~tol:1e-7
        (Printf.sprintf "W_i = nq at n=%d q=%d" n q)
        (float_of_int (n * q))
        (1. /. rate))
    [ (2, 3); (3, 2); (4, 4); (1, 5) ]

(* -- Augmented-CAS counter chains (§7) ------------------------------ *)

let test_counter_sizes () =
  let ind = Chains.Counter_chain.Individual.make ~n:4 in
  Alcotest.(check int) "2^n - 1 states" 15 ind.chain.size;
  let glob = Chains.Counter_chain.Global.make ~n:4 in
  Alcotest.(check int) "n states" 4 glob.chain.size

let test_counter_ergodic_lemma13 () =
  List.iter
    (fun n ->
      let ind = Chains.Counter_chain.Individual.make ~n in
      Alcotest.(check bool) "individual ergodic" true (Markov.Ergodic.is_ergodic ind.chain);
      let glob = Chains.Counter_chain.Global.make ~n in
      Alcotest.(check bool) "global ergodic" true (Markov.Ergodic.is_ergodic glob.chain))
    [ 2; 3; 5 ]

let test_counter_lifting_lemma13 () =
  List.iter
    (fun n ->
      let ind = Chains.Counter_chain.Individual.make ~n in
      let glob = Chains.Counter_chain.Global.make ~n in
      Alcotest.(check bool)
        (Printf.sprintf "lifting n=%d" n)
        true
        (Markov.Lifting.is_lifting ~base:glob.chain ~lifted:ind.chain
           ~f:(Chains.Counter_chain.lift ind) ()))
    [ 2; 3; 4; 5; 6 ]

let test_counter_fairness_lemma14 () =
  (* W_i = n W for the counter chains. *)
  List.iter
    (fun n ->
      let ind = Chains.Counter_chain.Individual.make ~n in
      let pi = Markov.Stationary.compute ind.chain in
      let rate0 =
        Markov.Stationary.success_rate ind.chain ~pi
          ~weight:(Chains.Counter_chain.Individual.win_weight ind ~proc:0)
      in
      let w = Chains.Counter_chain.Global.return_time_v1 ~n in
      check_close ~tol:1e-6
        (Printf.sprintf "W_i = nW at n=%d" n)
        (float_of_int n *. w)
        (1. /. rate0))
    [ 2; 3; 4; 5 ]

let test_counter_z_recurrence_lemma12 () =
  (* Z(n-1) from the paper's recurrence equals the chain's return time
     for v1, and is bounded by 2 sqrt n. *)
  List.iter
    (fun n ->
      let z = Chains.Counter_chain.z_recurrence ~n in
      let w = Chains.Counter_chain.Global.return_time_v1 ~n in
      check_close ~tol:1e-6 (Printf.sprintf "Z(n-1) = W at n=%d" n) z.(n - 1) w;
      Alcotest.(check bool)
        (Printf.sprintf "W <= 2 sqrt n at n=%d" n)
        true
        (w <= 2. *. sqrt (float_of_int n)))
    [ 1; 2; 3; 5; 10; 50; 200 ]

let test_counter_ramanujan_corollary3 () =
  (* Z(n-1) = sqrt(pi n/2) + 2/3 + O(1/sqrt n) (Flajolet et al.'s
     Q(n) = sqrt(pi n/2) - 1/3 + ..., and Z = Q + 1): the two-term
     expansion matches tightly, and the leading ratio -> 1. *)
  List.iter
    (fun n ->
      let z = (Chains.Counter_chain.z_recurrence ~n).(n - 1) in
      let refined = Chains.Ramanujan.asymptotic_refined n in
      Alcotest.(check bool)
        (Printf.sprintf "two-term expansion at n=%d (z=%.4f vs %.4f)" n z refined)
        true
        (Float.abs (z -. refined) < 0.05);
      let ratio = z /. Chains.Ramanujan.asymptotic n in
      Alcotest.(check bool)
        (Printf.sprintf "leading ratio at n=%d is %.4f" n ratio)
        true
        (Float.abs (ratio -. 1.) < 7. /. sqrt (float_of_int n)))
    [ 10; 100; 1000; 10000 ]

let test_ramanujan_q_small_values () =
  (* Knuth's Q: Q(1) = 1; Q(2) = 1 + 1/2; Q(3) = 1 + 2/3 + 2/9. *)
  check_close "Q(1)" 1. (Chains.Ramanujan.q 1);
  check_close "Q(2)" 1.5 (Chains.Ramanujan.q 2);
  check_close "Q(3)" (17. /. 9.) (Chains.Ramanujan.q 3);
  check_close "birthday(2)" 2.5 (Chains.Ramanujan.birthday_expectation 2);
  check_close "birthday = z + 1" (Chains.Ramanujan.z_value 7 +. 1.)
    (Chains.Ramanujan.birthday_expectation 7)

let test_ramanujan_matches_z () =
  (* Z(n-1) = Q(n) exactly: the chain counts the draws after the first
     (the initial configuration is the first "draw"). *)
  List.iter
    (fun n ->
      let z = (Chains.Counter_chain.z_recurrence ~n).(n - 1) in
      check_close ~tol:1e-9
        (Printf.sprintf "Q(%d) = Z(n-1)" n)
        (Chains.Ramanujan.z_value n)
        z)
    [ 2; 3; 10; 100 ]

(* -- Sparse system chain + mean field (scaling layer) ---------------- *)

let test_scu_sparse_matches_dense () =
  (* The CSR construction must be the same chain as [make], state for
     state: identical size, identical rows under the arithmetic index,
     identical stationary vector. *)
  List.iter
    (fun n ->
      let sys = Chains.Scu_chain.System.make ~n in
      let sp = Chains.Scu_chain.System.sparse ~n in
      Alcotest.(check int) "size" sys.chain.size sp.Markov.Sparse.size;
      for i = 0 to sys.chain.size - 1 do
        let dense_row = List.sort compare (sys.chain.row i) in
        let sparse_row = List.sort compare (Markov.Sparse.row sp i) in
        Alcotest.(check bool)
          (Printf.sprintf "row %d identical (n=%d)" i n)
          true
          (dense_row = sparse_row)
      done;
      let pi_dense = Markov.Stationary.compute sys.chain in
      let pi_sparse = Markov.Sparse.stationary sp in
      Array.iteri
        (fun i p -> check_close ~tol:1e-8 (Printf.sprintf "pi(%d)" i) p pi_sparse.(i))
        pi_dense)
    [ 1; 2; 3; 5; 8 ]

let test_scu_index_roundtrip () =
  let n = 7 in
  let size = ((n + 1) * (n + 2) / 2) - 1 in
  for i = 0 to size - 1 do
    let a, b = Chains.Scu_chain.System.decode_index ~n i in
    Alcotest.(check int) "roundtrip" i (Chains.Scu_chain.System.index ~n ~a ~b);
    Alcotest.(check bool) "in simplex" true
      (a >= 0 && b >= 0 && a + b <= n && not (a = 0 && b = n))
  done

let test_scu_sparse_latency_agrees () =
  List.iter
    (fun n ->
      check_close ~tol:1e-9
        (Printf.sprintf "sparse W = dense W at n=%d" n)
        (Chains.Scu_chain.System.system_latency ~n)
        (Chains.Scu_chain.System.sparse_latency ~n ()))
    [ 1; 2; 4; 8; 16 ];
  (* The round-by-round solve, with its certificate. *)
  List.iter
    (fun n ->
      let dense = Chains.Scu_chain.System.system_latency ~n in
      let r = Chains.Scu_chain.System.round_latency ~n in
      Alcotest.(check bool)
        (Printf.sprintf "round W = dense W at n=%d (dense %.17g, round %.17g)" n
           dense r.latency)
        true
        (Float.abs (r.latency -. dense) <= 1e-11 *. dense);
      Alcotest.(check bool)
        (Printf.sprintf "certified at n=%d (%d sweeps, residual %.3g)" n
           r.iterations r.residual)
        true
        (r.iterations >= 1 && r.residual <= 1e-14))
    [ 1; 2; 3; 5; 8; 16; 64 ];
  Alcotest.(check (float 0.)) "W(1) = 2 exactly" 2.
    (Chains.Scu_chain.System.round_latency ~n:1).latency

let test_scu_lump_reproduces_system () =
  (* Lemmas 4-6 executed: lumping the 3ⁿ−1-state individual chain
     through the (a, b) count map yields exactly the system chain. *)
  List.iter
    (fun n ->
      let ind = Chains.Scu_chain.Individual.make ~n in
      let sys = Chains.Scu_chain.System.make ~n in
      let lumped =
        Markov.Lifting.lump ~lifted:ind.chain
          ~f:(Chains.Scu_chain.lift ind sys)
          ~base_size:sys.chain.size ()
      in
      for v = 0 to sys.chain.size - 1 do
        List.iter2
          (fun (j, p) (j', p') ->
            Alcotest.(check int) "target" j j';
            check_close ~tol:1e-9 "prob" p p')
          (List.sort compare (sys.chain.row v))
          (List.sort compare (lumped.Markov.Chain.row v))
      done)
    [ 2; 3; 4 ]

let test_meanfield_fixed_point () =
  (* The RK4 steady state must land on the analytic fixed point
     a* = n/2, c* = sqrt(n/2), and the drift must vanish there. *)
  List.iter
    (fun n ->
      let fp = Chains.Meanfield.fixed_point ~n in
      let d = Chains.Meanfield.drift ~n:(float_of_int n) fp in
      check_close ~tol:1e-9 "zero drift a" 0. d.Chains.Meanfield.a;
      check_close ~tol:1e-9 "zero drift b" 0. d.Chains.Meanfield.b;
      let s = Chains.Meanfield.steady_state ~n () in
      check_close ~tol:1e-9
        (Printf.sprintf "a* at n=%d" n)
        fp.Chains.Meanfield.a s.Chains.Meanfield.a;
      check_close ~tol:1e-9
        (Printf.sprintf "b* at n=%d" n)
        fp.Chains.Meanfield.b s.Chains.Meanfield.b)
    [ 4; 64; 1024; 100_000 ]

let test_meanfield_latency_closed_form () =
  List.iter
    (fun n ->
      check_close ~tol:1e-9
        (Printf.sprintf "W_mf = sqrt(2n) at n=%d" n)
        (Chains.Meanfield.latency_closed_form ~n)
        (Chains.Meanfield.latency ~n ());
      check_close ~tol:1e-12 "predict agrees"
        (Chains.Meanfield.latency_closed_form ~n)
        (Chains.Predict.meanfield_scan_validate_latency ~n))
    [ 16; 1000; 1_000_000 ]

let test_fluctuation_correction_ratio () =
  (* W_exact / W_mf decreases toward sqrt(pi/2) ~ 1.2533 from above. *)
  let ratio n =
    Chains.Scu_chain.System.system_latency ~n
    /. Chains.Meanfield.latency_closed_form ~n
  in
  let r16 = ratio 16 and r64 = ratio 64 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone toward sqrt(pi/2) (%.4f > %.4f)" r16 r64)
    true
    (r16 > r64 && r64 > Chains.Predict.fluctuation_correction)

(* -- Predictions ----------------------------------------------------- *)

let test_predict_shapes () =
  check_close "sqrt rate" 0.25 (Chains.Predict.completion_rate_sqrt 16.);
  check_close "worst case" 0.0625 (Chains.Predict.completion_rate_worst_case 16.);
  check_close "scu latency" (3. +. (2. *. 2. *. 4.))
    (Chains.Predict.scu_system_latency ~q:3 ~s:2 ~alpha:2. 16.);
  check_close "individual = n * system" (16. *. (3. +. 16.))
    (Chains.Predict.scu_individual_latency ~q:3 ~s:1 ~alpha:4. 16.)

let test_predict_fitted_alpha () =
  let alpha = Chains.Predict.fitted_alpha ~ns:[ 4; 9; 16; 25; 36 ] in
  Alcotest.(check bool)
    (Printf.sprintf "alpha in a sane band (got %.3f)" alpha)
    true
    (alpha > 0.8 && alpha < 2.0)

(* -- Property tests ---------------------------------------------------- *)

let prop name ?(count = 100) gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let prop_scu_encode_roundtrip =
  prop "scu individual encode/decode roundtrip"
    QCheck2.Gen.(pair (int_range 1 6) (int_range 0 1000))
    (fun (n, raw) ->
      let ind = Chains.Scu_chain.Individual.make ~n in
      let i = raw mod ind.chain.size in
      ind.encode (ind.decode i) = i)

let prop_counter_encode_roundtrip =
  prop "counter individual encode/decode roundtrip"
    QCheck2.Gen.(pair (int_range 1 10) (int_range 0 10_000))
    (fun (n, raw) ->
      let ind = Chains.Counter_chain.Individual.make ~n in
      let i = raw mod ind.chain.size in
      ind.encode (ind.decode i) = i)

let prop_scu_weights_consistent =
  (* The per-process success weights must sum to the global success
     weight in every state — Lemma 7's bookkeeping. *)
  prop "per-process success weights sum to global" ~count:30
    QCheck2.Gen.(pair (int_range 1 5) (int_range 0 1000))
    (fun (n, raw) ->
      let ind = Chains.Scu_chain.Individual.make ~n in
      let i = raw mod ind.chain.size in
      let total =
        List.fold_left
          (fun acc proc -> acc +. Chains.Scu_chain.Individual.success_weight ind ~proc i)
          0.
          (List.init n (fun p -> p))
      in
      Float.abs (total -. Chains.Scu_chain.Individual.any_success_weight ind i) < 1e-12)

let prop_parallel_occupancy_sums =
  prop "parallel system states sum to n" ~count:30
    QCheck2.Gen.(tup3 (int_range 1 4) (int_range 1 4) (int_range 0 1000))
    (fun (n, q, raw) ->
      let sys = Chains.Parallel_chain.System.make ~n ~q in
      let i = raw mod sys.chain.size in
      Array.fold_left ( + ) 0 (sys.decode i) = n)

let () =
  Alcotest.run "chains"
    [
      ( "scu (§6.1)",
        [
          Alcotest.test_case "state counts" `Quick test_scu_sizes;
          Alcotest.test_case "rows are distributions" `Quick test_scu_chains_valid;
          Alcotest.test_case "ergodic (Lemma 3)" `Quick test_scu_ergodic_lemma3;
          Alcotest.test_case "lifting (Lemmas 4-5)" `Quick test_scu_lifting_lemma5;
          Alcotest.test_case "fiber symmetry (Lemma 6)" `Quick
            test_scu_fiber_symmetry_lemma6;
          Alcotest.test_case "Figure 1 hand check" `Quick test_scu_figure1_two_process;
          Alcotest.test_case "W_i = nW (Lemma 7)" `Quick test_scu_individual_latency_lemma7;
          Alcotest.test_case "W ~ sqrt n (Theorem 5)" `Slow test_scu_latency_sqrt_growth;
          Alcotest.test_case "n=1 exact" `Quick test_scu_n1_exact;
        ] );
      ( "parallel (§6.2)",
        [
          Alcotest.test_case "state counts" `Quick test_parallel_sizes;
          Alcotest.test_case "uniform stationary" `Quick test_parallel_individual_uniform;
          Alcotest.test_case "period = q (Lemma 3 caveat)" `Quick test_parallel_periodicity;
          Alcotest.test_case "lifting (Lemma 10)" `Quick test_parallel_lifting_lemma10;
          Alcotest.test_case "W=q, W_i=nq (Lemma 11)" `Quick test_parallel_latency_lemma11;
        ] );
      ( "counter (§7)",
        [
          Alcotest.test_case "state counts" `Quick test_counter_sizes;
          Alcotest.test_case "ergodic (Lemma 13)" `Quick test_counter_ergodic_lemma13;
          Alcotest.test_case "lifting (Lemma 13)" `Quick test_counter_lifting_lemma13;
          Alcotest.test_case "W_i = nW (Lemma 14)" `Quick test_counter_fairness_lemma14;
          Alcotest.test_case "Z recurrence = W <= 2 sqrt n (Lemma 12)" `Quick
            test_counter_z_recurrence_lemma12;
          Alcotest.test_case "Ramanujan asymptotics (Cor 3)" `Quick
            test_counter_ramanujan_corollary3;
          Alcotest.test_case "Q small values" `Quick test_ramanujan_q_small_values;
          Alcotest.test_case "Q+1 = Z(n-1)" `Quick test_ramanujan_matches_z;
        ] );
      ( "scaling (sparse + mean field)",
        [
          Alcotest.test_case "sparse = dense chain" `Quick
            test_scu_sparse_matches_dense;
          Alcotest.test_case "arithmetic index roundtrip" `Quick
            test_scu_index_roundtrip;
          Alcotest.test_case "sparse latency = dense latency" `Quick
            test_scu_sparse_latency_agrees;
          Alcotest.test_case "lump individual -> system (Lemmas 4-6)" `Quick
            test_scu_lump_reproduces_system;
          Alcotest.test_case "mean-field fixed point" `Quick
            test_meanfield_fixed_point;
          Alcotest.test_case "mean-field latency closed form" `Quick
            test_meanfield_latency_closed_form;
          Alcotest.test_case "fluctuation correction sqrt(pi/2)" `Quick
            test_fluctuation_correction_ratio;
        ] );
      ( "predictions",
        [
          Alcotest.test_case "closed forms" `Quick test_predict_shapes;
          Alcotest.test_case "fitted alpha" `Quick test_predict_fitted_alpha;
        ] );
      ( "properties",
        [
          prop_scu_encode_roundtrip;
          prop_counter_encode_roundtrip;
          prop_scu_weights_consistent;
          prop_parallel_occupancy_sums;
        ] );
    ]
