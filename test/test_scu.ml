(* Tests for the SCU algorithm library: functional correctness of
   every simulated data structure (counter permutation property, stack
   and queue conservation, RCU snapshot consistency, universal
   construction vs sequential witness), progress properties (lock-
   freedom under adversaries, wait-freedom of the helping counter),
   and the Lemma 2 starvation behaviour of the unbounded algorithm. *)

open Core

let uniform = Sched.Scheduler.uniform

let run ?seed ?crash_plan ?max_steps ~n ~stop spec =
  let open Sim.Executor.Config in
  let config =
    default
    |> with_seed (Option.value seed ~default:default.seed)
    |> with_faults
         (match crash_plan with
         | None -> Sched.Fault_plan.none
         | Some p -> Sched.Fault_plan.of_crash_events p)
    |> with_max_steps (Option.value max_steps ~default:default.max_steps)
  in
  Sim.Executor.exec ~config ~scheduler:uniform ~n ~stop spec

(* -- CAS counter ---------------------------------------------------- *)

let test_counter_value_equals_completions () =
  let c = Scu.Counter.make ~n:4 in
  let r = run ~n:4 ~stop:(Completions 500) c.spec in
  Alcotest.(check int) "register = completions"
    (Sim.Metrics.total_completions r.metrics)
    (Scu.Counter.value c c.spec.memory)

let test_counter_values_form_permutation () =
  let n = 5 and ops = 40 in
  let c = Scu.Counter.make_logged ~n ~ops_per_process:ops in
  let r = run ~n ~stop:(Steps 10_000_000) c.spec in
  Alcotest.(check bool) "all processes finished" true r.stopped_early;
  let all =
    List.concat_map (fun i -> Scu.Counter.logged_values c c.spec.memory i)
      (List.init n (fun i -> i))
  in
  let sorted = List.sort compare all in
  Alcotest.(check (list int)) "fetch-and-inc returns exactly 0..k-1"
    (List.init (n * ops) (fun i -> i))
    sorted

let test_counter_per_process_monotone () =
  let n = 3 and ops = 50 in
  let c = Scu.Counter.make_logged ~n ~ops_per_process:ops in
  ignore (run ~n ~stop:(Steps 10_000_000) c.spec);
  for i = 0 to n - 1 do
    let vs = Scu.Counter.logged_values c c.spec.memory i in
    let rec monotone = function
      | a :: (b :: _ as rest) -> a < b && monotone rest
      | _ -> true
    in
    Alcotest.(check bool)
      (Printf.sprintf "proc %d obtains increasing values" i)
      true (monotone vs)
  done

let test_counter_lockfree_under_starver () =
  (* Minimal progress must survive a starvation adversary: the starved
     process never completes, everyone else does. *)
  let n = 4 in
  let c = Scu.Counter.make ~n in
  let r =
    Sim.Executor.exec
      ~scheduler:(Sched.Scheduler.starver ~victim:0)
      ~n ~stop:(Steps 10_000) c.spec
  in
  Alcotest.(check int) "victim starved" 0 (Sim.Metrics.completions_of r.metrics 0);
  Alcotest.(check bool) "system progressed" true
    (Sim.Metrics.total_completions r.metrics > 1_000)

let test_counter_crash_does_not_block () =
  (* Lock-freedom under crashes: kill 3 of 4 processes mid-run; the
     survivor continues to complete operations. *)
  let n = 4 in
  let c = Scu.Counter.make ~n in
  let crash_plan = [ (100, 0); (200, 1); (300, 2) ] in
  let r = run ~crash_plan ~n ~stop:(Steps 20_000) c.spec in
  Alcotest.(check bool) "survivor progressed" true
    (Sim.Metrics.completions_of r.metrics 3 > 5_000)

(* -- Augmented-CAS counter (Algorithm 5) ---------------------------- *)

let test_counter_aug_counts () =
  let c = Scu.Counter_aug.make ~n:6 in
  let r = run ~n:6 ~stop:(Completions 2_000) c.spec in
  Alcotest.(check int) "register = completions"
    (Sim.Metrics.total_completions r.metrics)
    (Scu.Counter_aug.value c c.spec.memory)

let test_counter_aug_solo_alternates () =
  (* A single process never fails: every operation is exactly one
     step, so system latency is 1. *)
  let c = Scu.Counter_aug.make ~n:1 in
  let r = run ~n:1 ~stop:(Steps 1_000) c.spec in
  Alcotest.(check int) "one op per step" 1_000 (Sim.Metrics.total_completions r.metrics)

(* -- SCU(q, s) pattern ---------------------------------------------- *)

let test_scu_pattern_proposals_unique () =
  let seen = Hashtbl.create 64 in
  for id = 0 to 3 do
    for op = 0 to 9 do
      let v = Scu.Scu_pattern.proposal ~n:4 ~id ~op_index:op in
      Alcotest.(check bool) "positive" true (v > 0);
      Alcotest.(check bool) "unique" false (Hashtbl.mem seen v);
      Hashtbl.replace seen v ()
    done
  done

let test_scu_pattern_progress () =
  let p = Scu.Scu_pattern.make ~n:4 ~q:3 ~s:2 in
  let r = run ~n:4 ~stop:(Steps 50_000) p.spec in
  Alcotest.(check bool) "completes operations" true
    (Sim.Metrics.total_completions r.metrics > 1_000);
  (* The decision register holds the winner's latest proposal. *)
  Alcotest.(check bool) "R was written" true
    (Sim.Memory.get p.spec.memory p.decision_register > 0)

let test_scu_pattern_q0_s1_matches_counter_cost () =
  (* SCU(0,1) and the CAS counter have identical step structure, so
     their system latencies agree closely under the same scheduler. *)
  let n = 8 in
  let p = Scu.Scu_pattern.make ~n ~q:0 ~s:1 in
  let c = Scu.Counter.make ~n in
  let rp = run ~seed:5 ~n ~stop:(Steps 400_000) p.spec in
  let rc = run ~seed:6 ~n ~stop:(Steps 400_000) c.spec in
  let wp = Sim.Metrics.mean_system_latency rp.metrics in
  let wc = Sim.Metrics.mean_system_latency rc.metrics in
  Alcotest.(check bool)
    (Printf.sprintf "latencies agree (%.3f vs %.3f)" wp wc)
    true
    (Float.abs (wp -. wc) /. wc < 0.05)

let test_scu_pattern_invalid_args () =
  Alcotest.check_raises "s = 0" (Invalid_argument "Scu_pattern.make: s must be >= 1")
    (fun () -> ignore (Scu.Scu_pattern.make ~n:2 ~q:0 ~s:0));
  Alcotest.check_raises "q < 0" (Invalid_argument "Scu_pattern.make: q must be >= 0")
    (fun () -> ignore (Scu.Scu_pattern.make ~n:2 ~q:(-1) ~s:1))

(* -- Parallel code (Algorithm 4) ------------------------------------ *)

let test_parallel_code_exact_rate () =
  (* Lemma 11 in the simulator: with q steps per op, completions =
     steps / q exactly in aggregate (up to per-process remainders). *)
  let n = 5 and q = 4 in
  let p = Scu.Parallel_code.make ~n ~q in
  let r = run ~n ~stop:(Steps 100_000) p.spec in
  let c = Sim.Metrics.total_completions r.metrics in
  Alcotest.(check bool)
    (Printf.sprintf "completions %d ~ steps/q %d" c (100_000 / q))
    true
    (abs (c - (100_000 / q)) <= n)

(* -- Treiber stack --------------------------------------------------- *)

let multiset_of list =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun v -> Hashtbl.replace tbl v (1 + Option.value (Hashtbl.find_opt tbl v) ~default:0))
    list;
  tbl

let multisets_equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold (fun k v acc -> acc && Hashtbl.find_opt b k = Some v) a true

let test_treiber_conservation () =
  (* pushed = popped (multiset) + remaining contents. *)
  let n = 4 and ops = 100 in
  let s = Scu.Treiber.make_logged ~n ~ops_per_process:ops () in
  let r = run ~n ~stop:(Steps 10_000_000) s.spec in
  Alcotest.(check bool) "finished" true r.stopped_early;
  let ids = List.init n (fun i -> i) in
  let pushed = List.concat_map (fun i -> Scu.Treiber.pushes s s.spec.memory i) ids in
  let popped =
    List.concat_map
      (fun i ->
        List.filter_map
          (function Scu.Treiber.Empty -> None | Popped v -> Some v)
          (Scu.Treiber.pops s s.spec.memory i))
      ids
  in
  let remaining = Scu.Treiber.drain s s.spec.memory in
  Alcotest.(check bool) "conservation" true
    (multisets_equal (multiset_of pushed) (multiset_of (popped @ remaining)));
  (* No value is popped twice. *)
  let sorted = List.sort compare popped in
  let rec no_dup = function
    | a :: (b :: _ as rest) -> a <> b && no_dup rest
    | _ -> true
  in
  Alcotest.(check bool) "pops unique" true (no_dup sorted)

let test_treiber_lifo_sequential () =
  (* With one process the stack is exactly LIFO. *)
  let s = Scu.Treiber.make_logged ~push_ratio:1.0 ~n:1 ~ops_per_process:10 () in
  ignore (run ~n:1 ~stop:(Steps 100_000) s.spec);
  let pushed = Scu.Treiber.pushes s s.spec.memory 0 in
  let contents = Scu.Treiber.drain s s.spec.memory in
  Alcotest.(check (list int)) "drain reverses pushes" (List.rev pushed) contents

let test_treiber_empty_pop () =
  let s = Scu.Treiber.make_logged ~push_ratio:0.0 ~n:2 ~ops_per_process:5 () in
  ignore (run ~n:2 ~stop:(Steps 100_000) s.spec);
  List.iter
    (fun i ->
      List.iter
        (function
          | Scu.Treiber.Empty -> ()
          | Popped v -> Alcotest.failf "popped %d from an empty stack" v)
        (Scu.Treiber.pops s s.spec.memory i))
    [ 0; 1 ]

(* -- Michael-Scott queue --------------------------------------------- *)

let test_msqueue_conservation () =
  let n = 4 and ops = 100 in
  let q = Scu.Msqueue.make_logged ~n ~ops_per_process:ops () in
  let r = run ~n ~stop:(Steps 10_000_000) q.spec in
  Alcotest.(check bool) "finished" true r.stopped_early;
  let ids = List.init n (fun i -> i) in
  let enq = List.concat_map (fun i -> Scu.Msqueue.enqueues q q.spec.memory i) ids in
  let deq =
    List.concat_map
      (fun i ->
        List.filter_map
          (function Scu.Msqueue.Empty -> None | Dequeued v -> Some v)
          (Scu.Msqueue.dequeues q q.spec.memory i))
      ids
  in
  let remaining = Scu.Msqueue.contents q q.spec.memory in
  Alcotest.(check bool) "conservation" true
    (multisets_equal (multiset_of enq) (multiset_of (deq @ remaining)))

let test_msqueue_fifo_sequential () =
  let q = Scu.Msqueue.make_logged ~enqueue_ratio:1.0 ~n:1 ~ops_per_process:8 () in
  ignore (run ~n:1 ~stop:(Steps 100_000) q.spec);
  let enq = Scu.Msqueue.enqueues q q.spec.memory 0 in
  Alcotest.(check (list int)) "FIFO order" enq (Scu.Msqueue.contents q q.spec.memory)

let test_msqueue_per_producer_order () =
  (* MS queue preserves each producer's order: the subsequence of one
     producer's values among all dequeues is increasing (producers
     enqueue increasing values). *)
  let n = 4 and ops = 150 in
  let q = Scu.Msqueue.make_logged ~n ~ops_per_process:ops () in
  ignore (run ~n ~stop:(Steps 10_000_000) q.spec);
  let ids = List.init n (fun i -> i) in
  let deq_all =
    List.concat_map
      (fun i ->
        List.filter_map
          (function Scu.Msqueue.Empty -> None | Dequeued v -> Some v)
          (Scu.Msqueue.dequeues q q.spec.memory i))
      ids
  in
  (* Values are op*n + id + 1, so v mod n identifies the producer...
     shifted by 1: producer = (v - 1) mod n. *)
  List.iter
    (fun producer ->
      let seq = List.filter (fun v -> (v - 1) mod n = producer) deq_all in
      ignore seq)
    ids;
  (* Per-consumer dequeues of a single producer must be increasing. *)
  List.iter
    (fun consumer ->
      let deqs =
        List.filter_map
          (function Scu.Msqueue.Empty -> None | Dequeued v -> Some v)
          (Scu.Msqueue.dequeues q q.spec.memory consumer)
      in
      List.iter
        (fun producer ->
          let mine = List.filter (fun v -> (v - 1) mod n = producer) deqs in
          let rec increasing = function
            | a :: (b :: _ as rest) -> a < b && increasing rest
            | _ -> true
          in
          Alcotest.(check bool) "per-producer order at one consumer" true
            (increasing mine))
        ids)
    ids

(* -- Elimination stack -------------------------------------------------- *)

let test_elimination_happens_under_contention () =
  let n = 16 in
  let s = Scu.Elimination_stack.make ~n () in
  let r = run ~seed:23 ~n ~stop:(Steps 300_000) s.spec in
  Alcotest.(check bool) "operations complete" true
    (Sim.Metrics.total_completions r.metrics > 10_000);
  Alcotest.(check bool) "pairs eliminated" true
    (Scu.Elimination_stack.eliminated_pairs s s.spec.memory > 100)

let test_elimination_values_distinct () =
  let n = 8 in
  let s = Scu.Elimination_stack.make ~push_ratio:0.7 ~n () in
  ignore (run ~seed:24 ~n ~stop:(Steps 200_000) s.spec);
  let contents = Scu.Elimination_stack.drain s s.spec.memory in
  let sorted = List.sort compare contents in
  let rec distinct = function
    | a :: (b :: _ as rest) -> a <> b && distinct rest
    | _ -> true
  in
  Alcotest.(check bool) "drained values distinct" true (distinct sorted);
  List.iter
    (fun v -> Alcotest.(check bool) "values well-formed" true (v > 0))
    contents

let test_elimination_beats_plain_treiber () =
  let n = 32 in
  let w spec = Sim.Metrics.mean_system_latency (run ~seed:25 ~n ~stop:(Steps 400_000) spec).metrics in
  let plain = w (Scu.Treiber.make ~n ()).spec in
  let elim = w (Scu.Elimination_stack.make ~n ()).spec in
  Alcotest.(check bool)
    (Printf.sprintf "elimination helps at n=32 (%.2f < %.2f)" elim plain)
    true (elim < plain)

let test_elimination_validation () =
  Alcotest.check_raises "poll >= 1"
    (Invalid_argument "Elimination_stack.make: poll must be >= 1") (fun () ->
      ignore (Scu.Elimination_stack.make ~poll:0 ~n:2 ()))

(* -- RCU -------------------------------------------------------------- *)

let test_rcu_no_torn_reads () =
  let r = Scu.Rcu.make ~n:6 ~readers:4 ~block_size:8 in
  let res = run ~n:6 ~stop:(Steps 300_000) r.spec in
  Alcotest.(check bool) "no torn snapshot" false (Scu.Rcu.torn r r.spec.memory);
  Alcotest.(check bool) "updates happened" true (Scu.Rcu.generation r r.spec.memory > 100);
  Alcotest.(check bool) "reads happened" true
    (Sim.Metrics.completions_of res.metrics 0 > 1_000)

let test_rcu_readers_wait_free () =
  (* Readers complete even under an adversary that starves one updater
     (readers never contend). *)
  let r = Scu.Rcu.make ~n:3 ~readers:2 ~block_size:4 in
  let res =
    Sim.Executor.exec
      ~scheduler:(Sched.Scheduler.starver ~victim:2)
      ~n:3 ~stop:(Steps 20_000) r.spec
  in
  Alcotest.(check bool) "reader 0 progressed" true
    (Sim.Metrics.completions_of res.metrics 0 > 500);
  Alcotest.(check int) "starved updater" 0 (Sim.Metrics.completions_of res.metrics 2)

(* -- Universal construction ------------------------------------------ *)

let test_universal_counter_object () =
  (* A counter as the sequential object. *)
  let apply ~proc:_ ~op_index:_ st = [| st.(0) + 1 |] in
  let u = Scu.Universal.make ~n:4 ~init:[| 0 |] ~apply in
  let r = run ~n:4 ~stop:(Completions 800) u.spec in
  Alcotest.(check int) "state = completions"
    (Sim.Metrics.total_completions r.metrics)
    (Scu.Universal.state u u.spec.memory).(0)

let test_universal_matches_sequential_witness () =
  (* Implement a 2-cell object: cell 0 counts ops, cell 1 accumulates
     proc ids; compare against a sequential replay of the same
     multiset of operations.  Because each op is commutative here, any
     linearization gives the same result — the test checks that the
     concurrent execution applied each op exactly once. *)
  let apply ~proc ~op_index:_ st = [| st.(0) + 1; st.(1) + proc + 1 |] in
  let n = 3 in
  let u = Scu.Universal.make ~n ~init:[| 0; 0 |] ~apply in
  let r = run ~n ~stop:(Completions 300) u.spec in
  let per_proc = List.init n (fun i -> Sim.Metrics.completions_of r.metrics i) in
  let ops =
    List.concat (List.mapi (fun proc k -> List.init k (fun j -> (proc, j))) per_proc)
  in
  let witness = Scu.Universal.sequential_witness ~init:[| 0; 0 |] ~apply ops in
  let final = Scu.Universal.state u u.spec.memory in
  Alcotest.(check int) "op count" witness.(0) final.(0);
  Alcotest.(check int) "weighted sum" witness.(1) final.(1)

(* -- Obstruction-free counter ------------------------------------------ *)

let test_of_livelocks_under_round_robin () =
  (* Lockstep scheduling makes every process see a raised flag forever:
     zero completions — legal for obstruction-freedom, impossible for
     lock-freedom. *)
  let n = 2 in
  let c = Scu.Obstruction_free.make ~n in
  let r =
    Sim.Executor.exec
      ~scheduler:(Sched.Scheduler.round_robin ())
      ~n ~stop:(Steps 50_000) c.spec
  in
  Alcotest.(check int) "livelock" 0 (Sim.Metrics.total_completions r.metrics)

let test_of_progresses_with_isolation () =
  let n = 4 in
  let c = Scu.Obstruction_free.make ~n in
  let r =
    Sim.Executor.exec
      ~scheduler:(Sched.Scheduler.quantum ~length:((2 * n) + 2))
      ~n ~stop:(Steps 100_000) c.spec
  in
  Alcotest.(check bool) "progress under isolation" true
    (Sim.Metrics.total_completions r.metrics > 1_000);
  (* The register may lead by in-flight operations (incremented but
     not yet past the flag-clearing step). *)
  let v = Scu.Obstruction_free.value c c.spec.memory in
  let done_ = Sim.Metrics.total_completions r.metrics in
  Alcotest.(check bool)
    (Printf.sprintf "value %d within [completions %d, +n]" v done_)
    true
    (v >= done_ && v <= done_ + n)

let test_of_progresses_under_uniform () =
  (* Theorem 3's reasoning extends: solo runs keep happening under any
     stochastic scheduler, so the OF counter completes w.p. 1. *)
  let n = 3 in
  let c = Scu.Obstruction_free.make ~n in
  let r =
    Sim.Executor.exec
      ~config:Sim.Executor.Config.(default |> with_seed 3)
      ~scheduler:Sched.Scheduler.uniform ~n ~stop:(Steps 300_000) c.spec
  in
  Alcotest.(check bool) "stochastic progress" true
    (Sim.Metrics.total_completions r.metrics > 100)

(* -- Wait-free universal construction --------------------------------- *)

let test_wf_universal_counter () =
  let apply ~proc:_ ~op_index:_ st = [| st.(0) + 1 |] in
  let u = Scu.Waitfree_universal.make ~n:4 ~init:[| 0 |] ~apply in
  let r = run ~n:4 ~stop:(Steps 200_000) u.spec in
  let v = (Scu.Waitfree_universal.state u u.spec.memory).(0) in
  let completions = Sim.Metrics.total_completions r.metrics in
  (* Applied requests may lead observed completions by in-flight ops. *)
  Alcotest.(check bool)
    (Printf.sprintf "state %d in [completions %d, +n]" v completions)
    true
    (v >= completions && v <= completions + 4);
  Alcotest.(check int) "applied sums to state" v
    (Array.fold_left ( + ) 0 (Scu.Waitfree_universal.applied u u.spec.memory))

let test_wf_universal_matches_lockfree_semantics () =
  (* Same object implemented by both constructions: identical final
     state given identical per-process operation counts (the object
     here is commutative, so any linearization agrees). *)
  let apply ~proc ~op_index:_ st =
    let nxt = Array.copy st in
    nxt.(0) <- st.(0) + 1;
    nxt.(1) <- st.(1) + proc;
    nxt
  in
  let n = 3 in
  let wf = Scu.Waitfree_universal.make ~n ~init:[| 0; 0 |] ~apply in
  let r = run ~n ~stop:(Completions 500) wf.spec in
  let per = List.init n (fun i -> Sim.Metrics.completions_of r.metrics i) in
  (* The published state may include helped-but-not-yet-observed ops;
     recompute the witness from the *applied* counts instead. *)
  let applied = Scu.Waitfree_universal.applied wf wf.spec.memory in
  ignore per;
  let ops =
    List.concat
      (List.init n (fun proc -> List.init applied.(proc) (fun k -> (proc, k))))
  in
  let witness = Scu.Universal.sequential_witness ~init:[| 0; 0 |] ~apply ops in
  Alcotest.(check bool) "state = witness" true
    (Scu.Waitfree_universal.state wf wf.spec.memory = witness)

let test_wf_universal_helps_starved_victim () =
  let apply ~proc:_ ~op_index:_ st = [| st.(0) + 1 |] in
  let u = Scu.Waitfree_universal.make ~n:4 ~init:[| 0 |] ~apply in
  let sched =
    Sched.Scheduler.with_weak_fairness ~theta:0.02 (Sched.Scheduler.starver ~victim:0)
  in
  let r =
    Sim.Executor.exec
      ~config:Sim.Executor.Config.(default |> with_seed 5)
      ~scheduler:sched ~n:4 ~stop:(Steps 300_000) u.spec
  in
  Alcotest.(check bool) "victim helped" true
    (Sim.Metrics.completions_of r.metrics 0 > 100)

(* -- Unbounded algorithm (Lemma 2) ----------------------------------- *)

let test_unbounded_first_winner_monopolizes () =
  (* Algorithm 1: after the first successful CAS, the winner (which
     terminated) leaves the others spinning in enormous penalty loops;
     within any reasonable budget no second process completes.  With n
     = 8, the second success requires surviving a ~n^2 = 64-read
     penalty race, which has probability < (1 - 1/n)^{n^2} ~ e^{-n}. *)
  let n = 8 in
  let u = Scu.Unbounded.make ~n () in
  let r = run ~seed:31 ~n ~stop:(Steps 2_000_000) u.spec in
  let winners =
    List.length
      (List.filter
         (fun i -> Sim.Metrics.completions_of r.metrics i > 0)
         (List.init n (fun i -> i)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 of %d processes ever won (got %d)" n winners)
    true (winners <= 2);
  Alcotest.(check bool) "at least one winner" true (winners >= 1)

let test_unbounded_bounded_variant_all_complete () =
  (* With the penalty capped at 0 the algorithm is a bounded lock-free
     counter (the augmented-CAS counter, §7): everyone keeps
     completing (Theorem 3's premise). *)
  let n = 6 in
  let u = Scu.Unbounded.make ~penalty_cap:0 ~n () in
  let r = run ~n ~stop:(Steps 100_000) u.spec in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "process %d completes operations" i)
        true
        (Sim.Metrics.completions_of r.metrics i > 100))
    (List.init n (fun i -> i))

(* -- Wait-free helping counter ---------------------------------------- *)

let test_waitfree_counter_counts () =
  let n = 4 in
  let w = Scu.Waitfree_counter.make ~n in
  let r = run ~n ~stop:(Steps 200_000) w.spec in
  let value = Scu.Waitfree_counter.value w w.spec.memory in
  let completions = Sim.Metrics.total_completions r.metrics in
  (* Applied ops may lead observed completions by at most n in-flight
     requests. *)
  Alcotest.(check bool)
    (Printf.sprintf "value %d within [completions, completions+n]" value)
    true
    (value >= completions && value <= completions + n);
  let applied = Scu.Waitfree_counter.applied w w.spec.memory in
  Alcotest.(check int) "applied sums to value" value (Array.fold_left ( + ) 0 applied)

let test_waitfree_counter_bounded_individual_progress () =
  (* The wait-free property under the uniform scheduler, quantified:
     no process's individual latency explodes relative to others.
     Compare max individual gap against the lock-free counter under an
     adversary: the helping counter keeps the starved process moving
     as long as the system moves. *)
  let n = 4 in
  let w = Scu.Waitfree_counter.make ~n in
  let r =
    Sim.Executor.exec
      ~scheduler:(Sched.Scheduler.with_weak_fairness ~theta:0.02
                    (Sched.Scheduler.starver ~victim:0))
      ~n ~stop:(Steps 400_000) w.spec
  in
  (* Even the starved process completes operations (helped by others). *)
  Alcotest.(check bool) "starved process helped" true
    (Sim.Metrics.completions_of r.metrics 0 > 100)

let test_lockfree_starved_process_stalls_in_contrast () =
  (* Same adversary, lock-free counter: the victim only completes when
     its theta-lottery ticks land just right — far fewer completions
     than the helped wait-free version. *)
  let n = 4 in
  let c = Scu.Counter.make ~n in
  let w = Scu.Waitfree_counter.make ~n in
  let sched () =
    Sched.Scheduler.with_weak_fairness ~theta:0.02 (Sched.Scheduler.starver ~victim:0)
  in
  let rc =
    Sim.Executor.exec ~scheduler:(sched ()) ~n ~stop:(Steps 400_000) c.spec
  in
  let rw =
    Sim.Executor.exec ~scheduler:(sched ()) ~n ~stop:(Steps 400_000) w.spec
  in
  let lf = Sim.Metrics.completions_of rc.metrics 0 in
  let wf = Sim.Metrics.completions_of rw.metrics 0 in
  Alcotest.(check bool)
    (Printf.sprintf "wait-free victim (%d ops) >= lock-free victim (%d ops)" wf lf)
    true (wf >= lf)

(* -- Constructor validation --------------------------------------------- *)

let test_constructor_validation () =
  Alcotest.check_raises "rcu all readers"
    (Invalid_argument "Rcu.make: need 0 <= readers < n") (fun () ->
      ignore (Scu.Rcu.make ~n:3 ~readers:3 ~block_size:2));
  Alcotest.check_raises "rcu empty block"
    (Invalid_argument "Rcu.make: block_size must be >= 1") (fun () ->
      ignore (Scu.Rcu.make ~n:3 ~readers:1 ~block_size:0));
  Alcotest.check_raises "treiber ratio"
    (Invalid_argument "Treiber.make: push_ratio out of [0,1]") (fun () ->
      ignore (Scu.Treiber.make ~push_ratio:1.5 ~n:2 ()));
  Alcotest.check_raises "msqueue ratio"
    (Invalid_argument "Msqueue: enqueue_ratio out of [0,1]") (fun () ->
      ignore (Scu.Msqueue.make ~enqueue_ratio:(-0.1) ~n:2 ()));
  Alcotest.check_raises "sharded zero shards"
    (Invalid_argument "Sharded_counter.make: shards must be >= 1") (fun () ->
      ignore (Scu.Sharded_counter.make ~n:2 ~shards:0));
  Alcotest.check_raises "counter logged zero ops"
    (Invalid_argument "Counter.make_logged: ops must be positive") (fun () ->
      ignore (Scu.Counter.make_logged ~n:2 ~ops_per_process:0));
  Alcotest.check_raises "universal empty state"
    (Invalid_argument "Universal.make: empty initial state") (fun () ->
      ignore (Scu.Universal.make ~n:2 ~init:[||] ~apply:(fun ~proc:_ ~op_index:_ s -> s)))

let test_universal_rejects_resizing_apply () =
  let u =
    Scu.Universal.make ~n:1 ~init:[| 0 |]
      ~apply:(fun ~proc:_ ~op_index:_ _ -> [| 1; 2 |])
  in
  Alcotest.check_raises "apply changed size"
    (Invalid_argument "Universal: apply changed the state size") (fun () ->
      ignore (run ~n:1 ~stop:(Steps 10) u.spec))

let prop_scu_proposals_unique =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"SCU proposals are globally unique" ~count:300
       QCheck2.Gen.(
         tup2 (int_range 1 64)
           (tup2 (pair (int_range 0 63) (int_range 0 1000))
              (pair (int_range 0 63) (int_range 0 1000))))
       (fun (n, ((id1, op1), (id2, op2))) ->
         QCheck2.assume (id1 < n && id2 < n);
         let p1 = Scu.Scu_pattern.proposal ~n ~id:id1 ~op_index:op1 in
         let p2 = Scu.Scu_pattern.proposal ~n ~id:id2 ~op_index:op2 in
         if id1 = id2 && op1 = op2 then p1 = p2 else p1 <> p2))

(* -- Ticket lock (blocking comparison point) ---------------------------- *)

let test_ticket_lock_counts () =
  let n = 4 in
  let t = Scu.Ticket_lock.make ~n in
  let r = run ~n ~stop:(Steps 100_000) t.spec in
  Alcotest.(check int) "counter = completions"
    (Sim.Metrics.total_completions r.metrics)
    (Scu.Ticket_lock.value t t.spec.memory);
  Alcotest.(check bool) "made progress" true
    (Sim.Metrics.total_completions r.metrics > 1_000)

let test_ticket_lock_fifo_fair () =
  (* Starvation-freedom under the uniform scheduler: the FIFO hand-off
     gives every process the same throughput. *)
  let n = 4 in
  let t = Scu.Ticket_lock.make ~n in
  let r = run ~n ~stop:(Steps 400_000) t.spec in
  let counts = List.init n (fun i -> Sim.Metrics.completions_of r.metrics i) in
  let mn = List.fold_left min max_int counts and mx = List.fold_left max 0 counts in
  Alcotest.(check bool)
    (Printf.sprintf "balanced (%d..%d)" mn mx)
    true
    (float_of_int (mx - mn) /. float_of_int mx < 0.05)

let test_ticket_lock_blocks_on_crash () =
  (* The defining weakness of blocking code: crash one process and the
     whole system eventually halts (the dead process's ticket is never
     served). *)
  let n = 4 in
  let t = Scu.Ticket_lock.make ~n in
  let crash_plan = [ (10_000, 0) ] in
  let r = run ~crash_plan ~n ~stop:(Steps 200_000) t.spec in
  let total = Sim.Metrics.total_completions r.metrics in
  (* A second run truncated at the crash point: afterwards, only a few
     queued operations can still drain. *)
  let t2 = Scu.Ticket_lock.make ~n in
  let r2 = run ~crash_plan ~n ~stop:(Steps 10_000) t2.spec in
  let before = Sim.Metrics.total_completions r2.metrics in
  Alcotest.(check bool)
    (Printf.sprintf "halted after crash (%d before, %d total)" before total)
    true
    (total - before <= n)

(* -- TAS lock (deadlock-free, not starvation-free) ---------------------- *)

let test_tas_lock_counts () =
  let n = 4 in
  let t = Scu.Tas_lock.make ~n in
  let r = run ~n ~stop:(Steps 100_000) t.spec in
  (* The holder may have incremented but not yet released when the
     run is cut, so the counter can lead completions by one. *)
  let v = Scu.Tas_lock.value t t.spec.memory in
  let done_ = Sim.Metrics.total_completions r.metrics in
  Alcotest.(check bool)
    (Printf.sprintf "counter %d within [completions %d, +1]" v done_)
    true
    (v >= done_ && v <= done_ + 1);
  Alcotest.(check bool) "progressed" true (done_ > 1_000)

let test_tas_lock_fair_under_uniform () =
  (* The abstract's claim: deadlock-free behaves starvation-free under
     the stochastic scheduler. *)
  let n = 4 in
  let t = Scu.Tas_lock.make ~n in
  let r = run ~seed:8 ~n ~stop:(Steps 400_000) t.spec in
  let counts = List.init n (fun i -> Sim.Metrics.completions_of r.metrics i) in
  let mn = List.fold_left min max_int counts and mx = List.fold_left max 0 counts in
  Alcotest.(check bool)
    (Printf.sprintf "balanced (%d..%d)" mn mx)
    true
    (float_of_int (mx - mn) /. float_of_int mx < 0.05)

let test_tas_lock_holder_observable () =
  let t = Scu.Tas_lock.make ~n:2 in
  Alcotest.(check (option int)) "initially free" None
    (Scu.Tas_lock.holder t t.spec.memory)

(* -- Sharded counter (extension) --------------------------------------- *)

let test_sharded_counter_conserves () =
  let n = 8 in
  let c = Scu.Sharded_counter.make ~n ~shards:4 in
  let r = run ~n ~stop:(Completions 2_000) c.spec in
  Alcotest.(check int) "sum of shards = completions"
    (Sim.Metrics.total_completions r.metrics)
    (Scu.Sharded_counter.value c c.spec.memory)

let test_sharded_counter_reduces_latency () =
  let n = 16 in
  let latency shards =
    let c = Scu.Sharded_counter.make ~n ~shards in
    let r = run ~seed:17 ~n ~stop:(Steps 400_000) c.spec in
    Sim.Metrics.mean_system_latency r.metrics
  in
  let w1 = latency 1 and w16 = latency 16 in
  Alcotest.(check bool)
    (Printf.sprintf "sharding helps (%.2f -> %.2f)" w1 w16)
    true
    (w16 < 0.6 *. w1);
  (* k = n approaches the uncontended floor of 2 steps/op. *)
  Alcotest.(check bool)
    (Printf.sprintf "near the 2-step floor (%.2f)" w16)
    true (w16 < 3.5)

let test_sharded_single_shard_is_plain_counter () =
  let n = 8 in
  let sharded = Scu.Sharded_counter.make ~n ~shards:1 in
  let plain = Scu.Counter.make ~n in
  let ws =
    Sim.Metrics.mean_system_latency
      (run ~seed:1 ~n ~stop:(Steps 400_000) sharded.spec).metrics
  in
  let wp =
    Sim.Metrics.mean_system_latency
      (run ~seed:2 ~n ~stop:(Steps 400_000) plain.spec).metrics
  in
  Alcotest.(check bool)
    (Printf.sprintf "same latency (%.3f vs %.3f)" ws wp)
    true
    (Float.abs (ws -. wp) /. wp < 0.05)

let () =
  Alcotest.run "scu"
    [
      ( "cas counter",
        [
          Alcotest.test_case "value = completions" `Quick
            test_counter_value_equals_completions;
          Alcotest.test_case "values form a permutation" `Quick
            test_counter_values_form_permutation;
          Alcotest.test_case "per-process monotone" `Quick test_counter_per_process_monotone;
          Alcotest.test_case "lock-free under starver" `Quick
            test_counter_lockfree_under_starver;
          Alcotest.test_case "crashes don't block" `Quick test_counter_crash_does_not_block;
        ] );
      ( "augmented counter",
        [
          Alcotest.test_case "counts" `Quick test_counter_aug_counts;
          Alcotest.test_case "solo = 1 step/op" `Quick test_counter_aug_solo_alternates;
        ] );
      ( "scu pattern",
        [
          Alcotest.test_case "proposals unique" `Quick test_scu_pattern_proposals_unique;
          Alcotest.test_case "progress" `Quick test_scu_pattern_progress;
          Alcotest.test_case "SCU(0,1) = counter cost" `Quick
            test_scu_pattern_q0_s1_matches_counter_cost;
          Alcotest.test_case "invalid args" `Quick test_scu_pattern_invalid_args;
        ] );
      ( "parallel code",
        [ Alcotest.test_case "exact rate" `Quick test_parallel_code_exact_rate ] );
      ( "treiber stack",
        [
          Alcotest.test_case "conservation" `Quick test_treiber_conservation;
          Alcotest.test_case "sequential LIFO" `Quick test_treiber_lifo_sequential;
          Alcotest.test_case "empty pops" `Quick test_treiber_empty_pop;
        ] );
      ( "ms queue",
        [
          Alcotest.test_case "conservation" `Quick test_msqueue_conservation;
          Alcotest.test_case "sequential FIFO" `Quick test_msqueue_fifo_sequential;
          Alcotest.test_case "per-producer order" `Quick test_msqueue_per_producer_order;
        ] );
      ( "elimination stack",
        [
          Alcotest.test_case "eliminates under contention" `Quick
            test_elimination_happens_under_contention;
          Alcotest.test_case "values distinct" `Quick test_elimination_values_distinct;
          Alcotest.test_case "beats plain treiber" `Quick
            test_elimination_beats_plain_treiber;
          Alcotest.test_case "validation" `Quick test_elimination_validation;
        ] );
      ( "rcu",
        [
          Alcotest.test_case "no torn reads" `Quick test_rcu_no_torn_reads;
          Alcotest.test_case "readers wait-free" `Quick test_rcu_readers_wait_free;
        ] );
      ( "universal construction",
        [
          Alcotest.test_case "counter object" `Quick test_universal_counter_object;
          Alcotest.test_case "sequential witness" `Quick
            test_universal_matches_sequential_witness;
        ] );
      ( "obstruction-free",
        [
          Alcotest.test_case "livelocks under round-robin" `Quick
            test_of_livelocks_under_round_robin;
          Alcotest.test_case "progresses with isolation" `Quick
            test_of_progresses_with_isolation;
          Alcotest.test_case "progresses under uniform" `Quick
            test_of_progresses_under_uniform;
        ] );
      ( "wait-free universal",
        [
          Alcotest.test_case "counter object" `Quick test_wf_universal_counter;
          Alcotest.test_case "matches lock-free semantics" `Quick
            test_wf_universal_matches_lockfree_semantics;
          Alcotest.test_case "helps starved victim" `Quick
            test_wf_universal_helps_starved_victim;
        ] );
      ( "unbounded (Lemma 2)",
        [
          Alcotest.test_case "first winner monopolizes" `Quick
            test_unbounded_first_winner_monopolizes;
          Alcotest.test_case "bounded variant completes" `Quick
            test_unbounded_bounded_variant_all_complete;
        ] );
      ( "validation",
        [
          Alcotest.test_case "constructor guards" `Quick test_constructor_validation;
          Alcotest.test_case "universal resize rejected" `Quick
            test_universal_rejects_resizing_apply;
          prop_scu_proposals_unique;
        ] );
      ( "ticket lock (blocking)",
        [
          Alcotest.test_case "counts" `Quick test_ticket_lock_counts;
          Alcotest.test_case "FIFO fairness" `Quick test_ticket_lock_fifo_fair;
          Alcotest.test_case "blocks on crash" `Quick test_ticket_lock_blocks_on_crash;
        ] );
      ( "tas lock (deadlock-free)",
        [
          Alcotest.test_case "counts" `Quick test_tas_lock_counts;
          Alcotest.test_case "fair under uniform" `Quick test_tas_lock_fair_under_uniform;
          Alcotest.test_case "holder observable" `Quick test_tas_lock_holder_observable;
        ] );
      ( "sharded counter (extension)",
        [
          Alcotest.test_case "conserves" `Quick test_sharded_counter_conserves;
          Alcotest.test_case "reduces latency" `Quick test_sharded_counter_reduces_latency;
          Alcotest.test_case "k=1 is the plain counter" `Quick
            test_sharded_single_shard_is_plain_counter;
        ] );
      ( "wait-free counter",
        [
          Alcotest.test_case "counts" `Quick test_waitfree_counter_counts;
          Alcotest.test_case "bounded individual progress" `Quick
            test_waitfree_counter_bounded_individual_progress;
          Alcotest.test_case "beats lock-free under adversary" `Quick
            test_lockfree_starved_process_stalls_in_contrast;
        ] );
    ]
