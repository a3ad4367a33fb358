(* Tests for the scheduler zoo: Definition 1 conditions, the Figure
   3/4 trace statistics, and crash plans. *)

open Core

let prop name ?(count = 100) gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let rng () = Stats.Rng.create ~seed:99
let all_alive n = Array.make n true

(* -- Scheduler distributions -------------------------------------- *)

let test_uniform_distribution () =
  let n = 8 in
  let d =
    Sched.Scheduler.pick_distribution Sched.Scheduler.uniform ~rng:(rng ())
      ~alive:(all_alive n) ~time:0 ~trials:100_000
  in
  Array.iter
    (fun p -> Alcotest.(check bool) "each ~1/8" true (Float.abs (p -. 0.125) < 0.01))
    d

let test_uniform_skips_dead () =
  let alive = [| true; false; true; false |] in
  let d =
    Sched.Scheduler.pick_distribution Sched.Scheduler.uniform ~rng:(rng ()) ~alive
      ~time:0 ~trials:50_000
  in
  Alcotest.(check (float 0.)) "dead p1" 0. d.(1);
  Alcotest.(check (float 0.)) "dead p3" 0. d.(3);
  Alcotest.(check bool) "alive split evenly" true (Float.abs (d.(0) -. 0.5) < 0.02)

let test_round_robin_cycles () =
  let s = Sched.Scheduler.round_robin () in
  let picks =
    List.init 6 (fun t -> s.pick ~rng:(rng ()) ~alive:(all_alive 3) ~time:t)
  in
  Alcotest.(check (list int)) "cycle" [ 0; 1; 2; 0; 1; 2 ] picks

let test_round_robin_skips_dead () =
  let s = Sched.Scheduler.round_robin () in
  let alive = [| true; false; true |] in
  let picks = List.init 4 (fun t -> s.pick ~rng:(rng ()) ~alive ~time:t) in
  Alcotest.(check (list int)) "skips p1" [ 0; 2; 0; 2 ] picks

let test_zipf_skew () =
  let n = 4 in
  let s = Sched.Scheduler.zipf ~n ~alpha:1.0 in
  let d =
    Sched.Scheduler.pick_distribution s ~rng:(rng ()) ~alive:(all_alive n) ~time:0
      ~trials:100_000
  in
  (* Weights 1, 1/2, 1/3, 1/4; total = 25/12; p0 = 12/25 = 0.48. *)
  Alcotest.(check bool) "p0 ~0.48" true (Float.abs (d.(0) -. 0.48) < 0.01);
  Alcotest.(check bool) "monotone" true (d.(0) > d.(1) && d.(1) > d.(2) && d.(2) > d.(3))

let test_zipf_zero_alpha_is_uniform () =
  let n = 5 in
  let s = Sched.Scheduler.zipf ~n ~alpha:0. in
  let d =
    Sched.Scheduler.pick_distribution s ~rng:(rng ()) ~alive:(all_alive n) ~time:0
      ~trials:100_000
  in
  Array.iter
    (fun p -> Alcotest.(check bool) "uniform" true (Float.abs (p -. 0.2) < 0.01))
    d

let test_starver_never_picks_victim () =
  let s = Sched.Scheduler.starver ~victim:1 in
  for t = 0 to 999 do
    let i = s.pick ~rng:(rng ()) ~alive:(all_alive 4) ~time:t in
    Alcotest.(check bool) "victim starved" true (i <> 1)
  done

let test_starver_picks_victim_when_alone () =
  let s = Sched.Scheduler.starver ~victim:0 in
  let alive = [| true; false; false |] in
  Alcotest.(check int) "only victim left" 0 (s.pick ~rng:(rng ()) ~alive ~time:0)

let test_weak_fairness_restores_theta () =
  let adv = Sched.Scheduler.starver ~victim:2 in
  let theta = 0.05 in
  let s = Sched.Scheduler.with_weak_fairness ~theta adv in
  let v =
    Sched.Validity.check s ~rng:(rng ()) ~alive:(all_alive 4) ~trials:200_000 ()
  in
  Alcotest.(check bool) "well formed" true v.well_formed;
  Alcotest.(check bool) "weak fair at declared theta" true v.weak_fair;
  Alcotest.(check bool) "victim prob >= theta" true
    (v.min_alive_probability >= theta -. 0.01)

let test_weak_fairness_rejects_overload () =
  let adv = Sched.Scheduler.starver ~victim:0 in
  let s = Sched.Scheduler.with_weak_fairness ~theta:0.3 adv in
  Alcotest.check_raises "k*theta > 1"
    (Invalid_argument "Scheduler.with_weak_fairness: k * theta exceeds 1") (fun () ->
      ignore (s.pick ~rng:(rng ()) ~alive:(all_alive 4) ~time:0))

let test_validity_flags_starver () =
  let s = Sched.Scheduler.starver ~victim:0 in
  let v =
    Sched.Validity.check s ~rng:(rng ()) ~alive:(all_alive 3) ~trials:10_000 ()
  in
  (* Declared theta = 0, so weak fairness trivially holds, but the
     victim's empirical probability is 0. *)
  Alcotest.(check (float 0.)) "victim never scheduled" 0. v.min_alive_probability

let test_quantum_long_run_fair () =
  let s = Sched.Scheduler.quantum ~length:10 in
  let n = 4 in
  let counts = Array.make n 0 in
  let r = rng () in
  for t = 0 to 99_999 do
    let i = s.pick ~rng:r ~alive:(all_alive n) ~time:t in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "long-run fair" true
        (Float.abs ((float_of_int c /. 100_000.) -. 0.25) < 0.02))
    counts

let prop_lottery_nonzero_tickets_only =
  prop "lottery only picks positive-ticket processes"
    QCheck2.Gen.(pair (int_range 0 1000) (array_size (return 5) (int_range 0 10)))
    (fun (seed, tickets) ->
      QCheck2.assume (Array.exists (fun t -> t > 0) tickets);
      let s = Sched.Scheduler.lottery tickets in
      let g = Stats.Rng.create ~seed in
      let i = s.pick ~rng:g ~alive:(all_alive 5) ~time:0 in
      tickets.(i) > 0)

let test_quantum_survives_crash_of_current () =
  (* If the process holding the quantum dies, the scheduler must
     re-draw among the living instead of returning the corpse. *)
  let s = Sched.Scheduler.quantum ~length:100 in
  let alive = [| true; true; true |] in
  let r = rng () in
  let first = s.pick ~rng:r ~alive ~time:0 in
  alive.(first) <- false;
  for t = 1 to 50 do
    let i = s.pick ~rng:r ~alive ~time:t in
    Alcotest.(check bool) "never picks the dead current" true (i <> first)
  done

let test_weighted_rejects_negative () =
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Scheduler.weighted: negative weight") (fun () ->
      ignore (Sched.Scheduler.weighted [| 1.; -1. |]))

let test_weak_fairness_rejects_nonpositive_theta () =
  Alcotest.check_raises "theta = 0"
    (Invalid_argument "Scheduler.with_weak_fairness: theta must be > 0") (fun () ->
      ignore (Sched.Scheduler.with_weak_fairness ~theta:0. Sched.Scheduler.uniform))

let test_replay_follows_recording () =
  let order = [| 2; 0; 1; 1; 2 |] in
  let s = Sched.Scheduler.replay order in
  let alive = all_alive 3 in
  for t = 0 to 9 do
    Alcotest.(check int)
      (Printf.sprintf "step %d" t)
      order.(t mod 5)
      (s.pick ~rng:(rng ()) ~alive ~time:t)
  done

let test_replay_skips_dead () =
  let s = Sched.Scheduler.replay [| 0; 0; 0 |] in
  let alive = [| false; true; true |] in
  for t = 0 to 5 do
    let i = s.pick ~rng:(rng ()) ~alive ~time:t in
    Alcotest.(check bool) "falls back to a living process" true (i <> 0)
  done

let test_replay_rejects_empty () =
  Alcotest.check_raises "empty schedule"
    (Invalid_argument "Scheduler.replay: empty schedule") (fun () ->
      ignore (Sched.Scheduler.replay [||]))

let test_quantum_rejects_bad_length () =
  Alcotest.check_raises "length 0"
    (Invalid_argument "Scheduler.quantum: length must be >= 1") (fun () ->
      ignore (Sched.Scheduler.quantum ~length:0))

(* -- Traces (Figures 3 and 4) -------------------------------------- *)

let test_trace_step_shares () =
  let t = Sched.Trace.of_array ~n:3 [| 0; 1; 2; 0; 0; 1 |] in
  let shares = Sched.Trace.step_shares t in
  Alcotest.(check (float 1e-9)) "p0 share" 0.5 shares.(0);
  Alcotest.(check (float 1e-9)) "p1 share" (1. /. 3.) shares.(1);
  Alcotest.(check (float 1e-9)) "p2 share" (1. /. 6.) shares.(2)

let test_trace_successors () =
  let t = Sched.Trace.of_array ~n:2 [| 0; 1; 0; 0; 1 |] in
  (* After p0: successors are 1, 0, 1 -> p1 twice, p0 once.  The final
     p1 has no successor. *)
  let d = Sched.Trace.next_step_distribution t ~after:0 in
  Alcotest.(check (float 1e-9)) "to p0" (1. /. 3.) d.(0);
  Alcotest.(check (float 1e-9)) "to p1" (2. /. 3.) d.(1)

let test_trace_uniform_successors_uniform () =
  let n = 6 in
  let tr = Sched.Trace.create ~n in
  let g = rng () in
  for _ = 1 to 300_000 do
    Sched.Trace.record tr (Stats.Rng.int g n)
  done;
  let m = Sched.Trace.successor_matrix tr in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j p ->
          Alcotest.(check bool)
            (Printf.sprintf "succ[%d][%d] ~ 1/n" i j)
            true
            (Float.abs (p -. (1. /. float_of_int n)) < 0.02))
        row)
    m

let test_trace_run_lengths () =
  let t = Sched.Trace.of_array ~n:2 [| 0; 0; 1; 0; 1; 1; 1 |] in
  Alcotest.(check (list (pair int int))) "runs of p0" [ (1, 1); (2, 1) ]
    (Sched.Trace.run_length_counts t ~proc:0);
  Alcotest.(check (list (pair int int))) "runs of p1" [ (1, 1); (3, 1) ]
    (Sched.Trace.run_length_counts t ~proc:1)

let test_trace_max_gap () =
  let t = Sched.Trace.of_array ~n:3 [| 0; 1; 2; 2; 1; 0; 1 |] in
  Alcotest.(check int) "gap p0" 4 (Sched.Trace.max_gap t ~proc:0);
  (* p2's last step is at index 3; the trailing gap 4..6 has length 3. *)
  Alcotest.(check int) "gap p2" 3 (Sched.Trace.max_gap t ~proc:2)

(* -- Crash plans ---------------------------------------------------- *)

(* A crash plan (Definition 1) is a crash-only fault plan, as
   `repro check --crash` builds it. *)

module FP = Sched.Fault_plan

let test_crash_plan_dedup () =
  let p = FP.of_crash_events [ (10, 1); (5, 1); (7, 2) ] in
  Alcotest.(check int) "two distinct processes crash" 1 (FP.survivors ~n:3 p);
  Alcotest.(check string) "p1's earliest crash comes first"
    "crash@5:1,crash@7:2,crash@10:1" (FP.to_string p);
  Alcotest.(check bool) "p1 listed twice is not an all-crash" true
    (FP.validate ~n:2 (FP.of_crash_events [ (10, 1); (5, 1) ]) = Ok ())

let test_crash_plan_validation () =
  (match FP.validate ~n:3 (FP.of_crash_events [ (1, 0); (2, 1) ]) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "n-1 crashes should be fine: %s" e);
  (match FP.validate ~n:2 (FP.of_crash_events [ (1, 0); (2, 1) ]) with
  | Ok () -> Alcotest.fail "all-crash should be rejected"
  | Error _ -> ());
  match FP.validate ~n:2 (FP.of_crash_events [ (1, 5) ]) with
  | Ok () -> Alcotest.fail "out-of-range process"
  | Error _ -> ()

(* -- Fault plans (chaos layer) -------------------------------------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_fault_plan_parse_roundtrip () =
  let spec =
    match FP.parse_spec "crash@5:1,restart@9:1,stall@3:0+7,casfail:*=0.25" with
    | Ok s -> s
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  Alcotest.(check bool) "no rates in an explicit spec" true
    (spec.FP.rates = FP.zero_rates);
  Alcotest.(check string) "serializes time-sorted"
    "stall@3:0+7,crash@5:1,restart@9:1,casfail:*=0.25"
    (FP.to_string spec.FP.base);
  (match FP.parse_spec (FP.spec_to_string spec) with
  | Ok again ->
      Alcotest.(check string) "round-trip is stable" (FP.spec_to_string spec)
        (FP.spec_to_string again)
  | Error e -> Alcotest.failf "re-parse failed: %s" e);
  (match FP.parse_spec "crash~0.1,recover~0.2,stall~0.05:9,casfail~0.3" with
  | Ok s ->
      Alcotest.(check bool) "rates parsed" true
        (s.FP.rates
        = { FP.crash = 0.1; recover = 0.2; stall = 0.05; stall_len = 9; casfail = 0.3 });
      Alcotest.(check bool) "no explicit events" true (FP.is_none s.FP.base)
  | Error e -> Alcotest.failf "rate parse failed: %s" e);
  (match FP.parse_spec "none" with
  | Ok s -> Alcotest.(check bool) "none is empty" true (FP.spec_is_none s)
  | Error e -> Alcotest.failf "none: %s" e);
  match FP.parse_spec "crash@oops" with
  | Ok _ -> Alcotest.fail "bad token accepted"
  | Error msg ->
      Alcotest.(check bool) "error names the token" true (contains msg "crash@oops")

let test_fault_plan_validation () =
  let ok = function Ok () -> true | Error _ -> false in
  Alcotest.(check bool) "all-crash healed by a restart is fine" true
    (ok
       (FP.validate ~n:2
          (FP.make [ (0, FP.Crash 0); (0, FP.Crash 1); (5, FP.Restart 1) ])));
  Alcotest.(check bool) "permanent all-crash rejected" false
    (ok (FP.validate ~n:2 (FP.make [ (0, FP.Crash 0); (0, FP.Crash 1) ])));
  Alcotest.(check bool) "process out of range rejected" false
    (ok (FP.validate ~n:2 (FP.make [ (0, FP.Crash 7) ])));
  Alcotest.(check bool) "negative stall rejected" false
    (ok (FP.validate ~n:2 (FP.make [ (0, FP.Stall (0, -1)) ])));
  Alcotest.(check bool) "spurious rate >= 1 rejected" false
    (ok (FP.validate ~n:2 (FP.make ~spurious:[ (None, 1.5) ] [])));
  Alcotest.(check bool) "per-process rate in range ok" true
    (ok (FP.validate ~n:2 (FP.make ~spurious:[ (Some 1, 0.5) ] [])))

let test_fault_plan_instantiate () =
  let spec =
    {
      FP.base = FP.none;
      rates =
        { FP.crash = 0.2; recover = 0.1; stall = 0.05; stall_len = 4; casfail = 0.2 };
    }
  in
  let p1 = FP.instantiate spec ~seed:7 ~n:4 ~horizon:200 in
  let p2 = FP.instantiate spec ~seed:7 ~n:4 ~horizon:200 in
  Alcotest.(check string) "deterministic by seed" (FP.to_string p1) (FP.to_string p2);
  Alcotest.(check bool) "always leaves a survivor" true
    (match FP.validate ~n:4 p1 with Ok () -> true | Error _ -> false);
  Alcotest.(check bool) "casfail rate becomes a spurious entry" true
    (FP.has_spurious p1);
  let base = FP.make [ (3, FP.Crash 1) ] in
  Alcotest.(check string) "all-zero rates return the base untouched"
    (FP.to_string base)
    (FP.to_string
       (FP.instantiate { FP.base; rates = FP.zero_rates } ~seed:9 ~n:4 ~horizon:100))

let test_fault_plan_merge_and_rates () =
  let a = FP.make ~spurious:[ (Some 0, 0.2) ] [ (1, FP.Crash 0) ] in
  let b =
    FP.make ~spurious:[ (None, 0.1) ] [ (0, FP.Stall (1, 5)); (2, FP.Restart 0) ]
  in
  let m = FP.merge a b in
  Alcotest.(check int) "events unioned" 3 (Array.length (FP.events m));
  let rates = FP.spurious_rates ~n:2 m in
  Alcotest.(check (float 1e-9)) "max rate wins for p0" 0.2 rates.(0);
  Alcotest.(check (float 1e-9)) "global rate applies to p1" 0.1 rates.(1);
  Alcotest.(check int) "restart count" 1 (FP.restart_count m);
  Alcotest.(check int) "stall total" 5 (FP.stall_total m);
  Alcotest.(check string) "crash-only plan sorted by time" "crash@1:0,crash@4:2"
    (FP.to_string (FP.of_crash_events [ (4, 2); (1, 0) ]))

let test_fault_plan_rates_validated () =
  (* Every rate token is checked as it is parsed, naming the token:
     out-of-range and NaN rates and negative stall lengths used to be
     accepted here and fail later, or silently vanish from the plan. *)
  List.iter
    (fun (spec, needle) ->
      match FP.parse_spec spec with
      | Ok _ -> Alcotest.failf "%s accepted" spec
      | Error msg ->
          Alcotest.(check bool) (spec ^ " names the token: " ^ msg) true
            (contains msg needle))
    [
      ("casfail~1.5", "\"casfail~1.5\": casfail rate must be in [0,1)");
      ("casfail~1", "casfail rate must be in [0,1)");
      ("stall~0.1:-3", "\"stall~0.1:-3\": negative stall duration");
      ("stall~-0.1:3", "stall rate must be in [0,1]");
      ("crash~2", "\"crash~2\": crash rate must be in [0,1]");
      ("crash~nan", "\"crash~nan\": crash rate must be in [0,1]");
      ("recover~-1,crash~0.1", "\"recover~-1\": recover rate");
    ];
  List.iter
    (fun spec ->
      Alcotest.(check bool) (spec ^ " accepted") true
        (Result.is_ok (FP.parse_spec spec)))
    [ "crash~1,recover~1,stall~1:0,casfail~0.999"; "crash~0,casfail~0" ];
  Alcotest.(check bool) "validate_rates on a record" true
    (FP.validate_rates { FP.standard_rates with casfail = 1. } <> Ok ())

let test_fault_plan_tier_names () =
  (* A spec that is exactly one tier name is that tier's rates, so
     every --faults and faults= accepts the names `load` always took.
     A tier name is not a token: it does not combine with events. *)
  List.iter
    (fun (name, rates) ->
      match FP.parse_spec name with
      | Ok spec ->
          Alcotest.(check bool) (name ^ " is its tier's rates") true
            (spec = { FP.base = FP.none; rates })
      | Error msg -> Alcotest.failf "%s rejected: %s" name msg)
    [
      ("quick", FP.quick_rates);
      ("standard", FP.standard_rates);
      ("century", FP.century_rates);
      ("chaos", FP.chaos_rates);
      (* Blanks around a tier name are trimmed, as around any token. *)
      (" standard", FP.standard_rates);
      ("standard ", FP.standard_rates);
    ];
  match FP.parse_spec "standard,crash@5:0" with
  | Ok _ -> Alcotest.fail "standard,crash@5:0 accepted"
  | Error msg ->
      Alcotest.(check string) "the error names the tier token"
        "bad --faults token \"standard\"" msg

(* -- Streamed fault plans ------------------------------------------- *)

(* The eager expansion a streamed plan must reproduce: walk the whole
   horizon up front, then merge stably with the explicit base plan. *)
let eager_instantiate (spec : FP.spec) ~seed ~n ~horizon =
  let r = spec.rates in
  if r.crash = 0. && r.recover = 0. && r.stall = 0. && r.casfail = 0. then
    spec.base
  else begin
    let rng = Stats.Rng.create ~seed in
    let crashed = Array.make n false in
    let crashed_count = ref 0 in
    let events = ref [] in
    for time = 0 to horizon - 1 do
      for p = 0 to n - 1 do
        if crashed.(p) then begin
          if r.recover > 0. && Stats.Rng.float rng 1.0 < r.recover then begin
            crashed.(p) <- false;
            decr crashed_count;
            events := (time, FP.Restart p) :: !events
          end
        end
        else if
          r.crash > 0.
          && !crashed_count < n - 1
          && Stats.Rng.float rng 1.0 < r.crash
        then begin
          crashed.(p) <- true;
          incr crashed_count;
          events := (time, FP.Crash p) :: !events
        end
        else if r.stall > 0. && Stats.Rng.float rng 1.0 < r.stall then
          events := (time, FP.Stall (p, r.stall_len)) :: !events
      done
    done;
    let spurious = if r.casfail > 0. then [ (None, r.casfail) ] else [] in
    FP.merge spec.base (FP.make ~spurious (List.rev !events))
  end

(* What the load engine's rescue used to read off the eager plan: the
   time after which each process is crashed for good. *)
let dead_after ~n events =
  let d = Array.make n max_int in
  Array.iter
    (fun (time, e) ->
      match e with
      | FP.Crash p -> if p >= 0 && p < n then d.(p) <- time
      | FP.Restart p -> if p >= 0 && p < n then d.(p) <- max_int
      | FP.Stall _ -> ())
    events;
  d

type stream_case = {
  n : int;
  horizon : int;
  seed : int;
  spec : FP.spec;
  order_seed : int;
}

let gen_stream_case =
  let open QCheck2.Gen in
  (* Zero, tiny, tier values and 1.0. *)
  let rate = oneofl [ 0.; 0.; 1e-6; 1e-4; 5e-4; 0.002; 0.01; 0.02; 0.05; 0.1; 1.0 ] in
  let rates =
    oneof
      [
        oneofl
          [ FP.standard_rates; FP.century_rates; FP.chaos_rates; FP.zero_rates ];
        map
          (fun (((crash, recover), (stall, stall_len)), casfail) ->
            { FP.crash; recover; stall; stall_len; casfail })
          (pair (pair (pair rate rate) (pair rate (int_range 0 6))) rate);
      ]
  in
  let* n = int_range 1 8 in
  let* horizon = int_range 0 400 in
  let event =
    (* Times past the horizon and process ids just out of range. *)
    let* time = int_range (-1) (horizon + 3) in
    let* p = int_range (-1) n in
    let* kind = int_range 0 2 in
    let+ d = int_range 0 4 in
    (time, match kind with 0 -> FP.Crash p | 1 -> FP.Restart p | _ -> FP.Stall (p, d))
  in
  let* events = list_size (int_range 0 4) event in
  let* spurious =
    oneofl [ []; [ (None, 0.3) ]; [ (Some 0, 0.5) ] ]
  in
  let* rates = rates in
  let* seed = int_bound 1_000_000 in
  let+ order_seed = int_bound 1_000_000 in
  { n; horizon; seed; spec = { FP.base = FP.make ~spurious events; rates }; order_seed }

let print_stream_case c =
  Printf.sprintf "n=%d horizon=%d seed=%d order=%d faults=%s" c.n c.horizon c.seed
    c.order_seed (FP.spec_to_string c.spec)

let stream_matches_eager c =
  let fresh () = FP.instantiate c.spec ~seed:c.seed ~n:c.n ~horizon:c.horizon in
  let oracle = eager_instantiate c.spec ~seed:c.seed ~n:c.n ~horizon:c.horizon in
  let expected = FP.events oracle in
  let fail fmt = Printf.ksprintf (fun s -> QCheck2.Test.fail_report s) fmt in
  (* Event by event through the executor's accessors. *)
  let p = fresh () in
  let rec read i =
    if FP.time_at p i = max_int then i
    else if i >= Array.length expected then fail "extra event %d" i
    else if (FP.time_at p i, FP.event_at p i) <> expected.(i) then
      fail "event %d differs" i
    else read (i + 1)
  in
  let last = read 0 in
  if last <> Array.length expected then
    fail "stream ends at %d, eager plan at %d" last (Array.length expected);
  (* The executor's look-ahead for a restart, from a fresh plan. *)
  let len = Array.length expected in
  List.iter
    (fun i ->
      for q = 0 to c.n - 1 do
        let restarts_q = function FP.Restart r -> r = q | _ -> false in
        let want = ref false in
        for j = i to len - 1 do
          if restarts_q (snd expected.(j)) then want := true
        done;
        if FP.exists_from (fresh ()) i restarts_q <> !want then
          fail "exists_from %d (restart of p%d) differs" i q
      done)
    [ 0; len / 2; len; len + 1 ];
  (* Whole-plan readers, each on a fresh plan; validate and outage at
     the walk's own n and around it. *)
  let agree name f =
    if f (fresh ()) <> f oracle then fail "%s differs" name
  in
  agree "to_string" (fun t -> FP.to_string t);
  agree "restart_count" FP.restart_count;
  agree "stall_total" FP.stall_total;
  agree "survivors" (FP.survivors ~n:c.n);
  List.iter
    (fun n ->
      agree (Printf.sprintf "validate ~n:%d" n) (FP.validate ~n);
      if FP.outage ~n (fresh ()) <> (FP.survivors ~n oracle = 0) then
        fail "outage ~n:%d differs" n)
    [ max 1 (c.n - 1); c.n; c.n + 1 ];
  (* The engine's query, asked in increasing time order and in a random
     order, each on a fresh plan that must still read whole after. *)
  let dead = dead_after ~n:c.n expected in
  let queries =
    List.concat_map
      (fun now -> List.init c.n (fun q -> (q, now)))
      (List.init (c.horizon + 3) Fun.id)
  in
  let shuffled =
    let a = Array.of_list queries in
    Stats.Rng.shuffle (Stats.Rng.create ~seed:c.order_seed) a;
    Array.to_list a
  in
  List.iter
    (fun qs ->
      let t = fresh () in
      List.iter
        (fun (q, now) ->
          if FP.down_for_good t q ~now <> (now >= dead.(q)) then
            fail "down_for_good p%d at %d differs" q now)
        qs;
      if FP.events t <> expected then fail "events after queries differ")
    [ queries; shuffled ];
  true

let prop_stream_matches_eager =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"streamed plan = eager plan" ~count:300
       ~long_factor:10 ~print:print_stream_case gen_stream_case
       stream_matches_eager)

let test_fault_plan_long_horizon () =
  (* A walk over 2e8 steps at n = 4 is about 1e9 draws: a run that
     reads 10k steps of it must not pay for the rest. *)
  let plan =
    FP.instantiate
      { FP.base = FP.none; rates = FP.standard_rates }
      ~seed:3 ~n:4 ~horizon:200_000_000
  in
  let t0 = Sys.time () in
  let config = Sim.Executor.Config.(default |> with_faults plan) in
  let r =
    Sim.Executor.exec_compiled ~config ~scheduler:Sched.Scheduler.uniform ~n:4
      ~stop:(Steps 10_000) (Scu.Counter.make_compiled ~n:4).cspec
  in
  let now = Sim.Metrics.time r.metrics in
  Alcotest.(check int) "ran its 10k steps" 10_000 now;
  Alcotest.(check bool) "crashes healed on the way" true
    (Array.exists (fun k -> k > 0) r.restarts);
  Alcotest.(check bool) "validated without expanding" true
    (FP.validate ~n:4 plan = Ok () && not (FP.outage ~n:4 plan));
  ignore (FP.down_for_good plan 0 ~now);
  let cpu = Sys.time () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "well under the eager walk's cost (%.2fs CPU)" cpu)
    true (cpu < 2.)

(* -- Distribution probes vs stateful schedulers --------------------- *)

let test_pick_distribution_refuses_stateful () =
  (* Sampling a stateful scheduler's pick repeatedly would advance its
     state between samples, so the probe must refuse rather than
     silently return Π_τ averaged over perturbed states. *)
  let s = Sched.Scheduler.round_robin () in
  Alcotest.(check bool) "round_robin declares stateful" true s.stateful;
  Alcotest.check_raises "stateful refused"
    (Invalid_argument
       "Scheduler.pick_distribution: round-robin is stateful; repeated \
        sampling would perturb its internal state (use \
        time_average_distribution)")
    (fun () ->
      ignore
        (Sched.Scheduler.pick_distribution s ~rng:(rng ()) ~alive:(all_alive 3)
           ~time:0 ~trials:100))

let test_time_average_round_robin_exact () =
  (* Trial counts are rounded up to a multiple of the alive count, so
     the deterministic cycle averages to exactly 1/k — including with
     a dead process in the ring. *)
  let alive = [| true; true; false; true |] in
  let d =
    Sched.Scheduler.time_average_distribution
      (Sched.Scheduler.round_robin ())
      ~rng:(rng ()) ~alive ~trials:1000
  in
  Alcotest.(check (float 0.)) "dead p2 never" 0. d.(2);
  Array.iteri
    (fun i p ->
      if alive.(i) then
        Alcotest.(check bool)
          (Printf.sprintf "p%d exactly 1/3" i)
          true
          (Float.abs (p -. (1. /. 3.)) < 1e-9))
    d

let test_replay_string_roundtrip () =
  let order = [| 0; 3; 1; 1; 0; 2; 7; 0 |] in
  Alcotest.(check (array int))
    "of_string (to_string x) = x" order
    (Sched.Scheduler.replay_of_string (Sched.Scheduler.replay_to_string order));
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Scheduler.replay_of_string: empty schedule") (fun () ->
      ignore (Sched.Scheduler.replay_of_string "  "));
  Alcotest.(check bool) "garbage rejected" true
    (try
       ignore (Sched.Scheduler.replay_of_string "1,x,2");
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "sched"
    [
      ( "schedulers",
        [
          Alcotest.test_case "uniform distribution" `Quick test_uniform_distribution;
          Alcotest.test_case "uniform skips dead" `Quick test_uniform_skips_dead;
          Alcotest.test_case "round robin cycles" `Quick test_round_robin_cycles;
          Alcotest.test_case "round robin skips dead" `Quick test_round_robin_skips_dead;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "zipf alpha=0 uniform" `Quick test_zipf_zero_alpha_is_uniform;
          Alcotest.test_case "starver starves" `Quick test_starver_never_picks_victim;
          Alcotest.test_case "starver fallback" `Quick test_starver_picks_victim_when_alone;
          Alcotest.test_case "quantum long-run fair" `Quick test_quantum_long_run_fair;
          Alcotest.test_case "quantum survives crash" `Quick
            test_quantum_survives_crash_of_current;
          Alcotest.test_case "weighted validation" `Quick test_weighted_rejects_negative;
          Alcotest.test_case "weak-fairness validation" `Quick
            test_weak_fairness_rejects_nonpositive_theta;
          Alcotest.test_case "quantum validation" `Quick test_quantum_rejects_bad_length;
          Alcotest.test_case "replay follows recording" `Quick test_replay_follows_recording;
          Alcotest.test_case "replay skips dead" `Quick test_replay_skips_dead;
          Alcotest.test_case "replay validation" `Quick test_replay_rejects_empty;
          prop_lottery_nonzero_tickets_only;
        ] );
      ( "weak fairness (Def 1)",
        [
          Alcotest.test_case "theta restored over adversary" `Quick
            test_weak_fairness_restores_theta;
          Alcotest.test_case "k*theta > 1 rejected" `Quick
            test_weak_fairness_rejects_overload;
          Alcotest.test_case "validity flags starver" `Quick test_validity_flags_starver;
        ] );
      ( "traces",
        [
          Alcotest.test_case "step shares (Fig 3)" `Quick test_trace_step_shares;
          Alcotest.test_case "successors (Fig 4)" `Quick test_trace_successors;
          Alcotest.test_case "uniform successors uniform" `Quick
            test_trace_uniform_successors_uniform;
          Alcotest.test_case "run lengths" `Quick test_trace_run_lengths;
          Alcotest.test_case "max gap" `Quick test_trace_max_gap;
        ] );
      ( "crash plans",
        [
          Alcotest.test_case "dedup earliest" `Quick test_crash_plan_dedup;
          Alcotest.test_case "validation" `Quick test_crash_plan_validation;
        ] );
      ( "fault plans",
        [
          Alcotest.test_case "parse round-trip" `Quick test_fault_plan_parse_roundtrip;
          Alcotest.test_case "validation" `Quick test_fault_plan_validation;
          Alcotest.test_case "instantiate deterministic" `Quick
            test_fault_plan_instantiate;
          Alcotest.test_case "merge and rates" `Quick test_fault_plan_merge_and_rates;
          Alcotest.test_case "rates validated" `Quick test_fault_plan_rates_validated;
          Alcotest.test_case "tier names" `Quick test_fault_plan_tier_names;
        ] );
      ( "fault plan streaming",
        [
          prop_stream_matches_eager;
          Alcotest.test_case "long horizon not walked" `Quick
            test_fault_plan_long_horizon;
        ] );
      ( "distribution probes",
        [
          Alcotest.test_case "stateful refused" `Quick
            test_pick_distribution_refuses_stateful;
          Alcotest.test_case "round-robin time average exact" `Quick
            test_time_average_round_robin_exact;
          Alcotest.test_case "replay string round-trip" `Quick
            test_replay_string_roundtrip;
        ] );
    ]
