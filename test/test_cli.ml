(* End-to-end recovery tests against the built repro executable: fault
   injection recovered inside a run (exit 0, stdout byte-identical to
   an undisturbed run), permanent give-ups surfacing as exit 1 without
   hanging the sweep, and --resume completing a manifest truncated
   mid-sweep with byte-identical stdout.

   Each case gets its own scratch working directory because repro
   writes results/ relative to the cwd.  The test binary itself runs
   from _build/default/test, so the driver under test is
   ../bin/repro.exe (declared as a dune dep). *)

module Json = Telemetry.Json

let repro =
  Filename.concat (Filename.dirname (Sys.getcwd ())) "bin/repro.exe"

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_scratch_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "repro-cli-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run [repro <args>] with [dir] as cwd; returns (exit code, stdout,
   stderr).  [env] prefixes shell variable assignments. *)
let run ?(env = []) dir args =
  let env_s =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s=%s " k (Filename.quote v)) env)
  in
  let code =
    Sys.command
      (Printf.sprintf "cd %s && %s%s %s >stdout.txt 2>stderr.txt"
         (Filename.quote dir) env_s (Filename.quote repro) args)
  in
  ( code,
    read_file (Filename.concat dir "stdout.txt"),
    read_file (Filename.concat dir "stderr.txt") )

let manifest_path dir =
  let runs = Filename.concat (Filename.concat dir "results") "runs" in
  match Sys.readdir runs with
  | [| f |] -> Filename.concat runs f
  | files ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one manifest under %s, found %d" runs
           (Array.length files))

let parse_manifest path =
  match Json.parse (read_file path) with
  | Ok v -> v
  | Error msg -> Alcotest.fail (path ^ ": " ^ msg)

let manifest_cells json =
  Option.bind (Json.member "cells" json) Json.to_list |> Option.get

let cell_field f cell = Option.bind (Json.member f cell) Json.to_str
let cell_attempts cell =
  Option.bind (Json.member "attempts" cell) Json.to_int |> Option.get

(* The reference stdout of an undisturbed quick fig1 run, computed
   once: both the fault-recovery and the REPRO_FAULT cases must
   reproduce it byte for byte. *)
let golden_fig1 =
  lazy
    (with_scratch_dir (fun dir ->
         let code, out, err = run dir "run fig1 --quick --no-progress" in
         if code <> 0 then Alcotest.fail ("golden run failed: " ^ err);
         out))

let test_fault_recovery () =
  with_scratch_dir (fun dir ->
      let code, out, err =
        run dir
          "run fig1 --quick --no-progress --fault lifting-n2:1 --no-backoff"
      in
      Alcotest.(check int) ("faulted run exits 0; stderr: " ^ err) 0 code;
      Alcotest.(check string)
        "stdout byte-identical to the undisturbed run"
        (Lazy.force golden_fig1) out;
      let cells = manifest_cells (parse_manifest (manifest_path dir)) in
      let retried =
        List.filter (fun c -> cell_attempts c = 2) cells
      in
      Alcotest.(check int) "exactly one cell needed a retry" 1
        (List.length retried);
      Alcotest.(check (option string))
        "the faulted cell is the retried one" (Some "lifting-n2")
        (cell_field "label" (List.hd retried));
      Alcotest.(check bool) "every cell ended ok" true
        (List.for_all (fun c -> cell_field "status" c = Some "ok") cells))

let test_env_fault () =
  (* REPRO_FAULT is the flag-less channel CI uses. *)
  with_scratch_dir (fun dir ->
      let code, out, _ =
        run dir
          ~env:[ ("REPRO_FAULT", "lifting-n2:1") ]
          "run fig1 --quick --no-progress --no-backoff"
      in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check string)
        "stdout byte-identical under REPRO_FAULT"
        (Lazy.force golden_fig1) out;
      let cells = manifest_cells (parse_manifest (manifest_path dir)) in
      Alcotest.(check bool) "env fault actually fired" true
        (List.exists (fun c -> cell_attempts c = 2) cells))

let test_permanent_failure () =
  (* A cell that out-faults its retry budget: the run must not hang,
     must finish the other experiment, record the failure in the
     manifest, and exit 1. *)
  with_scratch_dir (fun dir ->
      let code, out, err =
        run dir
          "run fig1 lem11 --quick --no-progress --fault lifting-n2:9 \
           --retries 2 --no-backoff"
      in
      Alcotest.(check int) "gave-up run exits 1" 1 code;
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "the healthy experiment still printed" true
        (contains out "lem11");
      Alcotest.(check bool) "stderr names the give-up" true
        (contains err "gave up");
      let cells = manifest_cells (parse_manifest (manifest_path dir)) in
      let failed =
        List.filter (fun c -> cell_field "status" c = Some "failed") cells
      in
      Alcotest.(check int) "one failed cell recorded" 1 (List.length failed);
      Alcotest.(check (option string))
        "it is the faulted cell" (Some "lifting-n2")
        (cell_field "label" (List.hd failed));
      Alcotest.(check int) "it burned its full retry budget" 2
        (cell_attempts (List.hd failed)))

let test_resume_truncated_manifest () =
  (* Simulate a sweep killed mid-run: complete fig1+lem11 with the
     cache on, then hand --resume a manifest stripped back to the
     fig1 cells (as if the process died before lem11) with lem11's
     cache gone.  The resumed run must re-execute exactly the missing
     part and reproduce the full stdout byte for byte. *)
  with_scratch_dir (fun dir ->
      let code, full_out, err =
        run dir "run fig1 lem11 --quick --cache -j1 --no-progress"
      in
      Alcotest.(check int) ("full run exits 0; stderr: " ^ err) 0 code;
      let manifest = manifest_path dir in
      let truncated =
        match parse_manifest manifest with
        | Json.Obj fields ->
            Json.Obj
              (List.map
                 (function
                   | "cells", Json.List cells ->
                       ( "cells",
                         Json.List
                           (List.filter
                              (fun c -> cell_field "exp" c = Some "fig1")
                              cells) )
                   | "experiments", Json.List exps ->
                       ( "experiments",
                         Json.List
                           (List.filter
                              (fun e -> cell_field "id" e = Some "fig1")
                              exps) )
                   | field -> field)
                 fields)
        | _ -> Alcotest.fail "manifest is not an object"
      in
      let truncated_path = Filename.concat dir "truncated.json" in
      Telemetry.Fsutil.write_atomic truncated_path (Json.to_string truncated);
      (* Kill the state the dead part would have left behind. *)
      rm_rf (List.fold_left Filename.concat dir [ "results"; "cache"; "lem11" ]);
      rm_rf (List.fold_left Filename.concat dir [ "results"; "runs" ]);
      let code, resumed_out, err =
        run dir "run --resume truncated.json -j1 --no-progress"
      in
      Alcotest.(check int) ("resume exits 0; stderr: " ^ err) 0 code;
      Alcotest.(check string)
        "resumed stdout byte-identical to the uninterrupted run" full_out
        resumed_out;
      (* The completed fig1 cell was served from the cache, not rerun. *)
      let cells = manifest_cells (parse_manifest (manifest_path dir)) in
      let fig1_cells =
        List.filter (fun c -> cell_field "exp" c = Some "fig1") cells
      in
      Alcotest.(check bool) "completed cells served as cache hits" true
        (fig1_cells <> []
        && List.for_all (fun c -> cell_field "cache" c = Some "hit") fig1_cells))

let test_out_under_file_fails_fast () =
  (* --out beneath a path component that is a plain file: the CLI must
     refuse before running any experiment, not fail on the first CSV
     write after minutes of work. *)
  with_scratch_dir (fun dir ->
      let file = Filename.concat dir "occupied" in
      let oc = open_out file in
      output_string oc "plain file";
      close_out oc;
      let code, out, _ =
        run dir "run fig1 --quick --no-progress --out occupied/csv"
      in
      Alcotest.(check bool) "nonzero exit" true (code <> 0);
      Alcotest.(check string) "no experiment ran (empty stdout)" "" out)

let test_bad_fault_spec_rejected () =
  with_scratch_dir (fun dir ->
      let code, out, _ =
        run dir "run fig1 --quick --no-progress --fault nonsense"
      in
      Alcotest.(check bool) "nonzero exit" true (code <> 0);
      Alcotest.(check string) "no experiment ran" "" out)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* [repro <args>] must die as a cmdliner usage error: exit 124, one
   stderr line naming [needle], nothing on stdout.  An exception that
   escapes to cmdliner exits 125 with "internal error, uncaught
   exception"; its "Raised at" backtrace only shows under
   OCAMLRUNPARAM=b, so its absence proves nothing. *)
let check_usage_error dir label args needle =
  let code, out, err = run dir args in
  Alcotest.(check int) (label ^ ": exit 124; stderr: " ^ err) 124 code;
  Alcotest.(check bool)
    (label ^ ": no uncaught exception")
    false
    (contains err "uncaught exception");
  Alcotest.(check string) (label ^ ": nothing ran") "" out;
  Alcotest.(check int)
    (label ^ ": one-line error")
    1
    (List.length (String.split_on_char '\n' (String.trim err)));
  Alcotest.(check bool)
    (label ^ ": names " ^ needle ^ "; stderr: " ^ err)
    true (contains err needle)

(* -- repro chaos ----------------------------------------------------- *)

let test_chaos_deterministic_stdout () =
  (* Two identical chaos invocations must produce byte-identical
     stdout (reports and tables are deterministic; timings go to
     stderr).  --no-sweep keeps the test fast; the fuzz phase is the
     randomized part anyway. *)
  with_scratch_dir (fun dir ->
      let code1, out1, err1 =
        run dir "chaos --quick --seed 5 --no-sweep --no-manifest"
      in
      let code2, out2, _ =
        run dir "chaos --quick --seed 5 --no-sweep --no-manifest"
      in
      Alcotest.(check int) ("first run exits 0; stderr: " ^ err1) 0 code1;
      Alcotest.(check int) "second run exits 0" 0 code2;
      Alcotest.(check string) "stdout byte-identical" out1 out2)

let test_chaos_violation_drill () =
  (* Seeded-bug structures under chaos: violations found, artifacts
     written and replayable, exit status inverted by --expect-bug. *)
  with_scratch_dir (fun dir ->
      let code, out, err =
        run dir
          "chaos --quick --structures counter-nocas --expect-bug --no-sweep \
           --no-manifest --out artifacts"
      in
      Alcotest.(check int) ("drill exits 0 under --expect-bug; stderr: " ^ err)
        0 code;
      Alcotest.(check bool) "violations reported" true (contains out "VIOLATION");
      let artifacts = Sys.readdir (Filename.concat dir "artifacts") in
      Alcotest.(check bool) "artifact files written" true
        (Array.length artifacts > 0);
      let body =
        read_file
          (Filename.concat (Filename.concat dir "artifacts") artifacts.(0))
      in
      Alcotest.(check bool) "artifact records the fault plan" true
        (contains body "faults:");
      (* The first printed reproduction command replays the violation:
         the same verdict, and exit 1 without --expect-bug. *)
      let lines = Array.of_list (String.split_on_char '\n' out) in
      let first prefix =
        let rec go i =
          if String.starts_with ~prefix lines.(i) then i else go (i + 1)
        in
        go 0
      in
      let block = first "VIOLATION [" and replay = first "  replay: repro " in
      let verdict =
        String.trim
          (String.concat "\n"
             (Array.to_list (Array.sub lines (block + 3) (replay - block - 3))))
      in
      let code, replayed, err =
        run dir
          (String.sub lines.(replay) 16 (String.length lines.(replay) - 16))
      in
      Alcotest.(check int) ("replay exits 1; stderr: " ^ err) 1 code;
      Alcotest.(check bool)
        ("replay reproduces the verdict: " ^ replayed)
        true
        (String.starts_with
           ~prefix:("counter-nocas: " ^ verdict ^ "\n  effective schedule: ")
           replayed);
      (* Without --expect-bug the same run must exit 1. *)
      let code, _, _ =
        run dir
          "chaos --quick --structures counter-nocas --no-sweep --no-manifest"
      in
      Alcotest.(check int) "violations exit 1" 1 code)

let test_chaos_manifest_records_faults () =
  with_scratch_dir (fun dir ->
      let code, _, err =
        run dir "chaos --quick --no-sweep --faults crash@5:0,casfail:*=0.2"
      in
      Alcotest.(check int) ("exits 0; stderr: " ^ err) 0 code;
      let body = read_file (manifest_path dir) in
      Alcotest.(check bool) "manifest has the faults key" true
        (contains body "\"faults\": \"crash@5:0,casfail:*=0.2\""))

let test_chaos_validation_errors () =
  with_scratch_dir (fun dir ->
      let rejected = check_usage_error dir in
      (* Out-of-range process id: one-line error, not a raw exception. *)
      rejected "bad proc id" "chaos -n 3 --faults crash@0:7 --no-sweep"
        "out of range";
      (* Crashing every process permanently is rejected up front. *)
      rejected "all-crash" "chaos -n 2 --faults crash@0:0,crash@0:1 --no-sweep"
        "all processes would crash";
      (* Unknown token names itself. *)
      rejected "bad token" "chaos --faults wibble --no-sweep" "wibble";
      (* Rates are checked as they are parsed: these used to run every
         trial as an invalid plan, skip it and report a clean pass. *)
      rejected "casfail rate >= 1"
        "chaos --quick --structures treiber --no-sweep --no-manifest --faults \
         casfail~1.5"
        "\"casfail~1.5\": casfail rate must be in [0,1)";
      rejected "negative stall length"
        "chaos --structures treiber --no-sweep --faults stall~0.1:-3"
        "\"stall~0.1:-3\": negative stall duration";
      (* A --replay schedule is parsed (under an explicit plan) before
         anything runs, and an empty structure list is refused. *)
      rejected "bad replay pid"
        "chaos --structures treiber --replay 0,x --faults none --no-sweep"
        "--replay: bad process id \"x\"";
      rejected "empty structures" "chaos --structures '' --no-sweep"
        "scenario has no structures")

let test_check_crash_validation () =
  with_scratch_dir (fun dir ->
      let rejected = check_usage_error dir in
      rejected "out-of-range crash"
        "check --structures cas-counter -n 3 --ops 2 --replay 0,1,2 --crash 0:9"
        "out of range";
      rejected "all-crash"
        "check --structures cas-counter -n 2 --ops 2 --replay 0,1 --crash \
         0:0,0:1"
        "all processes would crash";
      (* Malformed --replay, --tail and --structures values. *)
      rejected "bad replay pid" "check --structures treiber --replay x"
        "--replay: bad process id \"x\"";
      rejected "empty replay" "check --structures treiber --replay ''"
        "--replay: empty schedule";
      rejected "bad tail" "check --structures treiber --replay 0,1 --tail bogus"
        "unknown --tail \"bogus\"";
      rejected "empty structures" "check --structures ''"
        "scenario has no structures";
      rejected "comma structures" "check --structures ,"
        "scenario has no structures")

let test_load_bad_ns_rejected () =
  (* Regression: a typo in --ns used to be parsed to the empty list,
     silently ignored without --slo and reported as "--ns needs at
     least two worker counts" with it.  It must name the bad token and
     exit with a usage error in both cases. *)
  with_scratch_dir (fun dir ->
      let check_rejected label args =
        check_usage_error dir label args "\"x\" is not an integer worker count"
      in
      check_rejected "without --slo" "load --clients 2 --ops 1 --ns 2,4,x";
      check_rejected "with --slo"
        "load --clients 2 --ops 1 --slo --slo-requests 1 --ns 2,4,x")

let test_check_bad_crash_spec_rejected () =
  (* Regression: the T:P parser's catch-all turned every malformed
     --crash into the same message.  It must name the bad component. *)
  with_scratch_dir (fun dir ->
      check_usage_error dir "bad component"
        "check --structures cas-counter -n 2 --ops 2 --replay 0,1 --crash \
         5:1,bogus"
        "component \"bogus\" is not T:P";
      (* A spec with the right shape but a non-integer field. *)
      let code, _, err =
        run dir
          "check --structures cas-counter -n 2 --ops 2 --replay 0,1 --crash 5:p"
      in
      Alcotest.(check bool) "5:p rejected" true (code <> 0);
      Alcotest.(check bool) "5:p named" true
        (contains err "component \"5:p\" is not T:P"))

let test_replay_only_flags_rejected () =
  (* --crash and --mix-seed only mean something to --replay; without it
     they used to be parsed and then ignored. *)
  with_scratch_dir (fun dir ->
      let rejected = check_usage_error dir in
      rejected "check --crash"
        "check --mode explore --structures cas-counter -n 2 --ops 2 --crash 0:1"
        "--crash needs --replay";
      rejected "check --mix-seed"
        "check --mode explore --structures cas-counter -n 2 --ops 2 --mix-seed \
         3"
        "--mix-seed needs --replay";
      rejected "chaos --mix-seed"
        "chaos --quick --structures treiber --no-sweep --no-manifest --mix-seed \
         3"
        "--mix-seed needs --replay")

(* -- Legacy stdout pinned against golden files ------------------------ *)

(* `repro check` and `repro chaos` now route through Scenario.t; the
   goldens under test/golden/ were captured from the pre-scenario
   binary, so these diffs are the proof that the legacy flags really
   are thin translations.  Wall-clock substrings ("(0.03s)", "in
   1.2s") are normalized to "(Ts)"/"Ts"; chaos stdout is time-free. *)

let normalize_times s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let is_digit c = c >= '0' && c <= '9' in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j < n && is_digit s.[!j] do
      incr j
    done;
    if
      !j > !i && !j + 1 < n
      && s.[!j] = '.'
      && is_digit s.[!j + 1]
    then begin
      let k = ref (!j + 1) in
      while !k < n && is_digit s.[!k] do
        incr k
      done;
      if !k < n && s.[!k] = 's' then begin
        Buffer.add_string buf "Ts";
        i := !k + 1
      end
      else begin
        Buffer.add_substring buf s !i (!k - !i);
        i := !k
      end
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let golden name = normalize_times (read_file (Filename.concat "golden" name))

let golden_case name args expected_code =
  Alcotest.test_case name `Quick (fun () ->
      with_scratch_dir (fun dir ->
          let code, out, err = run dir args in
          Alcotest.(check int) (name ^ " exit code; stderr: " ^ err)
            expected_code code;
          Alcotest.(check string)
            (name ^ " stdout byte-identical (mod timings)")
            (golden (name ^ ".txt"))
            (normalize_times out)))

let golden_cases =
  [
    golden_case "check-explore-fuzz" "check --mode explore,fuzz --seed 0" 0;
    golden_case "check-conform" "check --mode conform --seed 0" 0;
    golden_case "check-drill-nocas"
      "check --mode explore --structures counter-nocas,treiber-nocas -n 2 \
       --ops 2 --expect-bug"
      0;
    golden_case "check-drill-msq"
      "check --mode explore --structures msqueue-nocas -n 4 --ops 1 \
       --expect-bug"
      0;
    golden_case "chaos-quick-seed0" "chaos --quick --no-manifest" 0;
    golden_case "chaos-quick-seed42" "chaos --quick --seed 42 --no-manifest" 0;
    golden_case "chaos-drill"
      "chaos --quick --structures counter-nocas --no-sweep --no-manifest \
       --seed 0"
      1;
    (* Captured from the build predating the fault layer: a run without
       --faults/--deadline/... must keep the historical step sequence,
       so any drift here means the dispatch loop's fault bookkeeping
       started costing simulated steps or RNG draws. *)
    golden_case "load-seed0"
      "load --structures all --clients 20000 --seed 0 --no-progress" 0;
    golden_case "serve-seed0"
      "serve --structures counter --clients 5000 --windows 3 --seed 0 \
       --no-progress"
      0;
    (* Ok, retried and timed-out requests, with retries, crash
       redeliveries, hedges, restarts and spurious CAS all non-zero:
       pins a faulted run's quantiles and per-kind rows, not just its
       outcome counts. *)
    golden_case "load-faulted-seed0"
      "load --structures all --clients 4000 --ops 3 --seed 0 --faults \
       standard --deadline 400 --retries 2 --hedge 150 --no-progress"
      0;
    (* The open loop: successors are scheduled at dispatch, not at
       completion, so a bursty arrival stream builds a backlog. *)
    golden_case "load-open-seed3"
      "load --structures all --clients 20000 --seed 3 --mode open --arrival \
       bursty --rate 0.01 --no-progress"
      0;
    (* Rate-generated plans read past the executor's cursor.  Rescue of
       a worker crashed for good (three of them, redelivered=7): *)
    golden_case "load-rescue-seed2"
      "load --structure counter --clients 2000 --workers 4 --shards 1 --seed \
       2 --faults crash~0.05,recover~0.0005 --max-steps 5000 --no-progress"
      0;
    (* An explicit crash merged into a walk, and one rescue: *)
    golden_case "load-explicit-walk-seed3"
      "load --structure counter --clients 100 --workers 4 --shards 1 --seed \
       3 --faults crash@30:2,stall~0.01:3 --no-progress"
      0;
    (* Every worker down at once, so the executor scans ahead for the
       next restart: *)
    golden_case "load-all-down-seed1"
      "load --structure counter --clients 300 --workers 3 --shards 1 --seed \
       1 --faults crash@20:1,crash~0.01,recover~0.02 --max-steps 3000 \
       --no-progress"
      0;
  ]

(* -- repro load: faults and policies ---------------------------------- *)

let faulted_load_args =
  "load --structures counter --clients 4000 --workers 4 --shards 4 --objects \
   8 --seed 0 --no-progress --faults standard --deadline 400 --retries 2"

let test_load_faulted_deterministic () =
  (* Same seed, same faults, same bytes: across repeats and across -j,
     for both stdout and the manifest. *)
  with_scratch_dir (fun dir ->
      let go extra out =
        run dir (Printf.sprintf "%s %s --out %s" faulted_load_args extra out)
      in
      let code1, out1, err1 = go "-j1" "m1.json" in
      let code2, out2, _ = go "-j1" "m2.json" in
      let code4, out4, _ = go "-j4" "m4.json" in
      Alcotest.(check int) ("first run exits 0; stderr: " ^ err1) 0 code1;
      Alcotest.(check int) "repeat exits 0" 0 code2;
      Alcotest.(check int) "-j4 exits 0" 0 code4;
      Alcotest.(check string) "stdout identical across repeats" out1 out2;
      Alcotest.(check string) "stdout identical across -j" out1 out4;
      let m s = read_file (Filename.concat dir s) in
      Alcotest.(check string) "manifest identical across repeats" (m "m1.json")
        (m "m2.json");
      Alcotest.(check string) "manifest identical across -j" (m "m1.json")
        (m "m4.json");
      Alcotest.(check bool) "manifest carries the fault schema" true
        (contains (m "m1.json") "repro-load-manifest/2");
      Alcotest.(check bool) "stdout reports the outcome taxonomy" true
        (contains out1 "outcomes: ok=");
      Alcotest.(check bool) "stdout reports the error budget" true
        (contains out1 "error-budget: availability="))

let test_load_outage_drill () =
  (* Permanently crash both workers of both shards: the service must
     degrade (all requests dropped), name the stopped shards on stderr,
     exit 1 and still write the manifest artifact. *)
  with_scratch_dir (fun dir ->
      let code, out, err =
        run dir
          "load --structures counter --clients 200 --workers 2 --shards 2 \
           --seed 0 --no-progress --faults crash@0:0,crash@0:1 --out \
           outage.json"
      in
      Alcotest.(check int) "outage exits 1" 1 code;
      Alcotest.(check bool) ("stderr names the shards: " ^ err) true
        (contains err "shards 0,1 stopped early");
      Alcotest.(check bool) ("stderr names the outage: " ^ err) true
        (contains err "total outage");
      Alcotest.(check bool) ("stderr does not blame the step budget: " ^ err)
        false
        (contains err "--max-steps");
      Alcotest.(check bool) ("stdout names the outage: " ^ out) true
        (contains out "STOPPED EARLY (total outage; shards 0,1)");
      Alcotest.(check bool) "stdout reports the drops" true
        (contains out "dropped=200");
      let manifest = read_file (Filename.concat dir "outage.json") in
      Alcotest.(check bool) "manifest still written" true
        (contains manifest "\"stopped_early\": true"))

let test_load_policy_flags_validated () =
  with_scratch_dir (fun dir ->
      let rejected = check_usage_error dir in
      rejected "retries without deadline"
        "load --clients 10 --retries 2 --no-progress" "retries need a deadline";
      rejected "no clients" "load --clients 0 --no-progress"
        "need at least one client";
      rejected "bad fault token"
        "load --clients 10 --faults wibble --no-progress" "wibble";
      (* Bad rates: the first two used to escape as an uncaught
         Invalid_argument from the executor, the rest to run (crash~nan
         and recover~-1 silently dropped from the header). *)
      List.iter
        (fun (faults, needle) ->
          rejected ("rate " ^ faults)
            ("load --structure counter --clients 50 --workers 2 --shards 1 \
              --no-progress --faults " ^ faults)
            needle)
        [
          ("casfail~1.5", "\"casfail~1.5\": casfail rate must be in [0,1)");
          ("stall~0.1:-3", "\"stall~0.1:-3\": negative stall duration");
          ("crash~2", "\"crash~2\": crash rate must be in [0,1]");
          ("crash~nan", "\"crash~nan\": crash rate must be in [0,1]");
          ("recover~-1,crash~0.1", "\"recover~-1\": recover rate must be in [0,1]");
        ];
      rejected "serve casfail rate >= 1"
        "serve --clients 10 --windows 1 --no-progress --faults casfail~1.5"
        "\"casfail~1.5\"";
      rejected "--expect-degraded without a tier"
        "load --clients 10 --expect-degraded --faults crash@5:0 --no-progress"
        "named tier")

let test_serve_error_budget () =
  (* A faulted soak must report one error-budget line per window, the
     final soak verdict, and stream deterministic JSONL manifests. *)
  with_scratch_dir (fun dir ->
      let args out =
        Printf.sprintf
          "serve --structures counter --clients 2000 --workers 4 --shards 2 \
           --objects 8 --windows 2 --seed 0 --no-progress --faults standard \
           --deadline 400 --retries 2 --out %s"
          out
      in
      let code1, out1, err1 = run dir (args "s1.jsonl") in
      let code2, out2, _ = run dir (args "s2.jsonl") in
      Alcotest.(check int) ("first soak exits 0; stderr: " ^ err1) 0 code1;
      Alcotest.(check int) "second soak exits 0" 0 code2;
      Alcotest.(check string) "stdout identical across repeats" out1 out2;
      Alcotest.(check string) "JSONL stream identical across repeats"
        (read_file (Filename.concat dir "s1.jsonl"))
        (read_file (Filename.concat dir "s2.jsonl"));
      Alcotest.(check bool) "per-window error budget rendered" true
        (contains out1 "error-budget: availability=");
      Alcotest.(check bool) "soak verdict printed" true
        (contains out1 "serve: 2 window(s): ok="))

(* -- Fault specs and trial accounting ---------------------------------- *)

let test_tier_names_everywhere () =
  (* A tier name is a whole fault spec in every subcommand, as it
     always was for load and serve. *)
  with_scratch_dir (fun dir ->
      let chaos faults =
        run dir ("chaos --quick --no-sweep --no-manifest --faults " ^ faults)
      in
      let code, named, err = chaos "standard" in
      Alcotest.(check int) ("--faults standard exits 0; stderr: " ^ err) 0 code;
      let code, spelled, _ =
        chaos "crash~0.002,recover~0.05,stall~0.002:3,casfail~0.02"
      in
      Alcotest.(check int) "spelled-out rates exit 0" 0 code;
      Alcotest.(check string) "same stdout as the rates spelled out" spelled
        named;
      let code, out, err = run dir "scenario --spec 'faults=chaos' --print" in
      Alcotest.(check int) ("faults=chaos exits 0; stderr: " ^ err) 0 code;
      Alcotest.(check bool) ("chaos rates written out: " ^ out) true
        (contains out ";faults=crash~0.01,recover~0.05,stall~0.01:5,casfail~0.1;"))

let test_no_trial_fails () =
  (* With crash@0:2 every crash~1 draw crashes the other two processes
     too, so no plan keeps a survivor and every trial is skipped.  That
     tested nothing: the run must fail and say for which structure. *)
  with_scratch_dir (fun dir ->
      let spec =
        "'structures=treiber-nocas;n=3;ops=2;sources=chaos;faults=crash@0:2,crash~1'"
      in
      let fails label args =
        let code, out, err = run dir args in
        Alcotest.(check int) (label ^ " exits 1; stderr: " ^ err) 1 code;
        Alcotest.(check int)
          (label ^ ": one stderr line names the structure; stderr: " ^ err)
          1
          (List.length
             (List.filter
                (fun l -> contains l "no chaos trial ran for treiber-nocas")
                (String.split_on_char '\n' err)));
        out
      in
      let out =
        fails "chaos"
          "chaos --quick --structures treiber-nocas --no-sweep --no-manifest \
           --faults crash@0:2,crash~1"
      in
      Alcotest.(check bool) ("chaos reports trials=0: " ^ out) true
        (contains out "treiber-nocas  trials=0 failures=0");
      let out = fails "scenario" ("scenario --spec " ^ spec) in
      Alcotest.(check bool) ("scenario counts 0 trials: " ^ out) true
        (contains out "across 0 trial(s)");
      let out =
        fails "preflight"
          ("run fig1 --quick --no-progress --no-manifest --preflight " ^ spec)
      in
      Alcotest.(check string) "no experiment ran" "" out)

(* -- Every subcommand's options --------------------------------------- *)

(* The option lines of each subcommand's `--help=plain` (names, value
   names and defaults) as they were before the front end was cut down
   to one parser per input, so no flag is lost, renamed or given
   another default.  The -j default is this machine's core count. *)
let pinned_options =
  let jobs = string_of_int (Pool.default_size ()) in
  [
    ( "list",
      [
      ] );
    ( "run",
      [
        "--cache";
        "--csv";
        "--fault=LABEL:K";
        "-j N, --jobs=N (absent=" ^ jobs ^ ")";
        "--no-backoff";
        "--no-manifest";
        "--no-progress";
        "--out=DIR";
        "--preflight=SCENARIO";
        "--quick";
        "--resume=MANIFEST";
        "--retries=N (absent=2)";
        "--seed=N (absent=0)";
        "--timeout=SECONDS";
      ] );
    ( "bench",
      [
        "--full";
        "--gate=BASELINE";
        "--no-progress";
        "--out=FILE";
        "--preflight=SCENARIO";
        "--repeat=N (absent=1)";
        "--seed=N (absent=0)";
      ] );
    ( "check",
      [
        "--crash=T:P[,T:P...]";
        "--expect-bug";
        "--long";
        "--mix-seed=N";
        "--mode=MODES (absent=explore,fuzz,conform)";
        "-n N, --procs=N (absent=3)";
        "--ops=K (absent=2)";
        "--out=DIR";
        "--replay=SCHEDULE";
        "--seed=N (absent=0)";
        "--structures=NAMES (absent=stock)";
        "--tail=MODE (absent=stop)";
      ] );
    ( "chaos",
      [
        "--expect-bug";
        "--faults=SPEC";
        "--mix-seed=N";
        "-n N, --procs=N (absent=3)";
        "--no-manifest";
        "--no-sweep";
        "--ops=K (absent=2)";
        "--out=DIR";
        "--quick";
        "--replay=SCHEDULE";
        "--seed=N (absent=0)";
        "--structures=NAMES (absent=stock)";
        "--trials=N";
      ] );
    ( "scenario",
      [
        "--expect-bug";
        "--list";
        "-n N, --procs=N";
        "--ops=K";
        "--out=DIR";
        "--preset=NAME";
        "--print";
        "--seed=N";
        "--spec=SPEC";
        "--structures=NAMES";
      ] );
    ( "load",
      [
        "--alpha=A (absent=1.1)";
        "--arrival=KIND (absent=poisson)";
        "--backoff=STEPS (absent=16)";
        "--burst=N (absent=8)";
        "--clients=N (absent=100000)";
        "--deadline=STEPS (absent=0)";
        "--expect-degraded";
        "--expect-pass";
        "--faults=SPEC";
        "--hedge=STEPS (absent=0)";
        "--idle=STEPS (absent=200.)";
        "-j N, --jobs=N (absent=" ^ jobs ^ ")";
        "--max-steps=N (absent=200000000)";
        "--mode=MODE (absent=closed)";
        "--no-progress";
        "--ns=N,N,... (absent=2,4,8)";
        "--objects=N (absent=64)";
        "--ops=K (absent=1)";
        "--out=FILE";
        "--rate=R (absent=0.02)";
        "--retries=N (absent=0)";
        "--seed=N (absent=0)";
        "--shards=N (absent=8)";
        "--slo";
        "--slo-requests=N (absent=40000)";
        "--structures=NAMES, --structure=NAMES (absent=counter)";
        "--think=STEPS (absent=0.)";
        "--workers=N (absent=8)";
      ] );
    ( "serve",
      [
        "--alpha=A (absent=1.1)";
        "--arrival=KIND (absent=poisson)";
        "--backoff=STEPS (absent=16)";
        "--burst=N (absent=8)";
        "--clients=N (absent=100000)";
        "--deadline=STEPS (absent=0)";
        "--faults=SPEC";
        "--hedge=STEPS (absent=0)";
        "--idle=STEPS (absent=200.)";
        "-j N, --jobs=N (absent=" ^ jobs ^ ")";
        "--max-steps=N (absent=200000000)";
        "--mode=MODE (absent=closed)";
        "--no-progress";
        "--objects=N (absent=64)";
        "--ops=K (absent=1)";
        "--out=FILE";
        "--rate=R (absent=0.02)";
        "--retries=N (absent=0)";
        "--seed=N (absent=0)";
        "--shards=N (absent=8)";
        "--slo-target=A (absent=0.999)";
        "--structures=NAMES, --structure=NAMES (absent=counter)";
        "--think=STEPS (absent=0.)";
        "--windows=N (absent=5)";
        "--workers=N (absent=8)";
      ] );
  ]

let test_options_pinned () =
  with_scratch_dir (fun dir ->
      List.iter
        (fun (cmd, want) ->
          let code, out, err = run dir (cmd ^ " --help=plain") in
          Alcotest.(check int) (cmd ^ " --help exits 0; stderr: " ^ err) 0 code;
          let got =
            String.split_on_char '\n' out
            |> List.filter (String.starts_with ~prefix:"       -")
            |> List.map String.trim
            |> List.filter (fun l ->
                   l <> "--help[=FMT] (default=auto)" && l <> "--version")
          in
          Alcotest.(check (list string)) (cmd ^ " options") want got)
        pinned_options)

(* -- repro scenario --------------------------------------------------- *)

let test_scenario_list () =
  with_scratch_dir (fun dir ->
      let code, out, err = run dir "scenario --list" in
      Alcotest.(check int) ("exits 0; stderr: " ^ err) 0 code;
      List.iter
        (fun preset ->
          Alcotest.(check bool) (preset ^ " listed") true (contains out preset))
        [ "quick"; "standard"; "century"; "chaos" ])

let test_scenario_print_roundtrip () =
  (* --print emits the canonical spec; feeding it back through --spec
     must print the same spec — the CLI-level roundtrip. *)
  with_scratch_dir (fun dir ->
      let code, spec, err = run dir "scenario --preset quick --print" in
      Alcotest.(check int) ("print exits 0; stderr: " ^ err) 0 code;
      let code, spec', _ =
        run dir (Printf.sprintf "scenario --spec '%s' --print" (String.trim spec))
      in
      Alcotest.(check int) "re-print exits 0" 0 code;
      Alcotest.(check string) "canonical spec is a fixed point" spec spec')

let test_scenario_preset_run () =
  with_scratch_dir (fun dir ->
      let code, out, err =
        run dir "scenario --preset quick --structures cas-counter"
      in
      Alcotest.(check int) ("clean run exits 0; stderr: " ^ err) 0 code;
      Alcotest.(check bool) "prints the resolved spec" true
        (contains out "scenario: structures=cas-counter");
      Alcotest.(check bool) "explore progress line" true
        (contains out "[explore]");
      Alcotest.(check bool) "no violations" true
        (contains out "0 violation(s)"))

let test_scenario_shadow_drill () =
  (* The misreport mutant under a shadow-only gate: violations found,
     the verdict names the shadow divergence, --expect-bug inverts the
     exit status, and --out writes artifacts embedding the spec and a
     replay spec. *)
  with_scratch_dir (fun dir ->
      let code, out, err =
        run dir
          "scenario --spec \
           'structures=counter-misreport;n=2;ops=2;sources=explore;gates=shadow;budget=explore:1500x32,fuzz:30x2,chaos:8,conform:smoke' \
           --expect-bug --out artifacts"
      in
      Alcotest.(check int)
        ("drill exits 0 under --expect-bug; stderr: " ^ err)
        0 code;
      Alcotest.(check bool) "violations reported" true
        (contains out "VIOLATION [counter-misreport/explore]");
      Alcotest.(check bool) "verdict names the shadow divergence" true
        (contains out "shadow-state divergence");
      Alcotest.(check bool) "replay command printed" true
        (contains out "replay: repro scenario --spec");
      let artifacts = Sys.readdir (Filename.concat dir "artifacts") in
      Alcotest.(check bool) "artifacts written" true (Array.length artifacts > 0);
      let body =
        read_file
          (Filename.concat (Filename.concat dir "artifacts") artifacts.(0))
      in
      Alcotest.(check bool) "artifact embeds the scenario spec" true
        (contains body "spec: structures=counter-misreport");
      Alcotest.(check bool) "artifact embeds a replay spec" true
        (contains body "replay-spec: ");
      (* Without --expect-bug the same drill must exit 1. *)
      let code, _, _ =
        run dir
          "scenario --spec \
           'structures=counter-misreport;n=2;ops=2;sources=explore;gates=shadow;budget=explore:1500x32,fuzz:30x2,chaos:8,conform:smoke'"
      in
      Alcotest.(check int) "violations exit 1" 1 code)

let test_scenario_bad_spec_rejected () =
  with_scratch_dir (fun dir ->
      check_usage_error dir "bad token" "scenario --spec 'n=two'"
        "bad --spec token";
      check_usage_error dir "bad fault rate"
        "scenario --spec \
         'structures=treiber;n=2;ops=2;sources=chaos;faults=casfail~1.5'"
        "\"casfail~1.5\": casfail rate must be in [0,1)";
      let code, _, err = run dir "scenario --preset quick --spec 'n=2'" in
      Alcotest.(check bool) "--preset+--spec rejected" true (code <> 0);
      Alcotest.(check bool) "mutual exclusion named" true
        (contains err "mutually exclusive"))

let test_run_preflight_gate () =
  (* --preflight on the sweep drivers: a clean scenario lets the sweep
     run; a failing one aborts before any experiment. *)
  with_scratch_dir (fun dir ->
      let code, _, err =
        run dir
          "run fig1 --quick --no-progress --preflight \
           'structures=cas-counter;n=2;ops=2;sources=explore;gates=lin,shadow;budget=explore:500x16,fuzz:30x2,chaos:8,conform:smoke'"
      in
      Alcotest.(check int) ("clean preflight passes; stderr: " ^ err) 0 code;
      let code, out, err =
        run dir
          "run fig1 --quick --no-progress --preflight \
           'structures=counter-nocas;n=2;ops=2;sources=explore;gates=lin;budget=explore:1500x32,fuzz:30x2,chaos:8,conform:smoke'"
      in
      Alcotest.(check bool) "failing preflight aborts" true (code <> 0);
      Alcotest.(check bool) "abort names the preflight" true
        (contains err "preflight");
      Alcotest.(check string) "no experiment ran" "" out)

let () =
  Alcotest.run "cli"
    [
      ( "recovery",
        [
          Alcotest.test_case "fault recovered, stdout identical" `Quick
            test_fault_recovery;
          Alcotest.test_case "REPRO_FAULT env" `Quick test_env_fault;
          Alcotest.test_case "permanent give-up exits 1" `Quick
            test_permanent_failure;
        ] );
      ( "resume",
        [
          Alcotest.test_case "truncated manifest, stdout identical" `Quick
            test_resume_truncated_manifest;
        ] );
      ( "validation",
        [
          Alcotest.test_case "--out under a file fails fast" `Quick
            test_out_under_file_fails_fast;
          Alcotest.test_case "bad fault spec rejected" `Quick
            test_bad_fault_spec_rejected;
          Alcotest.test_case "chaos --faults validated" `Quick
            test_chaos_validation_errors;
          Alcotest.test_case "check --crash validated" `Quick
            test_check_crash_validation;
          Alcotest.test_case "load --ns typo named" `Quick
            test_load_bad_ns_rejected;
          Alcotest.test_case "check --crash bad component named" `Quick
            test_check_bad_crash_spec_rejected;
          Alcotest.test_case "replay-only flags need --replay" `Quick
            test_replay_only_flags_rejected;
          Alcotest.test_case "options and defaults pinned" `Quick
            test_options_pinned;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "stdout deterministic" `Quick
            test_chaos_deterministic_stdout;
          Alcotest.test_case "violation drill + artifacts" `Quick
            test_chaos_violation_drill;
          Alcotest.test_case "manifest records faults" `Quick
            test_chaos_manifest_records_faults;
          Alcotest.test_case "tier names in every --faults" `Quick
            test_tier_names_everywhere;
          Alcotest.test_case "no trial run fails the run" `Quick
            test_no_trial_fails;
        ] );
      ("golden", golden_cases);
      ( "load-robust",
        [
          Alcotest.test_case "faulted run deterministic" `Quick
            test_load_faulted_deterministic;
          Alcotest.test_case "outage drill exits 1" `Quick
            test_load_outage_drill;
          Alcotest.test_case "policy flags validated" `Quick
            test_load_policy_flags_validated;
          Alcotest.test_case "serve error budget" `Quick
            test_serve_error_budget;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "--list names the presets" `Quick
            test_scenario_list;
          Alcotest.test_case "--print spec is a fixed point" `Quick
            test_scenario_print_roundtrip;
          Alcotest.test_case "--preset quick clean run" `Quick
            test_scenario_preset_run;
          Alcotest.test_case "shadow drill + artifacts" `Quick
            test_scenario_shadow_drill;
          Alcotest.test_case "bad --spec rejected" `Quick
            test_scenario_bad_spec_rejected;
          Alcotest.test_case "run --preflight gates the sweep" `Quick
            test_run_preflight_gate;
        ] );
    ]
