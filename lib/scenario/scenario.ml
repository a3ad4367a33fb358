(* Declarative scenarios over the Check engines.  A scenario is pure
   data (structures are names, resolved at run time), so values compare
   structurally and the spec grammar round-trips; the runner is a thin
   deterministic dispatcher that reuses Explore/Fuzz/Chaos/Schedule
   verbatim — `repro check` and `repro chaos` route through it with
   their historical stdout unchanged. *)

module Checkable = Scu.Checkable
module Fault_plan = Sched.Fault_plan
module Schedule = Check.Schedule

type source =
  | Explore
  | Fuzz
  | Chaos
  | Replay of { schedule : int array; tail : Check.Schedule.tail }
  | Load of { clients : int; ops_per_client : int }

type gate = Lin | Shadow | Conform

type budget = {
  explore_nodes : int;
  explore_depth : int;
  fuzz_trials : int;
  sched_trials : int;
  chaos_trials : int;
  long_conform : bool;
}

type t = {
  structures : string list;
  n : int;
  ops : int;
  seed : int;
  mix_seed : int option;
  faults : Sched.Fault_plan.spec;
  sources : source list;
  gates : gate list;
  budget : budget;
}

let stock_names = List.map (fun (s : Checkable.t) -> s.name) Checkable.stock
let all_names = List.map (fun (s : Checkable.t) -> s.name) Checkable.all

(* Structure lists: the one check that names are Checkable names, and
   the one parser of `stock` / `all` / `a,b` (empty entries dropped;
   an empty list is left to [validate] or the caller). *)
let check_structures names =
  match
    List.find_opt
      (fun name ->
        match Checkable.find name with
        | _ -> false
        | exception Invalid_argument _ -> true)
      names
  with
  | Some unknown -> Error (Printf.sprintf "unknown structure %S" unknown)
  | None -> Ok names

let parse_structures = function
  | "stock" -> Ok stock_names
  | "all" -> Ok all_names
  | names ->
      check_structures
        (List.filter (fun x -> x <> "") (String.split_on_char ',' names))

let rates_spec rates = { Fault_plan.base = Fault_plan.none; rates }

(* Presets.  Budgets scale roughly 1 : 10 : 50 across quick / standard
   / century; the chaos tier trades exploration for fault pressure. *)

let quick =
  {
    structures = stock_names;
    n = 2;
    ops = 2;
    seed = 0;
    mix_seed = None;
    faults = rates_spec Fault_plan.quick_rates;
    sources = [ Explore; Fuzz ];
    gates = [ Lin; Shadow ];
    budget =
      {
        explore_nodes = 2_000;
        explore_depth = 32;
        fuzz_trials = 60;
        sched_trials = 2;
        chaos_trials = 15;
        long_conform = false;
      };
  }

let standard =
  {
    quick with
    faults = rates_spec Fault_plan.standard_rates;
    sources = [ Explore; Fuzz; Chaos ];
    budget =
      {
        explore_nodes = 20_000;
        explore_depth = 64;
        fuzz_trials = 300;
        sched_trials = 4;
        chaos_trials = 60;
        long_conform = false;
      };
  }

let century =
  {
    standard with
    faults = rates_spec Fault_plan.century_rates;
    gates = [ Lin; Shadow; Conform ];
    budget =
      {
        explore_nodes = 200_000;
        explore_depth = 96;
        fuzz_trials = 1_500;
        sched_trials = 8;
        chaos_trials = 240;
        long_conform = true;
      };
  }

let chaos =
  {
    standard with
    faults = rates_spec Fault_plan.chaos_rates;
    sources = [ Fuzz; Chaos ];
    budget =
      {
        explore_nodes = 20_000;
        explore_depth = 64;
        fuzz_trials = 600;
        sched_trials = 4;
        chaos_trials = 120;
        long_conform = false;
      };
  }

let presets =
  [ ("quick", quick); ("standard", standard); ("century", century); ("chaos", chaos) ]

let preset name = List.assoc_opt name presets

(* Builder. *)

let make ?n ?ops ?seed ?mix_seed ?faults ?sources ?gates ?budget ~structures ()
    =
  {
    structures;
    n = Option.value n ~default:standard.n;
    ops = Option.value ops ~default:standard.ops;
    seed = Option.value seed ~default:standard.seed;
    mix_seed;
    faults = Option.value faults ~default:standard.faults;
    sources = Option.value sources ~default:standard.sources;
    gates = Option.value gates ~default:standard.gates;
    budget = Option.value budget ~default:standard.budget;
  }

let with_structures structures t = { t with structures }
let with_workload ~n ~ops t = { t with n; ops }
let with_seed seed t = { t with seed }
let with_faults faults t = { t with faults }
let with_sources sources t = { t with sources }
let with_gates gates t = { t with gates }
let with_budget budget t = { t with budget }

(* Spec grammar: `;`-separated key=value fields.  Canonical printing is
   fully explicit in a fixed field order; the parser accepts any order
   (an optional leading preset=NAME replaces the implicit [standard]
   base) and reports one-line errors naming the bad token. *)

let source_to_string = function
  | Explore -> "explore"
  | Fuzz -> "fuzz"
  | Chaos -> "chaos"
  | Replay { schedule; tail } ->
      Printf.sprintf "replay@%s:%s"
        (String.concat "."
           (List.map string_of_int (Array.to_list schedule)))
        (match tail with Check.Schedule.Stop -> "stop" | Round_robin -> "rr")
  | Load { clients; ops_per_client } ->
      Printf.sprintf "load@%dx%d" clients ops_per_client

let gate_to_string = function
  | Lin -> "lin"
  | Shadow -> "shadow"
  | Conform -> "conform"

let budget_to_string b =
  Printf.sprintf "explore:%dx%d,fuzz:%dx%d,chaos:%d,conform:%s" b.explore_nodes
    b.explore_depth b.fuzz_trials b.sched_trials b.chaos_trials
    (if b.long_conform then "long" else "smoke")

let to_string t =
  String.concat ";"
    ([
       "structures=" ^ String.concat "," t.structures;
       Printf.sprintf "n=%d" t.n;
       Printf.sprintf "ops=%d" t.ops;
       Printf.sprintf "seed=%d" t.seed;
     ]
    @ (match t.mix_seed with
      | None -> []
      | Some m -> [ Printf.sprintf "mix=%d" m ])
    @ [
        "faults=" ^ Fault_plan.spec_to_string t.faults;
        "sources=" ^ String.concat "," (List.map source_to_string t.sources);
        "gates=" ^ String.concat "," (List.map gate_to_string t.gates);
        "budget=" ^ budget_to_string t.budget;
      ])

let bad token fmt =
  Printf.ksprintf (fun msg -> Error (Printf.sprintf "bad --spec token %S: %s" token msg)) fmt

let parse_int token what s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> bad token "%S is not an integer (%s)" s what


let parse_source token s =
  match s with
  | "explore" -> Ok Explore
  | "fuzz" -> Ok Fuzz
  | "chaos" -> Ok Chaos
  | _ when String.length s > 7 && String.sub s 0 7 = "replay@" -> (
      let rest = String.sub s 7 (String.length s - 7) in
      match String.rindex_opt rest ':' with
      | None -> bad token "replay source %S needs a :stop or :rr tail" s
      | Some i -> (
          let sched = String.sub rest 0 i in
          let tail = String.sub rest (i + 1) (String.length rest - i - 1) in
          let entries =
            List.filter (fun x -> x <> "") (String.split_on_char '.' sched)
          in
          let ints = List.filter_map int_of_string_opt entries in
          if List.length ints <> List.length entries then
            bad token "replay schedule %S is not dot-separated ints" sched
          else
            match tail with
            | "stop" ->
                Ok
                  (Replay
                     {
                       schedule = Array.of_list ints;
                       tail = Check.Schedule.Stop;
                     })
            | "rr" ->
                Ok
                  (Replay
                     {
                       schedule = Array.of_list ints;
                       tail = Check.Schedule.Round_robin;
                     })
            | _ -> bad token "replay tail %S is not stop or rr" tail))
  | _ when String.length s > 5 && String.sub s 0 5 = "load@" -> (
      let rest = String.sub s 5 (String.length s - 5) in
      match String.index_opt rest 'x' with
      | None -> bad token "load source %S is not load@CLIENTSxOPS" s
      | Some i -> (
          let c = String.sub rest 0 i in
          let o = String.sub rest (i + 1) (String.length rest - i - 1) in
          match (int_of_string_opt c, int_of_string_opt o) with
          | Some clients, Some ops_per_client ->
              Ok (Load { clients; ops_per_client })
          | _ -> bad token "load source %S is not load@CLIENTSxOPS" s))
  | _ -> bad token "unknown source %S" s

let parse_gate token s =
  match s with
  | "lin" -> Ok Lin
  | "shadow" -> Ok Shadow
  | "conform" -> Ok Conform
  | _ -> bad token "unknown gate %S" s

let rec collect f token acc = function
  | [] -> Ok (List.rev acc)
  | x :: rest -> (
      match f token x with
      | Ok v -> collect f token (v :: acc) rest
      | Error _ as e -> e)

let parse_budget_component token b s =
  match String.index_opt s ':' with
  | None -> bad token "budget component %S is not KEY:VALUE" s
  | Some i -> (
      let key = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      let pair what =
        match String.index_opt v 'x' with
        | None -> bad token "budget %s %S is not AxB" what v
        | Some j -> (
            let a = String.sub v 0 j in
            let b = String.sub v (j + 1) (String.length v - j - 1) in
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some a, Some b -> Ok (a, b)
            | _ -> bad token "budget %s %S is not AxB" what v)
      in
      match key with
      | "explore" ->
          Result.map
            (fun (nodes, depth) ->
              { b with explore_nodes = nodes; explore_depth = depth })
            (pair "explore")
      | "fuzz" ->
          Result.map
            (fun (trials, sched) ->
              { b with fuzz_trials = trials; sched_trials = sched })
            (pair "fuzz")
      | "chaos" ->
          Result.map
            (fun trials -> { b with chaos_trials = trials })
            (parse_int token "chaos trials" v)
      | "conform" -> (
          match v with
          | "smoke" -> Ok { b with long_conform = false }
          | "long" -> Ok { b with long_conform = true }
          | _ -> bad token "conform budget %S is not smoke or long" v)
      | _ -> bad token "unknown budget key %S" key)

let parse s =
  let s = String.trim s in
  let tokens =
    List.filter (fun x -> x <> "") (String.split_on_char ';' s)
  in
  if tokens = [] then Error "bad --spec: empty scenario spec"
  else
    let rec go i acc = function
      | [] -> Ok acc
      | token :: rest -> (
          match String.index_opt token '=' with
          | None -> bad token "not of the form key=value"
          | Some eq -> (
              let key = String.sub token 0 eq in
              let value =
                String.sub token (eq + 1) (String.length token - eq - 1)
              in
              let continue r =
                match r with
                | Ok acc -> go (i + 1) acc rest
                | Error _ as e -> e
              in
              match key with
              | "preset" -> (
                  if i > 0 then bad token "preset must be the first token"
                  else
                    match preset value with
                    | Some p -> go (i + 1) p rest
                    | None ->
                        bad token "unknown preset %S (known: %s)" value
                          (String.concat ", " (List.map fst presets)))
              | "structures" ->
                  continue
                    (match parse_structures value with
                    | Ok [] -> bad token "no structure names"
                    | Ok structures -> Ok { acc with structures }
                    | Error msg -> bad token "%s" msg)
              | "n" ->
                  continue
                    (Result.map
                       (fun n -> { acc with n })
                       (parse_int token "n" value))
              | "ops" ->
                  continue
                    (Result.map
                       (fun ops -> { acc with ops })
                       (parse_int token "ops" value))
              | "seed" ->
                  continue
                    (Result.map
                       (fun seed -> { acc with seed })
                       (parse_int token "seed" value))
              | "mix" ->
                  continue
                    (Result.map
                       (fun m -> { acc with mix_seed = Some m })
                       (parse_int token "mix" value))
              | "faults" -> (
                  match Fault_plan.parse_spec value with
                  | Ok faults -> go (i + 1) { acc with faults } rest
                  | Error msg -> bad token "%s" msg)
              | "sources" ->
                  continue
                    (Result.map
                       (fun sources -> { acc with sources })
                       (collect parse_source token []
                          (List.filter
                             (fun x -> x <> "")
                             (String.split_on_char ',' value))))
              | "gates" ->
                  continue
                    (Result.map
                       (fun gates -> { acc with gates })
                       (collect parse_gate token []
                          (List.filter
                             (fun x -> x <> "")
                             (String.split_on_char ',' value))))
              | "budget" ->
                  continue
                    (List.fold_left
                       (fun b c ->
                         match b with
                         | Error _ as e -> e
                         | Ok b -> parse_budget_component token b c)
                       (Ok acc.budget)
                       (List.filter
                          (fun x -> x <> "")
                          (String.split_on_char ',' value))
                    |> Result.map (fun budget -> { acc with budget }))
              | _ -> bad token "unknown key %S" key))
    in
    go 0 standard tokens

let validate t =
  let ( let* ) = Result.bind in
  let* () =
    if t.structures = [] then Error "scenario has no structures" else Ok ()
  in
  let* (_ : string list) = check_structures t.structures in
  let* () =
    if t.n < 1 || t.ops < 1 then Error "need n >= 1 and ops >= 1" else Ok ()
  in
  let* () =
    if
      List.exists
        (fun s ->
          match s with
          | Explore | Fuzz | Chaos | Replay _ -> t.n * t.ops > 62
          | Load _ -> false)
        t.sources
    then Error "need n*ops <= 62 (linearizability checker limit)"
    else Ok ()
  in
  let* () =
    if t.sources = [] && not (List.mem Conform t.gates) then
      Error "scenario has no sources and no conform gate"
    else Ok ()
  in
  let* () =
    if
      t.budget.explore_nodes < 1 || t.budget.explore_depth < 1
      || t.budget.fuzz_trials < 1 || t.budget.sched_trials < 0
      || t.budget.chaos_trials < 1
    then Error "budget components must be positive"
    else Ok ()
  in
  let* () =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        match s with
        | Load { clients; ops_per_client } ->
            if clients < 1 || ops_per_client < 1 then
              Error "load source needs clients >= 1 and ops >= 1"
            else Ok ()
        | _ -> Ok ())
      (Ok ()) t.sources
  in
  Result.map_error
    (fun msg -> "faults: " ^ msg)
    (let* () = Fault_plan.validate_rates t.faults.Fault_plan.rates in
     Fault_plan.validate ~n:t.n t.faults.Fault_plan.base)

(* Runner. *)

type event =
  | Explore_done of {
      structure : string;
      report : Check.Explore.report;
      elapsed : float;
    }
  | Fuzz_done of {
      structure : string;
      report : Check.Fuzz.report;
      elapsed : float;
    }
  | Chaos_done of {
      structure : string;
      report : Check.Chaos.report;
      elapsed : float;
    }
  | Replay_done of { structure : string; outcome : Check.Schedule.outcome }
  | Load_done of {
      structure : string;
      completed : int;
      verdict : Check.Schedule.verdict;
      elapsed : float;
    }
  | Conform_done of { report : Check.Conform.report; elapsed : float }

type failure = {
  structure : string;
  source : string;
  schedule : int array;
  replay : string;
  crash_plan : (int * int) list;
  fault_spec : string;
  mix_seed : int option;
  tail : string;
  verdict : string;
}

type outcome = {
  scenario : t;
  failures : failure list;
  gates_failed : int;
  trials : int;
  untried : string list;
  passed : bool;
}

let gates_record t =
  { Schedule.lin = List.mem Lin t.gates; shadow = List.mem Shadow t.gates }

(* Load arrivals beyond the checker's 62-op bound: drive the instance
   to completion under the uniform stochastic scheduler with the
   invariant hook on every step; the history is Unchecked by
   construction (too many ops to judge), an invariant raise is the
   failure signal.  The scenario's fault spec rides along on both
   branches — rates are instantiated over the run's step budget with
   the scenario seed, so a `load@` source under a chaos preset drives
   the structure through crash/stall/casfail weather too. *)
let run_load ~structure ~gates ~faults ~seed ~mix_seed ~clients ~ops_per_client =
  let budget = (200 * clients * (ops_per_client + 1)) + 64 in
  let fault_plan =
    Fault_plan.instantiate faults ~seed ~n:clients ~horizon:budget
  in
  if clients * ops_per_client <= 62 then begin
    let out =
      Schedule.run ~fault_plan ~gates ?mix_seed ~structure ~n:clients
        ~ops:ops_per_client ~tail:Check.Schedule.Round_robin [||]
    in
    (Array.fold_left ( + ) 0 out.completed, out.verdict)
  end
  else begin
    let inst =
      structure.Checkable.make ~n:clients ~ops:ops_per_client ?mix_seed ()
    in
    let verdict =
      try
        let config =
          Sim.Executor.Config.(
            default |> with_seed seed
            |> with_faults fault_plan
            |> with_max_steps (budget + 1)
            |> with_invariant ~interval:1 inst.invariant)
        in
        ignore
          (Sim.Executor.exec ~config ~scheduler:Sched.Scheduler.uniform
             ~n:clients ~stop:(Steps budget) inst.spec);
        Schedule.Unchecked
      with Failure msg -> Schedule.Invariant_violation msg
    in
    (List.length (inst.events ()), verdict)
  end

let run ?(on_event = fun _ -> ()) ?(now = fun () -> 0.) t =
  (match validate t with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Scenario.run: " ^ msg));
  let structs = List.map Checkable.find t.structures in
  let gates = gates_record t in
  let failures = ref [] in
  let trials = ref 0 in
  let untried = ref [] in
  let add f = failures := f :: !failures in
  let fault_spec_string =
    if Fault_plan.spec_is_none t.faults then ""
    else Fault_plan.spec_to_string t.faults
  in
  List.iter
    (fun source ->
      List.iter
        (fun (s : Checkable.t) ->
          match source with
          | Explore ->
              let config =
                {
                  Check.Explore.max_nodes = t.budget.explore_nodes;
                  max_depth = t.budget.explore_depth;
                  prune_states = true;
                  sleep_sets = true;
                  gates;
                }
              in
              let t0 = now () in
              let r =
                Check.Explore.explore ~config ?mix_seed:t.mix_seed
                  ~structure:s ~n:t.n ~ops:t.ops ()
              in
              on_event
                (Explore_done
                   { structure = s.name; report = r; elapsed = now () -. t0 });
              List.iter
                (fun (v : Check.Explore.violation) ->
                  add
                    {
                      structure = s.name;
                      source = "explore";
                      schedule = v.schedule;
                      replay = Sched.Scheduler.replay_to_string v.schedule;
                      crash_plan = [];
                      fault_spec = "";
                      mix_seed = t.mix_seed;
                      tail = "stop";
                      verdict = Schedule.verdict_to_string v.verdict;
                    })
                r.violations
          | Fuzz ->
              let config =
                {
                  Check.Fuzz.default with
                  trials = t.budget.fuzz_trials;
                  sched_trials = t.budget.sched_trials;
                  seed = t.seed;
                  gates;
                }
              in
              let t0 = now () in
              let r =
                Check.Fuzz.fuzz ~config ~structure:s ~n:t.n ~ops:t.ops ()
              in
              trials := !trials + r.trials;
              on_event
                (Fuzz_done
                   { structure = s.name; report = r; elapsed = now () -. t0 });
              List.iter
                (fun (f : Check.Fuzz.failure) ->
                  add
                    {
                      structure = f.structure;
                      source = f.source;
                      schedule = f.schedule;
                      replay = f.replay;
                      crash_plan = f.crash_plan;
                      fault_spec = "";
                      mix_seed = f.mix_seed;
                      tail =
                        (if f.source = "qcheck" then "round-robin" else "stop");
                      verdict = f.verdict;
                    })
                r.failures
          | Chaos ->
              let config =
                {
                  Check.Chaos.default with
                  trials = t.budget.chaos_trials;
                  seed = t.seed;
                  gates;
                }
              in
              let t0 = now () in
              let r =
                Check.Chaos.run ~config ~spec:t.faults ~structure:s ~n:t.n
                  ~ops:t.ops ()
              in
              trials := !trials + r.trials;
              if r.trials = 0 then untried := s.name :: !untried;
              on_event
                (Chaos_done
                   { structure = s.name; report = r; elapsed = now () -. t0 });
              List.iter
                (fun (f : Check.Chaos.failure) ->
                  add
                    {
                      structure = f.structure;
                      source = "chaos";
                      schedule = f.schedule;
                      replay = f.replay;
                      crash_plan = [];
                      fault_spec = f.fault_spec;
                      mix_seed = Some f.mix_seed;
                      tail = "round-robin";
                      verdict = f.verdict;
                    })
                r.failures
          | Replay { schedule; tail } ->
              let out =
                Schedule.run ~fault_plan:t.faults.Fault_plan.base ~gates
                  ?mix_seed:t.mix_seed ~structure:s ~n:t.n ~ops:t.ops ~tail
                  schedule
              in
              on_event (Replay_done { structure = s.name; outcome = out });
              if Schedule.is_bad out.verdict then
                add
                  {
                    structure = s.name;
                    source = "replay";
                    schedule = out.executed;
                    replay = Sched.Scheduler.replay_to_string out.executed;
                    crash_plan = [];
                    fault_spec = fault_spec_string;
                    mix_seed = t.mix_seed;
                    tail =
                      (match tail with
                      | Check.Schedule.Stop -> "stop"
                      | Round_robin -> "round-robin");
                    verdict = Schedule.verdict_to_string out.verdict;
                  }
          | Load { clients; ops_per_client } ->
              let t0 = now () in
              let completed, verdict =
                run_load ~structure:s ~gates ~faults:t.faults ~seed:t.seed
                  ~mix_seed:t.mix_seed ~clients ~ops_per_client
              in
              on_event
                (Load_done
                   {
                     structure = s.name;
                     completed;
                     verdict;
                     elapsed = now () -. t0;
                   });
              if Schedule.is_bad verdict then
                add
                  {
                    structure = s.name;
                    source = "load";
                    schedule = [||];
                    replay = "";
                    crash_plan = [];
                    fault_spec = fault_spec_string;
                    mix_seed = t.mix_seed;
                    tail = "round-robin";
                    verdict = Schedule.verdict_to_string verdict;
                  })
        structs)
    t.sources;
  let gates_failed = ref 0 in
  if List.mem Conform t.gates then begin
    let t0 = now () in
    let r = Check.Conform.run ~long_budget:t.budget.long_conform ~seed:t.seed () in
    List.iter
      (fun (g : Check.Conform.gate) ->
        if not g.passed then incr gates_failed)
      r.gates;
    on_event (Conform_done { report = r; elapsed = now () -. t0 })
  end;
  let failures = List.rev !failures in
  let untried = List.rev !untried in
  {
    scenario = t;
    failures;
    gates_failed = !gates_failed;
    trials = !trials;
    untried;
    passed = failures = [] && !gates_failed = 0 && untried = [];
  }
