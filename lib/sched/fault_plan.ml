(* Fault schedules: the chaos-layer generalization of crash plans.

   A plan carries a time-sorted list of discrete events (permanent or
   recoverable crashes, restarts, bounded stall windows) plus
   per-process spurious-CAS-failure rates.  A plan whose only events
   are crashes with no matching restart is exactly a Definition 1
   crash plan; everything else is a documented extension (see
   DESIGN.md, "Fault model"). *)

type event = Crash of int | Restart of int | Stall of int * int

type rates = {
  crash : float;
  recover : float;
  stall : float;
  stall_len : int;
  casfail : float;
}

let zero_rates = { crash = 0.; recover = 0.; stall = 0.; stall_len = 0; casfail = 0. }

(* Named rate tiers, shared by the chaos harness's default spec and the
   scenario presets.  [quick] is fault-free; [standard] is the mild
   always-on drill; [century] is the rare-event tier (rates chosen so a
   fault is an exceptional excursion within one run, not the norm —
   the regime of the paper's century-scale stall tail); [chaos] is the
   heavy mixed drill (the historical Chaos.default_spec values). *)
let quick_rates = zero_rates

let standard_rates =
  { crash = 0.002; recover = 0.05; stall = 0.002; stall_len = 3; casfail = 0.02 }

let century_rates =
  {
    crash = 1e-4;
    recover = 0.02;
    stall = 1e-4;
    stall_len = 3;
    casfail = 5e-4;
  }

let chaos_rates =
  { crash = 0.01; recover = 0.05; stall = 0.01; stall_len = 5; casfail = 0.1 }

let tier_rates = function
  | "quick" -> Some quick_rates
  | "standard" -> Some standard_rates
  | "century" -> Some century_rates
  | "chaos" -> Some chaos_rates
  | _ -> None

type t = {
  events : (int * event) array; (* sorted by time, stable *)
  spurious : (int option * float) list; (* (Some proc | None = all, rate) *)
}

type spec = { base : t; rates : rates }

let none = { events = [||]; spurious = [] }

let sort_events events =
  let arr = Array.of_list events in
  (* Stable, so events sharing a time fire in the order given. *)
  Array.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2) arr;
  arr

let make ?(spurious = []) events = { events = sort_events events; spurious }

let of_crash_events crashes =
  make (List.map (fun (time, proc) -> (time, Crash proc)) crashes)

let merge a b =
  {
    events = sort_events (Array.to_list a.events @ Array.to_list b.events);
    spurious = a.spurious @ b.spurious;
  }

let events t = Array.copy t.events
let events_list t = Array.to_list t.events
let spurious t = t.spurious

let is_none t = t.events = [||] && t.spurious = []

let event_proc = function Crash p | Restart p | Stall (p, _) -> p

let has_spurious t = List.exists (fun (_, r) -> r > 0.) t.spurious

let spurious_rates ~n t =
  let rates = Array.make n 0. in
  List.iter
    (fun (proc, r) ->
      match proc with
      | None -> Array.iteri (fun i cur -> rates.(i) <- Float.max cur r) rates
      | Some p -> if p >= 0 && p < n then rates.(p) <- Float.max rates.(p) r)
    t.spurious;
  rates

let restart_count t =
  Array.fold_left
    (fun acc (_, e) -> match e with Restart _ -> acc + 1 | _ -> acc)
    0 t.events

let stall_total t =
  Array.fold_left
    (fun acc (_, e) -> match e with Stall (_, d) -> acc + max 0 d | _ -> acc)
    0 t.events

let survivors ~n t =
  let crashed = Array.make n false in
  Array.iter
    (fun (_, e) ->
      match e with
      | Crash p -> if p >= 0 && p < n then crashed.(p) <- true
      | Restart p -> if p >= 0 && p < n then crashed.(p) <- false
      | Stall _ -> ())
    t.events;
  Array.fold_left (fun acc c -> if c then acc else acc + 1) 0 crashed

let validate ~n t =
  let bad_proc =
    Array.exists
      (fun (time, e) ->
        let p = event_proc e in
        p < 0 || p >= n || time < 0)
      t.events
  in
  let bad_stall =
    Array.exists (fun (_, e) -> match e with Stall (_, d) -> d < 0 | _ -> false) t.events
  in
  let bad_rate =
    List.exists
      (fun (proc, r) ->
        (not (r >= 0. && r < 1.))
        || match proc with Some p -> p < 0 || p >= n | None -> false)
      t.spurious
  in
  if bad_proc then Error "fault plan: process or time out of range"
  else if bad_stall then Error "fault plan: negative stall duration"
  else if bad_rate then Error "fault plan: spurious CAS rate must be in [0,1)"
  else begin
    (* Replay the event sequence: the plan must leave at least one
       process un-crashed at the end (Definition 1's survivor,
       extended: a crash healed by a later restart is not permanent). *)
    let crashed = Array.make n false in
    Array.iter
      (fun (_, e) ->
        match e with
        | Crash p -> crashed.(p) <- true
        | Restart p -> crashed.(p) <- false
        | Stall _ -> ())
      t.events;
    let perm = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 crashed in
    if perm >= n then Error "fault plan: all processes would crash permanently"
    else Ok ()
  end

(* -- Grammar --------------------------------------------------------

   Comma-separated tokens; explicit events and per-process rates:
     crash@T:P      crash process P at time T
     restart@T:P    restart P at time T (fresh body, memory kept)
     stall@T:P+D    P unschedulable during [T, T+D)
     casfail:P=R    P's successful CASes spuriously fail with rate R
                    (P may be '*' for every process)
   plus rate entries expanded by {!instantiate}:
     crash~R  recover~R  stall~R:D  casfail~R
   The empty string and "none" denote the empty plan. *)

let event_to_token (time, e) =
  match e with
  | Crash p -> Printf.sprintf "crash@%d:%d" time p
  | Restart p -> Printf.sprintf "restart@%d:%d" time p
  | Stall (p, d) -> Printf.sprintf "stall@%d:%d+%d" time p d

let spurious_to_token (proc, r) =
  Printf.sprintf "casfail:%s=%g" (match proc with None -> "*" | Some p -> string_of_int p) r

let to_string t =
  String.concat ","
    (Array.to_list (Array.map event_to_token t.events)
    @ List.map spurious_to_token t.spurious)

let rates_to_tokens r =
  List.concat
    [
      (if r.crash > 0. then [ Printf.sprintf "crash~%g" r.crash ] else []);
      (if r.recover > 0. then [ Printf.sprintf "recover~%g" r.recover ] else []);
      (if r.stall > 0. then [ Printf.sprintf "stall~%g:%d" r.stall r.stall_len ] else []);
      (if r.casfail > 0. then [ Printf.sprintf "casfail~%g" r.casfail ] else []);
    ]

let spec_to_string s =
  match
    (if is_none s.base then [] else [ to_string s.base ]) @ rates_to_tokens s.rates
  with
  | [] -> "none"
  | parts -> String.concat "," parts

let parse_token token =
  let fail () = Error (Printf.sprintf "bad --faults token %S" token) in
  let split2 c s =
    match String.index_opt s c with
    | Some i ->
        Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> None
  in
  let int_of s = int_of_string_opt (String.trim s) in
  let float_of s = float_of_string_opt (String.trim s) in
  match split2 '@' token with
  | Some (kind, rest) -> (
      match split2 ':' rest with
      | None -> fail ()
      | Some (t_str, p_str) -> (
          match (kind, int_of t_str) with
          | "crash", Some time -> (
              match int_of p_str with
              | Some p -> Ok (`Event (time, Crash p))
              | None -> fail ())
          | "restart", Some time -> (
              match int_of p_str with
              | Some p -> Ok (`Event (time, Restart p))
              | None -> fail ())
          | "stall", Some time -> (
              match split2 '+' p_str with
              | Some (p, d) -> (
                  match (int_of p, int_of d) with
                  | Some p, Some d -> Ok (`Event (time, Stall (p, d)))
                  | _ -> fail ())
              | None -> fail ())
          | _ -> fail ()))
  | None -> (
      match split2 '~' token with
      | Some ("crash", r) -> (
          match float_of r with Some r -> Ok (`Rate (`Crash r)) | None -> fail ())
      | Some ("recover", r) -> (
          match float_of r with Some r -> Ok (`Rate (`Recover r)) | None -> fail ())
      | Some ("stall", rest) -> (
          match split2 ':' rest with
          | Some (r, d) -> (
              match (float_of r, int_of d) with
              | Some r, Some d -> Ok (`Rate (`Stall (r, d)))
              | _ -> fail ())
          | None -> fail ())
      | Some ("casfail", r) -> (
          match float_of r with Some r -> Ok (`Rate (`Casfail r)) | None -> fail ())
      | Some _ -> fail ()
      | None -> (
          match split2 ':' token with
          | Some ("casfail", rest) -> (
              match split2 '=' rest with
              | Some (p, r) -> (
                  let proc =
                    if String.trim p = "*" then Some None
                    else Option.map Option.some (int_of p)
                  in
                  match (proc, float_of r) with
                  | Some proc, Some r -> Ok (`Spurious (proc, r))
                  | _ -> fail ())
              | None -> fail ())
          | _ -> fail ()))

let parse_spec s =
  let tokens =
    List.filter
      (fun tok -> tok <> "" && tok <> "none")
      (List.map String.trim (String.split_on_char ',' s))
  in
  let rec go events spurious rates = function
    | [] ->
        Ok { base = { events = sort_events (List.rev events); spurious = List.rev spurious }; rates }
    | tok :: rest -> (
        match parse_token tok with
        | Error msg -> Error msg
        | Ok (`Event e) -> go (e :: events) spurious rates rest
        | Ok (`Spurious sp) -> go events (sp :: spurious) rates rest
        | Ok (`Rate r) ->
            let rates =
              match r with
              | `Crash c -> { rates with crash = c }
              | `Recover c -> { rates with recover = c }
              | `Stall (c, d) -> { rates with stall = c; stall_len = d }
              | `Casfail c -> { rates with casfail = c }
            in
            go events spurious rates rest)
  in
  go [] [] zero_rates tokens

let rates_are_zero r =
  r.crash = 0. && r.recover = 0. && r.stall = 0. && r.casfail = 0.

let spec_is_none s = is_none s.base && rates_are_zero s.rates

(* Expand a rate spec into a concrete plan, deterministically by seed.
   The generative model walks time 0..horizon-1 tracking which
   processes it has crashed, so crash/recover rates produce plausible
   sequences and at least one process always survives. *)
let instantiate spec ~seed ~n ~horizon =
  if rates_are_zero spec.rates then spec.base
  else begin
    let r = spec.rates in
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
            events := (time, Restart p) :: !events
          end
        end
        else begin
          if
            r.crash > 0.
            && !crashed_count < n - 1
            && Stats.Rng.float rng 1.0 < r.crash
          then begin
            crashed.(p) <- true;
            incr crashed_count;
            events := (time, Crash p) :: !events
          end
          else if r.stall > 0. && Stats.Rng.float rng 1.0 < r.stall then
            events := (time, Stall (p, r.stall_len)) :: !events
        end
      done
    done;
    let spurious =
      if r.casfail > 0. then [ (None, r.casfail) ] else []
    in
    merge spec.base { events = sort_events (List.rev !events); spurious }
  end
