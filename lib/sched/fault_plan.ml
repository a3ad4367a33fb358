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

(* The rate part of a plan from [instantiate], expanded as it is read.
   The walk visits times 0..horizon-1 and, within a time, processes
   0..n-1, tracking which processes it has crashed so recover rates act
   on crashed ones and at least one process always survives.  Before
   walking a time it emits the explicit events due by then, so every
   prefix is the prefix of the stable time sort of [base @ walked]. *)
type walk = {
  rates : rates;
  n : int;
  horizon : int;
  rng : Stats.Rng.t;
  crashed : bool array;
  mutable crashed_count : int;
  mutable step : int; (* the next time to walk *)
  base : (int * event) array; (* explicit events, sorted by time *)
  mutable base_next : int; (* the first one not yet emitted *)
}

type t = {
  mutable events : (int * event) array; (* [0, len) known, sorted by time, stable *)
  mutable len : int;
  spurious : (int option * float) list; (* (Some proc | None = all, rate) *)
  mutable walk : walk option; (* the unexpanded rest, if any *)
  seen : int array;
      (* Per process of an instantiated plan: the time of its last
         crash or restart in the known prefix (min_int if none)... *)
  down : bool array; (* ...and whether that event is a crash. *)
}

type spec = { base : t; rates : rates }

let sort_events events =
  let arr = Array.of_list events in
  (* Stable, so events sharing a time fire in the order given. *)
  Array.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2) arr;
  arr

let make ?(spurious = []) events =
  let events = sort_events events in
  { events; len = Array.length events; spurious; walk = None; seen = [||]; down = [||] }

let none = make []

let of_crash_events crashes =
  make (List.map (fun (time, proc) -> (time, Crash proc)) crashes)

(* -- Expansion ------------------------------------------------------ *)

let push t ((time, e) as ev) =
  if t.len = Array.length t.events then begin
    let bigger = Array.make (max 64 (2 * t.len)) ev in
    Array.blit t.events 0 bigger 0 t.len;
    t.events <- bigger
  end;
  t.events.(t.len) <- ev;
  t.len <- t.len + 1;
  match e with
  | (Crash p | Restart p) when p >= 0 && p < Array.length t.seen ->
      t.seen.(p) <- time;
      t.down.(p) <- (match e with Crash _ -> true | _ -> false)
  | _ -> ()

let emit_base t w ~upto =
  while w.base_next < Array.length w.base && fst w.base.(w.base_next) <= upto do
    push t w.base.(w.base_next);
    w.base_next <- w.base_next + 1
  done

(* One uniform draw below [rate]. *)
let hit w rate = Stats.Rng.float w.rng 1.0 < rate

let walk_step t (w : walk) =
  let time = w.step in
  emit_base t w ~upto:time;
  let r = w.rates in
  for p = 0 to w.n - 1 do
    if w.crashed.(p) then begin
      if r.recover > 0. && hit w r.recover then begin
        w.crashed.(p) <- false;
        w.crashed_count <- w.crashed_count - 1;
        push t (time, Restart p)
      end
    end
    else if r.crash > 0. && w.crashed_count < w.n - 1 && hit w r.crash then begin
      w.crashed.(p) <- true;
      w.crashed_count <- w.crashed_count + 1;
      push t (time, Crash p)
    end
    else if r.stall > 0. && hit w r.stall then
      push t (time, Stall (p, r.stall_len))
  done;
  w.step <- time + 1

(* Grow the known prefix by one whole time step, or, once the walk is
   past its horizon, by everything left. *)
let expand t =
  match t.walk with
  | None -> ()
  | Some w ->
      if w.step < w.horizon then walk_step t w
      else begin
        emit_base t w ~upto:max_int;
        t.walk <- None
      end

(* Whether the plan has an event [i], expanding as far as needed. *)
let rec available t i = i < t.len || (Option.is_some t.walk && (expand t; available t i))

(* Everything at or before this time is in the known prefix. *)
let covered t = match t.walk with None -> max_int | Some w -> w.step - 1

let materialize t =
  while Option.is_some t.walk do
    expand t
  done

let time_at t i = if available t i then fst t.events.(i) else max_int

let event_at t i =
  if available t i then snd t.events.(i)
  else invalid_arg "Fault_plan.event_at: past the end of the plan"

let exists_from t i f =
  let rec go i = available t i && (f (snd t.events.(i)) || go (i + 1)) in
  go i

(* -- Whole-plan readers --------------------------------------------- *)

let fold_known f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.events.(i)
  done;
  !acc

let fold f acc t =
  materialize t;
  fold_known f acc t

let events t =
  materialize t;
  Array.sub t.events 0 t.len

let events_list t = Array.to_list (events t)

let merge a b =
  make ~spurious:(a.spurious @ b.spurious) (events_list a @ events_list b)

let spurious t = t.spurious

let is_none t = t.len = 0 && Option.is_none t.walk && t.spurious = []

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
  fold (fun acc (_, e) -> match e with Restart _ -> acc + 1 | _ -> acc) 0 t

let stall_total t =
  fold (fun acc (_, e) -> match e with Stall (_, d) -> acc + max 0 d | _ -> acc) 0 t

let survivors ~n t =
  let crashed = Array.make n false in
  fold
    (fun () (_, e) ->
      match e with
      | Crash p -> if p >= 0 && p < n then crashed.(p) <- true
      | Restart p -> if p >= 0 && p < n then crashed.(p) <- false
      | Stall _ -> ())
    () t;
  Array.fold_left (fun acc c -> if c then acc else acc + 1) 0 crashed

let validate_rates r =
  let prob x = x >= 0. && x <= 1. (* false on NaN *) in
  if not (prob r.crash) then Error "crash rate must be in [0,1]"
  else if not (prob r.recover) then Error "recover rate must be in [0,1]"
  else if not (prob r.stall) then Error "stall rate must be in [0,1]"
  else if r.stall_len < 0 then Error "negative stall duration"
  else if not (r.casfail >= 0. && r.casfail < 1.) then
    Error "casfail rate must be in [0,1)"
  else Ok ()

(* A walk over at most [n] processes with valid rates emits only
   in-range, well-formed events and keeps a survivor, so without
   explicit events its unread rest cannot change any whole-plan check
   at [n]. *)
let walk_is_safe ~n t =
  match t.walk with
  | Some (w : walk) ->
      w.base = [||] && w.n <= n && n > 0 && validate_rates w.rates = Ok ()
  | None -> false

let outage ~n t = (not (walk_is_safe ~n t)) && survivors ~n t = 0

let validate ~n t =
  if not (walk_is_safe ~n t) then materialize t;
  let exists pred = fold_known (fun acc ev -> acc || pred ev) false t in
  let bad_proc =
    exists (fun (time, e) ->
        let p = event_proc e in
        p < 0 || p >= n || time < 0)
  in
  let bad_stall = exists (function _, Stall (_, d) -> d < 0 | _ -> false) in
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
    fold_known
      (fun () (_, e) ->
        match e with
        | Crash p -> crashed.(p) <- true
        | Restart p -> crashed.(p) <- false
        | Stall _ -> ())
      () t;
    let perm = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 crashed in
    if perm >= n then Error "fault plan: all processes would crash permanently"
    else Ok ()
  end

let down_for_good t p ~now =
  if p < 0 || p >= Array.length t.seen then
    invalid_arg "Fault_plan.down_for_good: not a process of this instantiated plan";
  while covered t < now do
    expand t
  done;
  (* Down at [now], and for good unless a later crash or restart of [p]
     turns up before the plan ends. *)
  t.down.(p) && t.seen.(p) <= now
  && begin
       while Option.is_some t.walk && t.seen.(p) <= now do
         expand t
       done;
       t.seen.(p) <= now
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
    (List.map event_to_token (events_list t)
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
    | [] -> Ok { base = make ~spurious:(List.rev spurious) (List.rev events); rates }
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
            match validate_rates rates with
            | Ok () -> go events spurious rates rest
            | Error msg -> Error (Printf.sprintf "bad --faults token %S: %s" tok msg))
  in
  go [] [] zero_rates tokens

let rates_are_zero r =
  r.crash = 0. && r.recover = 0. && r.stall = 0. && r.casfail = 0.

let spec_is_none s = is_none s.base && rates_are_zero s.rates

let instantiate spec ~seed ~n ~horizon =
  let r = spec.rates in
  let t =
    {
      events = [||];
      len = 0;
      spurious =
        (spec.base.spurious @ if r.casfail > 0. then [ (None, r.casfail) ] else []);
      walk = None;
      seen = Array.make n min_int;
      down = Array.make n false;
    }
  in
  let base = events spec.base in
  if rates_are_zero r then Array.iter (push t) base
  else begin
    let w =
      {
        rates = r;
        n;
        horizon;
        rng = Stats.Rng.create ~seed;
        crashed = Array.make n false;
        crashed_count = 0;
        step = 0;
        base;
        base_next = 0;
      }
    in
    (* Explicit events before time 0 precede the whole walk. *)
    emit_base t w ~upto:(-1);
    t.walk <- Some w
  end;
  t
