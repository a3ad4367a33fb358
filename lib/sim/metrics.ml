type t = {
  n : int;
  mutable time : int;
  steps_by : int array;
  completions : int array;
  last_completion_time : int array;
  last_completion_ownsteps : int array;
  individual_gap : Stats.Summary.t array;
  own_step_gap : Stats.Summary.t array;
  system_gap : Stats.Summary.t;
  mutable last_any_completion : int;
  system_samples : Stats.Vec.Float.t option;
  individual_samples : Stats.Vec.Float.t array option;
  (* Per-method accounting, keyed by the method id passed to
     [Program.complete_method]. *)
  method_completions : (int, int array) Hashtbl.t;
  method_gap : (int, Stats.Summary.t) Hashtbl.t;
  method_last : (int, int) Hashtbl.t;
}

let create ?(record_samples = false) ~n () =
  {
    n;
    time = 0;
    steps_by = Array.make n 0;
    completions = Array.make n 0;
    last_completion_time = Array.make n (-1);
    last_completion_ownsteps = Array.make n (-1);
    individual_gap = Array.init n (fun _ -> Stats.Summary.create ());
    own_step_gap = Array.init n (fun _ -> Stats.Summary.create ());
    system_gap = Stats.Summary.create ();
    last_any_completion = -1;
    system_samples = (if record_samples then Some (Stats.Vec.Float.create ()) else None);
    individual_samples =
      (if record_samples then Some (Array.init n (fun _ -> Stats.Vec.Float.create ()))
       else None);
    method_completions = Hashtbl.create 4;
    method_gap = Hashtbl.create 4;
    method_last = Hashtbl.create 4;
  }

let n t = t.n

let on_step t i =
  t.time <- t.time + 1;
  t.steps_by.(i) <- t.steps_by.(i) + 1

let tick t = t.time <- t.time + 1

let on_complete t i =
  t.completions.(i) <- t.completions.(i) + 1;
  (* Gaps are measured between *consecutive* completions, so the warmup
     interval before the first completion is excluded. *)
  if t.last_completion_time.(i) >= 0 then begin
    let gap = float_of_int (t.time - t.last_completion_time.(i)) in
    Stats.Summary.add t.individual_gap.(i) gap;
    Option.iter (fun a -> Stats.Vec.Float.push a.(i) gap) t.individual_samples
  end;
  if t.last_completion_ownsteps.(i) >= 0 then
    Stats.Summary.add t.own_step_gap.(i)
      (float_of_int (t.steps_by.(i) - t.last_completion_ownsteps.(i)));
  t.last_completion_time.(i) <- t.time;
  t.last_completion_ownsteps.(i) <- t.steps_by.(i);
  if t.last_any_completion >= 0 then begin
    let gap = float_of_int (t.time - t.last_any_completion) in
    Stats.Summary.add t.system_gap gap;
    Option.iter (fun v -> Stats.Vec.Float.push v gap) t.system_samples
  end;
  t.last_any_completion <- t.time

let on_complete_method t i m =
  on_complete t i;
  let counts =
    match Hashtbl.find_opt t.method_completions m with
    | Some a -> a
    | None ->
        let a = Array.make t.n 0 in
        Hashtbl.replace t.method_completions m a;
        a
  in
  counts.(i) <- counts.(i) + 1;
  let gaps =
    match Hashtbl.find_opt t.method_gap m with
    | Some s -> s
    | None ->
        let s = Stats.Summary.create () in
        Hashtbl.replace t.method_gap m s;
        s
  in
  (match Hashtbl.find_opt t.method_last m with
  | Some last -> Stats.Summary.add gaps (float_of_int (t.time - last))
  | None -> ());
  Hashtbl.replace t.method_last m t.time

let methods t =
  List.sort compare (Hashtbl.fold (fun m _ acc -> m :: acc) t.method_completions [])

let method_completions t ~method_ =
  match Hashtbl.find_opt t.method_completions method_ with
  | Some a -> Array.copy a
  | None -> Array.make t.n 0

let method_system_latency t ~method_ =
  match Hashtbl.find_opt t.method_gap method_ with
  | Some s -> s
  | None -> Stats.Summary.create ()

let time t = t.time
let steps_of t i = t.steps_by.(i)
let completions_of t i = t.completions.(i)
let total_completions t = Array.fold_left ( + ) 0 t.completions
let system_latency t = t.system_gap
let individual_latency t i = t.individual_gap.(i)
let own_step_latency t i = t.own_step_gap.(i)

let completion_rate t =
  if t.time = 0 then 0. else float_of_int (total_completions t) /. float_of_int t.time

let mean_system_latency t = Stats.Summary.mean t.system_gap
let mean_individual_latency t i = Stats.Summary.mean t.individual_gap.(i)

let fairness_ratio t =
  let acc = ref 0. and count = ref 0 in
  for i = 0 to t.n - 1 do
    let m = Stats.Summary.mean t.individual_gap.(i) in
    if not (Float.is_nan m) then begin
      acc := !acc +. m;
      incr count
    end
  done;
  if !count = 0 then nan
  else
    let avg_individual = !acc /. float_of_int !count in
    avg_individual /. (float_of_int t.n *. mean_system_latency t)

(* Exact (hex-float) rendering of every observable statistic, for the
   interpreter-vs-compiled differential harness: two runs agree iff
   their fingerprints are equal strings. *)
let summary_fp s =
  Printf.sprintf "%d:%h:%h:%h"
    (Stats.Summary.count s) (Stats.Summary.total s) (Stats.Summary.min s)
    (Stats.Summary.max s)

let fingerprint t =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "time=%d" t.time;
  let ints label a =
    add ";%s=" label;
    Array.iter (fun v -> add "%d," v) a
  in
  ints "steps" t.steps_by;
  ints "comp" t.completions;
  ints "lct" t.last_completion_time;
  ints "lco" t.last_completion_ownsteps;
  add ";lac=%d" t.last_any_completion;
  add ";sys=%s" (summary_fp t.system_gap);
  add ";ind=";
  Array.iter (fun s -> add "%s|" (summary_fp s)) t.individual_gap;
  add ";own=";
  Array.iter (fun s -> add "%s|" (summary_fp s)) t.own_step_gap;
  List.iter
    (fun m ->
      add ";m%d=" m;
      (match Hashtbl.find_opt t.method_completions m with
      | Some a -> Array.iter (fun v -> add "%d," v) a
      | None -> ());
      (match Hashtbl.find_opt t.method_gap m with
      | Some s -> add "g%s" (summary_fp s)
      | None -> ());
      match Hashtbl.find_opt t.method_last m with
      | Some l -> add "l%d" l
      | None -> ())
    (methods t);
  (match t.system_samples with
  | None -> ()
  | Some v ->
      add ";ssamp=";
      Array.iter (fun x -> add "%h," x) (Stats.Vec.Float.to_array v));
  (match t.individual_samples with
  | None -> ()
  | Some a ->
      add ";isamp=";
      Array.iter
        (fun v ->
          Array.iter (fun x -> add "%h," x) (Stats.Vec.Float.to_array v);
          add "|")
        a);
  Buffer.contents buf

let system_samples t =
  match t.system_samples with None -> [||] | Some v -> Stats.Vec.Float.to_array v

let individual_samples t i =
  match t.individual_samples with
  | None -> [||]
  | Some a -> Stats.Vec.Float.to_array a.(i)
