type t = {
  size : int;
  row : int -> (int * float) list;
  label : int -> string;
}

(* Eager stochasticity check for create: every solver in this library
   silently returns garbage on a non-stochastic row, so malformed
   chains must be rejected at the constructor, naming the offending
   state.  Duplicate targets are allowed here (their probabilities
   add, which every consumer handles); [validate] stays stricter. *)
let check_rows ~eps t =
  for i = 0 to t.size - 1 do
    let total =
      List.fold_left
        (fun acc (j, p) ->
          if j < 0 || j >= t.size then
            invalid_arg
              (Printf.sprintf "Chain.create: state %d: target %d out of range"
                 i j);
          if p < 0. then
            invalid_arg
              (Printf.sprintf
                 "Chain.create: state %d: negative probability %.12g to %d" i p
                 j);
          acc +. p)
        0. (t.row i)
    in
    if Float.abs (total -. 1.) > eps then
      invalid_arg
        (Printf.sprintf "Chain.create: state %d: row sums to %.12g (want 1)" i
           total)
  done

let create ?(check = true) ?(label = string_of_int) ~size ~row () =
  if size <= 0 then invalid_arg "Chain.create: size must be positive";
  let t = { size; row; label } in
  if check then check_rows ~eps:1e-9 t;
  t

let validate ?(eps = 1e-9) t =
  let exception Bad of string in
  try
    for i = 0 to t.size - 1 do
      let row = t.row i in
      let seen = Hashtbl.create 8 in
      let total =
        List.fold_left
          (fun acc (j, p) ->
            if j < 0 || j >= t.size then
              raise (Bad (Printf.sprintf "state %d: target %d out of range" i j));
            if p < 0. then
              raise (Bad (Printf.sprintf "state %d: negative probability to %d" i j));
            if Hashtbl.mem seen j then
              raise (Bad (Printf.sprintf "state %d: duplicate target %d" i j));
            Hashtbl.add seen j ();
            acc +. p)
          0. (* accumulate *) row
      in
      if Float.abs (total -. 1.) > eps then
        raise (Bad (Printf.sprintf "state %d: row sums to %.12g" i total))
    done;
    Ok ()
  with Bad msg -> Error msg

let dense t =
  let m = Array.make_matrix t.size t.size 0. in
  for i = 0 to t.size - 1 do
    List.iter (fun (j, p) -> m.(i).(j) <- m.(i).(j) +. p) (t.row i)
  done;
  m

let step_distribution t v =
  if Array.length v <> t.size then invalid_arg "Chain.step_distribution: size mismatch";
  let out = Array.make t.size 0. in
  for i = 0 to t.size - 1 do
    if v.(i) <> 0. then
      List.iter (fun (j, p) -> out.(j) <- out.(j) +. (v.(i) *. p)) (t.row i)
  done;
  out

let sample_next t rng i =
  let row = t.row i in
  let target = Stats.Rng.float rng 1.0 in
  let rec scan acc = function
    | [] -> (
        (* Fall back to the last transition on floating point shortfall. *)
        match List.rev row with
        | (j, _) :: _ -> j
        | [] -> invalid_arg (Printf.sprintf "Chain.sample_path: state %d has no transitions" i))
    | (j, p) :: rest ->
        let acc = acc +. p in
        if target < acc then j else scan acc rest
  in
  scan 0. row

let sample_path t ~rng ~start ~steps =
  if start < 0 || start >= t.size then invalid_arg "Chain.sample_path: bad start";
  let path = Array.make (steps + 1) start in
  for k = 1 to steps do
    path.(k) <- sample_next t rng path.(k - 1)
  done;
  path

let empirical_occupancy t ~rng ~start ~steps =
  let counts = Array.make t.size 0 in
  let state = ref start in
  for _ = 1 to steps do
    state := sample_next t rng !state;
    counts.(!state) <- counts.(!state) + 1
  done;
  Array.map (fun c -> float_of_int c /. float_of_int steps) counts
