module Individual = struct
  type t = {
    chain : Markov.Chain.t;
    n : int;
    q : int;
    encode : int array -> int;
    decode : int -> int array;
    initial : int;
  }

  let make ~n ~q =
    if n < 1 then invalid_arg "Parallel_chain.Individual.make: n must be >= 1";
    if q < 1 then invalid_arg "Parallel_chain.Individual.make: q must be >= 1";
    let size =
      let rec pow acc k = if k = 0 then acc else pow (acc * q) (k - 1) in
      pow 1 n
    in
    if size > 200_000 then invalid_arg "Parallel_chain.Individual.make: q^n too large";
    let encode counters = Array.fold_right (fun c acc -> (acc * q) + c) counters 0 in
    let decode i =
      let c = ref i in
      Array.init n (fun _ ->
          let v = !c mod q in
          c := !c / q;
          v)
    in
    let p = 1. /. float_of_int n in
    let row i =
      let counters = decode i in
      List.init n (fun proc ->
          let next = Array.copy counters in
          next.(proc) <- (next.(proc) + 1) mod q;
          (encode next, p))
    in
    let chain = Markov.Chain.create ~size ~row () in
    { chain; n; q; encode; decode; initial = 0 }

  let completion_weight t ~proc i =
    let counters = t.decode i in
    if counters.(proc) = t.q - 1 then 1. /. float_of_int t.n else 0.
end

module System = struct
  type t = {
    chain : Markov.Chain.t;
    n : int;
    q : int;
    encode : int array -> int;
    decode : int -> int array;
    initial : int;
  }

  (* Enumerate all compositions of n into q non-negative parts. *)
  let compositions ~n ~q =
    let out = ref [] in
    let v = Array.make q 0 in
    let rec fill pos remaining =
      if pos = q - 1 then begin
        v.(pos) <- remaining;
        out := Array.copy v :: !out
      end
      else
        for take = 0 to remaining do
          v.(pos) <- take;
          fill (pos + 1) (remaining - take)
        done
    in
    fill 0 n;
    Array.of_list (List.rev !out)

  let make ~n ~q =
    if n < 1 then invalid_arg "Parallel_chain.System.make: n must be >= 1";
    if q < 1 then invalid_arg "Parallel_chain.System.make: q must be >= 1";
    let states = compositions ~n ~q in
    let index = Hashtbl.create (Array.length states) in
    Array.iteri (fun i v -> Hashtbl.replace index (Array.to_list v) i) states;
    let encode v =
      match Hashtbl.find_opt index (Array.to_list v) with
      | Some i -> i
      | None -> invalid_arg "Parallel_chain.System: invalid occupancy vector"
    in
    let decode i = Array.copy states.(i) in
    let nf = float_of_int n in
    let row i =
      let v = states.(i) in
      let out = ref [] in
      for j = 0 to q - 1 do
        if v.(j) > 0 then begin
          let next = Array.copy v in
          next.(j) <- next.(j) - 1;
          next.((j + 1) mod q) <- next.((j + 1) mod q) + 1;
          out := (encode next, float_of_int v.(j) /. nf) :: !out
        end
      done;
      (* With q = 1 every step is a completion that maps the single
         state to itself; collapse duplicate self-loops. *)
      let merged = Hashtbl.create 8 in
      List.iter
        (fun (j, p) ->
          let prev = Option.value (Hashtbl.find_opt merged j) ~default:0. in
          Hashtbl.replace merged j (prev +. p))
        !out;
      Hashtbl.fold (fun j p acc -> (j, p) :: acc) merged []
    in
    let label i =
      String.concat "," (Array.to_list (Array.map string_of_int states.(i)))
    in
    let chain = Markov.Chain.create ~label ~size:(Array.length states) ~row () in
    let initial = Array.make q 0 in
    initial.(0) <- n;
    { chain; n; q; encode; decode; initial = encode initial }

  let any_completion_weight t i =
    let v = t.decode i in
    float_of_int v.(t.q - 1) /. float_of_int t.n

  let system_latency ~n ~q =
    let t = make ~n ~q in
    let pi = Markov.Stationary.compute t.chain in
    let rate =
      Markov.Stationary.success_rate t.chain ~pi ~weight:(any_completion_weight t)
    in
    1. /. rate
end

let lift (ind : Individual.t) (sys : System.t) i =
  let counters = ind.decode i in
  let v = Array.make ind.q 0 in
  Array.iter (fun c -> v.(c) <- v.(c) + 1) counters;
  sys.encode v
