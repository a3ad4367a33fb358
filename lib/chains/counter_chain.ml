module Individual = struct
  type t = {
    chain : Markov.Chain.t;
    n : int;
    encode : int -> int;
    decode : int -> int;
    initial : int;
  }

  let popcount mask =
    let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
    go mask 0

  let make ~n =
    if n < 1 || n > 16 then invalid_arg "Counter_chain.Individual.make: need 1 <= n <= 16";
    let size = (1 lsl n) - 1 in
    let encode mask =
      if mask <= 0 || mask > size then
        invalid_arg "Counter_chain.Individual: state must be a non-empty subset";
      mask - 1
    in
    let decode i = i + 1 in
    let p = 1. /. float_of_int n in
    let row i =
      let mask = decode i in
      List.init n (fun j ->
          let next =
            if mask land (1 lsl j) <> 0 then 1 lsl j (* j wins; only j is current *)
            else mask lor (1 lsl j) (* j's CAS fails but it learns the value *)
          in
          (encode next, p))
    in
    let label i = Printf.sprintf "S=%x" (decode i) in
    let chain = Markov.Chain.create ~label ~size ~row () in
    { chain; n; encode; decode; initial = encode size }

  let win_weight t ~proc i =
    let mask = t.decode i in
    if mask land (1 lsl proc) <> 0 then 1. /. float_of_int t.n else 0.
end

module Global = struct
  type t = { chain : Markov.Chain.t; n : int }

  let make ~n =
    if n < 1 then invalid_arg "Counter_chain.Global.make: n must be >= 1";
    let nf = float_of_int n in
    let row i =
      (* State i = v_{i+1}: i+1 processes hold the current value. *)
      let current = i + 1 in
      let win = float_of_int current /. nf in
      if current = n then [ (0, 1.) ]
      else [ (0, win); (i + 1, 1. -. win) ]
    in
    let label i = Printf.sprintf "v%d" (i + 1) in
    { chain = Markov.Chain.create ~label ~size:n ~row (); n }

  let return_time_v1 ~n =
    let t = make ~n in
    Markov.Hitting.expected_return_time t.chain 0
end

let lift (ind : Individual.t) i = Individual.popcount (ind.decode i) - 1

let z_recurrence ~n =
  if n < 1 then invalid_arg "Counter_chain.z_recurrence: n must be >= 1";
  let z = Array.make n 0. in
  z.(0) <- 1.;
  for i = 1 to n - 1 do
    z.(i) <- (float_of_int i *. z.(i - 1) /. float_of_int n) +. 1.
  done;
  z
