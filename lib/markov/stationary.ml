(* Lazy damping: iterate (I + P)/2, which has the same stationary
   distribution but converges even for periodic chains — and the
   paper's scan-validate chains ARE periodic (period 2): every step
   changes exactly one process's phase, flipping a parity invariant.
   The loop itself lives in {!Sparse.power_iteration} over CSR arrays
   (materialized once; re-evaluating [t.row] per iteration would
   allocate fresh lists millions of times), in exactly the historical
   operation order so existing tables stay byte-identical. *)
let power_iteration ?max_iters ?tol t =
  Sparse.power_iteration ?max_iters ?tol (Sparse.of_chain t)

(* Solve pi P = pi with sum(pi) = 1: transpose to (P^T - I) pi^T = 0 and
   replace the last equation by the normalization constraint. *)
let solve t =
  let n = t.Chain.size in
  let a = Array.make_matrix n (n + 1) 0. in
  for i = 0 to n - 1 do
    List.iter (fun (j, p) -> a.(j).(i) <- a.(j).(i) +. p) (t.Chain.row i)
  done;
  for i = 0 to n - 1 do
    a.(i).(i) <- a.(i).(i) -. 1.
  done;
  for j = 0 to n - 1 do
    a.(n - 1).(j) <- 1.
  done;
  a.(n - 1).(n) <- 1.;
  (* Gaussian elimination with partial pivoting on the augmented matrix. *)
  for col = 0 to n - 1 do
    let pivot = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs a.(r).(col) > Float.abs a.(!pivot).(col) then pivot := r
    done;
    if Float.abs a.(!pivot).(col) < 1e-300 then
      invalid_arg "Stationary.solve: singular system (chain not irreducible?)";
    if !pivot <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!pivot);
      a.(!pivot) <- tmp
    end;
    for r = col + 1 to n - 1 do
      let f = a.(r).(col) /. a.(col).(col) in
      if f <> 0. then
        for c = col to n do
          a.(r).(c) <- a.(r).(c) -. (f *. a.(col).(c))
        done
    done
  done;
  let x = Array.make n 0. in
  for r = n - 1 downto 0 do
    let s = ref a.(r).(n) in
    for c = r + 1 to n - 1 do
      s := !s -. (a.(r).(c) *. x.(c))
    done;
    x.(r) <- !s /. a.(r).(r)
  done;
  (* Clean tiny negative round-off and renormalize. *)
  let x = Array.map (fun v -> if v < 0. && v > -1e-9 then 0. else v) x in
  let total = Array.fold_left ( +. ) 0. x in
  Array.map (fun v -> v /. total) x

(* The paper's chains have second eigenvalues near 1 (slow mixing), so
   the direct solve wins by orders of magnitude up to several thousand
   states; power iteration is the fallback for the truly large
   individual chains. *)
let compute t = if t.Chain.size <= 4000 then solve t else power_iteration t

let expected_return_time t i =
  let pi = compute t in
  1. /. pi.(i)

let success_rate t ~pi ~weight =
  let acc = ref 0. in
  for i = 0 to t.Chain.size - 1 do
    acc := !acc +. (pi.(i) *. weight i)
  done;
  !acc
