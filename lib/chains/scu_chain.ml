type extended_state = Read | OldCAS | CCAS

let trit_of = function Read -> 0 | OldCAS -> 1 | CCAS -> 2
let state_of = function 0 -> Read | 1 -> OldCAS | 2 -> CCAS | _ -> assert false

module Individual = struct
  type t = {
    chain : Markov.Chain.t;
    n : int;
    encode : extended_state array -> int;
    decode : int -> extended_state array;
    initial : int;
  }

  (* States are base-3 codes over n trits; the all-OldCAS code
     (every trit = 1) is excluded, and indices above it shift down by
     one so state ids stay contiguous. *)
  let make ~n =
    if n < 1 || n > 12 then invalid_arg "Scu_chain.Individual.make: need 1 <= n <= 12";
    let pow3 = Array.make (n + 1) 1 in
    for k = 1 to n do
      pow3.(k) <- pow3.(k - 1) * 3
    done;
    let bad = (pow3.(n) - 1) / 2 (* 111…1 in base 3 *) in
    let size = pow3.(n) - 1 in
    let code_of_states sts =
      Array.fold_right (fun st acc -> (acc * 3) + trit_of st) sts 0
    in
    let index_of_code c =
      if c = bad then invalid_arg "Scu_chain: the all-OldCAS state does not exist";
      if c < bad then c else c - 1
    in
    let code_of_index i = if i < bad then i else i + 1 in
    let decode i =
      let c = ref (code_of_index i) in
      Array.init n (fun _ ->
          let t = !c mod 3 in
          c := !c / 3;
          state_of t)
    in
    let encode sts = index_of_code (code_of_states sts) in
    let row i =
      let sts = decode i in
      let p = 1. /. float_of_int n in
      List.init n (fun proc ->
          let next = Array.copy sts in
          (match sts.(proc) with
          | Read -> next.(proc) <- CCAS
          | OldCAS -> next.(proc) <- Read
          | CCAS ->
              (* A successful CAS: every other pending CCAS becomes stale. *)
              Array.iteri
                (fun j st -> if j <> proc && st = CCAS then next.(j) <- OldCAS)
                sts;
              next.(proc) <- Read);
          (encode next, p))
    in
    let label i =
      let sts = decode i in
      String.concat ""
        (Array.to_list
           (Array.map (function Read -> "R" | OldCAS -> "O" | CCAS -> "C") sts))
    in
    let chain = Markov.Chain.create ~label ~size ~row () in
    { chain; n; encode; decode; initial = encode (Array.make n Read) }

  let success_weight t ~proc i =
    let sts = t.decode i in
    if sts.(proc) = CCAS then 1. /. float_of_int t.n else 0.

  let any_success_weight t i =
    let sts = t.decode i in
    let c = Array.fold_left (fun acc st -> if st = CCAS then acc + 1 else acc) 0 sts in
    float_of_int c /. float_of_int t.n
end

module System = struct
  type t = {
    chain : Markov.Chain.t;
    n : int;
    encode : a:int -> b:int -> int;
    decode : int -> int * int;
    initial : int;
  }

  let make ~n =
    if n < 1 then invalid_arg "Scu_chain.System.make: n must be >= 1";
    (* Enumerate (a, b) with a, b >= 0, a + b <= n, excluding (0, n). *)
    let states = ref [] in
    for a = n downto 0 do
      for b = n - a downto 0 do
        if not (a = 0 && b = n) then states := (a, b) :: !states
      done
    done;
    let states = Array.of_list !states in
    let index = Hashtbl.create (Array.length states) in
    Array.iteri (fun i ab -> Hashtbl.replace index ab i) states;
    let encode ~a ~b =
      match Hashtbl.find_opt index (a, b) with
      | Some i -> i
      | None -> invalid_arg (Printf.sprintf "Scu_chain.System: invalid state (%d,%d)" a b)
    in
    let decode i = states.(i) in
    let nf = float_of_int n in
    let row i =
      let a, b = states.(i) in
      let c = n - a - b in
      let out = ref [] in
      if b > 0 then out := (encode ~a:(a + 1) ~b:(b - 1), float_of_int b /. nf) :: !out;
      if a > 0 then out := (encode ~a:(a - 1) ~b, float_of_int a /. nf) :: !out;
      (* The success transition: the winner returns to Read and all
         other CCAS processes (c − 1 of them) fall to OldCAS:
         (a, b) → (a+1, b + c − 1) = (a+1, n − a − 1). *)
      if c > 0 then
        out := (encode ~a:(a + 1) ~b:(n - a - 1), float_of_int c /. nf) :: !out;
      !out
    in
    let label i =
      let a, b = states.(i) in
      Printf.sprintf "(%d,%d)" a b
    in
    let chain = Markov.Chain.create ~label ~size:(Array.length states) ~row () in
    { chain; n; encode; decode; initial = encode ~a:n ~b:0 }

  let any_success_weight t i =
    let a, b = t.decode i in
    float_of_int (t.n - a - b) /. float_of_int t.n

  (* Arithmetic (a, b) indexing matching [make]'s enumeration —
     ascending a-major, b ascending within a block, with (0, n)
     excluded (it sat at the end of block a = 0) — so stationary
     vectors from the dense and sparse constructions are comparable
     index for index. *)
  let index ~n ~a ~b =
    let block_start a = (a * (n + 1)) - (a * (a - 1) / 2) in
    if a = 0 then b else block_start a - 1 + b

  let decode_index ~n i =
    (* Invert [index] by scanning blocks: a has at most n+1 values, so
       the linear scan is O(n) and only used on demand. *)
    let rec find a start =
      let width = n - a + 1 - if a = 0 then 1 else 0 in
      if i < start + width then (a, i - start) else find (a + 1) (start + width)
    in
    find 0 0

  (* Direct CSR construction of the lumped chain: no hash table, no
     per-row list churn, ≤ 3 nonzeros per state.  This is what lets
     the (a, b) chain be *solved* at n in the hundreds-to-thousands
     (10⁵–10⁶ states) instead of the dense ceiling's n ≈ 88. *)
  let sparse ~n =
    if n < 1 then invalid_arg "Scu_chain.System.sparse: n must be >= 1";
    let size = ((n + 1) * (n + 2) / 2) - 1 in
    let nf = float_of_int n in
    let rows =
      Array.init size (fun i ->
          let a, b = decode_index ~n i in
          let c = n - a - b in
          let out = ref [] in
          if b > 0 then
            out := (index ~n ~a:(a + 1) ~b:(b - 1), float_of_int b /. nf) :: !out;
          if a > 0 then
            out := (index ~n ~a:(a - 1) ~b, float_of_int a /. nf) :: !out;
          if c > 0 then
            out :=
              (index ~n ~a:(a + 1) ~b:(n - a - 1), float_of_int c /. nf) :: !out;
          !out)
    in
    let label i =
      let a, b = decode_index ~n i in
      Printf.sprintf "(%d,%d)" a b
    in
    Markov.Sparse.of_rows ~label ~size rows

  (* Latency queries recur across experiments and tests (same n), and
     the underlying solve is O(states³); memoize by n.  The table is
     shared by every experiment cell, and cells run concurrently on
     the Domain pool, so accesses are serialized; the solve itself
     runs outside the lock (two domains racing on a fresh n compute
     the same value twice, which is harmless). *)
  let latency_cache : (int, float) Hashtbl.t = Hashtbl.create 16
  let latency_lock = Mutex.create ()

  let system_latency ~n =
    let cached =
      Mutex.protect latency_lock (fun () -> Hashtbl.find_opt latency_cache n)
    in
    match cached with
    | Some w -> w
    | None ->
        let t = make ~n in
        let pi = Markov.Stationary.compute t.chain in
        let rate =
          Markov.Stationary.success_rate t.chain ~pi ~weight:(any_success_weight t)
        in
        let w = 1. /. rate in
        Mutex.protect latency_lock (fun () -> Hashtbl.replace latency_cache n w);
        w

  (* Same latency, computed from the CSR chain with the Gauss–Seidel
     stationary solve — no dense matrix, so it reaches n where the
     state count is 10⁵–10⁶. *)
  let sparse_latency ?tol ~n () =
    let t = sparse ~n in
    let pi = Markov.Sparse.stationary ?tol t in
    let nf = float_of_int n in
    let rate = ref 0. in
    Array.iteri
      (fun i p ->
        let a, b = decode_index ~n i in
        rate := !rate +. (p *. (float_of_int (n - a - b) /. nf)))
      pi;
    1. /. !rate

  type rounds = { latency : float; iterations : int; residual : float }

  let rounds_tol = 1e-14
  let rounds_max_iters = 10_000

  (* A round runs from one successful CAS to the next, so it starts in
     (a₀, n − a₀) with c = 0 and is named by b₀ = n − a₀ ∈ [0, n).
     Inside it b only falls and c only rises, so with a = n − b − c
     the visit measure of a round started from the law μ is
       v(b, c) = [c = 0]·μ(b) + v(b+1, c)·(b+1)/n + v(b, c−1)·(a+1)/n,
     one sweep over b descending and c ascending in two rows.  Its
     total is E_μ[round length]; its CCAS picks, v(b, c)·c/n, land on
     the next start b + c − 1 and make up μK.  K is aperiodic (Read
     then CCAS returns to the same start), so power iteration from the
     uniform law reaches the stationary start law, and renewal-reward
     gives W = E_μ[round length]. *)
  let round_latency ~n =
    if n < 1 then invalid_arg "Scu_chain.System.round_latency: n must be >= 1";
    let nf = float_of_int n in
    let frac = Array.init (n + 2) (fun k -> float_of_int k /. nf) in
    let mu = Array.make n (1. /. nf) and next = Array.make n 0. in
    let rows = [| Array.make (n + 2) 0.; Array.make (n + 2) 0. |] in
    (* E_μ[round length]; μK is left in [next]. *)
    let sweep () =
      Array.fill next 0 n 0.;
      (* Row b = n holds only (0, n), which no round visits. *)
      Array.fill rows.(n land 1) 0 (n + 2) 0.;
      let total = ref 0. in
      for b = n - 1 downto 0 do
        let up = rows.((b + 1) land 1) and row = rows.(b land 1) in
        let old_cas = frac.(b + 1) in
        let v = mu.(b) +. (up.(0) *. old_cas) in
        row.(0) <- v;
        total := !total +. v;
        for c = 1 to n - b do
          let v = (up.(c) *. old_cas) +. (row.(c - 1) *. frac.(n - b - c + 1)) in
          row.(c) <- v;
          total := !total +. v;
          next.(b + c - 1) <- next.(b + c - 1) +. (v *. frac.(c))
        done;
        (* Row b − 1 reads one column past this row's end. *)
        row.(n - b + 1) <- 0.
      done;
      !total
    in
    let rec iterate k =
      let latency = sweep () in
      let residual = ref 0. in
      for i = 0 to n - 1 do
        residual := !residual +. Float.abs (next.(i) -. mu.(i))
      done;
      if !residual <= rounds_tol then { latency; iterations = k; residual = !residual }
      else if k >= rounds_max_iters then
        failwith
          (Printf.sprintf
             "Scu_chain.System.round_latency: n=%d not converged after %d \
              iterations (residual %.3g)"
             n k !residual)
      else begin
        Array.blit next 0 mu 0 n;
        iterate (k + 1)
      end
    in
    iterate 1
end

let lift (ind : Individual.t) (sys : System.t) i =
  let sts = ind.decode i in
  let a = Array.fold_left (fun acc st -> if st = Read then acc + 1 else acc) 0 sts in
  let b = Array.fold_left (fun acc st -> if st = OldCAS then acc + 1 else acc) 0 sts in
  sys.encode ~a ~b

let individual_latency ~n = float_of_int n *. System.system_latency ~n
