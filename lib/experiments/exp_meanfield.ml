(* Scaling the Θ(√n) latency law to n = 10⁶ by cross-validating three
   independent legs, each reaching where the others cannot:

   - exact: the lumped (a, b) system chain — dense solve to n = 64;
     beyond, round by round ({!Chains.Scu_chain.System.round_latency})
     without materializing the chain, to n = 450 (10⁵ states) quick
     and n = 1000 (5·10⁵ states) full;
   - simulation: the compiled-executor counter at small/medium n;
   - mean field: the RK4 fluid limit ({!Chains.Meanfield}), O(√n) per
     evaluation, so n = 10⁶ is direct.

   The legs are tied together by the closed forms: W(n) → √(πn), the
   fluid limit gives exactly √(2n), and the ratio is the fluctuation
   correction √(π/2).  A Richardson footer extrapolates the 1/√n tail
   of W/√n from the two largest exact rows; it lands on √π to ~1e-3. *)

let id = "meanfield"
let title = "Scaling to n = 1e6: exact (sparse) vs simulation vs mean field"

let notes =
  "exact = sim within noise (n <= 64); W/sqrt(pi n) -> 1 from above; \
   W/W_mf -> sqrt(pi/2) ~ 1.2533; Richardson slope of W vs sqrt n ~ \
   sqrt(pi) ~ 1.7725."

type leg = {
  n : int;
  states : int option;  (** Lumped-chain size; None without an exact leg. *)
  exact : float option;
  sim : float option;
  mf : float;
}

let plan { Plan.quick; seed } =
  let steps = if quick then 100_000 else 500_000 in
  let sparse_ns = if quick then [ 256; 450 ] else [ 256; 450; 1000 ] in
  let dense_ns = [ 16; 64 ] in
  let mf_only_ns = [ 10_000; 100_000; 1_000_000 ] in
  let states_of n = ((n + 1) * (n + 2) / 2) - 1 in
  let cell_of n =
    Plan.cell (Printf.sprintf "n=%d" n) (fun () ->
        let exact, states =
          if List.mem n dense_ns then
            (Some (Chains.Predict.exact_scan_validate_latency ~n), Some (states_of n))
          else if List.mem n sparse_ns then
            ( Some (Chains.Scu_chain.System.round_latency ~n).latency,
              Some (states_of n) )
          else (None, None)
        in
        let sim =
          if List.mem n dense_ns then
            let m = Runs.counter_metrics ~seed:(seed + 90 + n) ~n ~steps () in
            Some (Sim.Metrics.mean_system_latency m)
          else None
        in
        { n; states; exact; sim; mf = Chains.Meanfield.latency ~n () })
  in
  let headers =
    [ "n"; "states"; "W exact"; "W sim"; "W mf"; "sqrt(pi n)"; "exact/asym"; "exact/mf" ]
  in
  let opt fmt = function Some v -> fmt v | None -> "-" in
  let assemble legs =
    let rows =
      List.map
        (fun l ->
          let asym = Chains.Predict.asymptotic_scan_validate_latency ~n:l.n in
          [
            string_of_int l.n;
            opt string_of_int l.states;
            opt Runs.fmt l.exact;
            opt Runs.fmt l.sim;
            Runs.fmt l.mf;
            Runs.fmt asym;
            opt (fun w -> Runs.fmt (w /. asym)) l.exact;
            opt (fun w -> Runs.fmt (w /. l.mf)) l.exact;
          ])
        legs
    in
    (* Richardson footer: W(n) ≈ α√n + c, so the slope between the two
       largest exact rows cancels the constant tail and recovers α. *)
    let footer =
      match
        List.rev
          (List.filter_map
             (fun l -> Option.map (fun w -> (l.n, w)) l.exact)
             legs)
      with
      | (n2, w2) :: (n1, w1) :: _ ->
          let sqrtn n = sqrt (float_of_int n) in
          let alpha = (w2 -. w1) /. (sqrtn n2 -. sqrtn n1) in
          [
            [
              Printf.sprintf "Richardson(%d,%d)" n1 n2;
              "-";
              Runs.fmt alpha;
              "-";
              "-";
              Printf.sprintf "sqrt(pi)=%s" (Runs.fmt (sqrt Float.pi));
              Runs.fmt (alpha /. sqrt Float.pi);
              "-";
            ];
          ]
      | _ -> []
    in
    rows @ footer
  in
  Plan.make ~headers
    ~cells:(List.map cell_of (dense_ns @ sparse_ns @ mf_only_ns))
    ~assemble
