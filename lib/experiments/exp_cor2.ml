(* Corollary 2: with k <= n correct processes, the stationary latency
   depends on k, not n — crashed processes stop influencing the chain.
   We crash n-k processes at time 0 and compare against a native
   k-process run. *)

let id = "cor2"
let title = "Corollary 2: latency depends on the k correct processes"

let notes =
  "Columns 'crashed run' and 'native k run' agree for every (n, k); \
   both follow O(sqrt k)."

let plan { Plan.quick; seed } =
  let steps = if quick then 300_000 else 1_200_000 in
  let cell_of (n, k) =
    Plan.cell (Printf.sprintf "n=%d,k=%d" n k) (fun () ->
        let fault_plan =
          Sched.Fault_plan.of_crash_events
            (List.init (n - k) (fun i -> (0, k + i)))
        in
        let c1 = Scu.Counter.make ~n in
        let m1 = Runs.spec_metrics ~seed:(seed + 91) ~fault_plan ~n ~steps c1.spec in
        let c2 = Scu.Counter.make ~n:k in
        let m2 = Runs.spec_metrics ~seed:(seed + 92) ~n:k ~steps c2.spec in
        [
          [
            string_of_int n;
            string_of_int k;
            Runs.fmt (Sim.Metrics.mean_system_latency m1);
            Runs.fmt (Sim.Metrics.mean_system_latency m2);
            Runs.fmt (Chains.Scu_chain.System.system_latency ~n:k);
          ];
        ])
  in
  Plan.of_rows
    ~headers:[ "n"; "k correct"; "W crashed run"; "W native k run"; "exact W(k)" ]
    (List.map cell_of [ (8, 4); (16, 8); (16, 4); (32, 8) ])
