(* Correctness checks a run applies to its own outputs.  Each is a pure
   function of the values it judges, so the tests can show that it
   rejects a doctored input.  Verdicts use the conformance gates'
   record, and the chain tolerances are the ones [Check.Conform]
   applies to the same quantities. *)

module Conform = Check.Conform

type t = Conform.gate

let residual ~label r =
  Conform.gate
    (Printf.sprintf "residual %s <= 1e-12" label)
    (r <= 1e-12)
    (Printf.sprintf "L1 residual %.3g" r)

let asymptote ~n ~w =
  Conform.rel_gate
    (Printf.sprintf "W(%d) vs sqrt(pi n)" n)
    ~got:w
    ~want:(Chains.Predict.asymptotic_scan_validate_latency ~n)
    ~tol:0.025

(* W(n) ≈ √(πn) + c, so the slope of W against √n between two
   populations extrapolates to √π. *)
let richardson ~n1 ~w1 ~n2 ~w2 =
  let sqrtn n = sqrt (float_of_int n) in
  Conform.rel_gate "Richardson slope vs sqrt(pi)"
    ~got:((w2 -. w1) /. (sqrtn n2 -. sqrtn n1))
    ~want:(sqrt Float.pi) ~tol:5e-3

let outcomes ~completed ~failed ~offered =
  Conform.gate "outcomes add up"
    (completed + failed = offered)
    (Printf.sprintf "%d completed + %d failed vs %d offered" completed failed
       offered)

let no_stopped_shards ids =
  Conform.gate "no stopped-early shard" (ids = [])
    (match ids with
    | [] -> "every shard finished"
    | ids -> "stopped: " ^ String.concat "," (List.map string_of_int ids))

let manifest_round_trip s =
  let back =
    match Telemetry.Json.parse s with
    | Ok j -> Telemetry.Json.to_string ~compact:true j = s
    | Error _ -> false
  in
  Conform.gate "manifest survives Json.parse" back
    (Printf.sprintf "%d bytes" (String.length s))

let identical ~what = function
  | [] -> Conform.gate (what ^ " identical across iterations") true "no iterations"
  | d :: rest ->
      let differing = List.length (List.filter (( <> ) d) rest) in
      Conform.gate
        (what ^ " identical across iterations")
        (differing = 0)
        (Printf.sprintf "%d of %d differ from the first" differing
           (List.length rest + 1))

let no_violations ~structure count =
  Conform.gate
    ("no violations: " ^ structure)
    (count = 0)
    (Printf.sprintf "%d violations" count)

let ran ~id = function
  | None -> Conform.gate ("ran: " ^ id) true "ok"
  | Some msg -> Conform.gate ("ran: " ^ id) false msg
