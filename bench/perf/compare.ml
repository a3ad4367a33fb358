(* compare.exe PARENT CHANGE: judge a change against its parent from two
   run-set files written by `perf.exe --record`, one line per run.

   For every workload and end-to-end metric it prints both sides'
   medians and quartiles, the pairs the change won and the verdict of
   {!Perfkit.Verdict}; then each workload's failed share and whether
   the simulated anchors of runs with the same seed are bit-identical.
   Exit code: 1 when a metric regressed, more operations failed, or a
   run was incorrect; 2 when some workload has fewer than 10 pairs or
   its pairs do not alternate which side ran first; else 0. *)

module Catalog = Perfkit.Catalog
module Record = Perfkit.Record
module Stat = Perfkit.Stat
module Verdict = Perfkit.Verdict

let load file =
  match Record.load file with
  | Ok rs -> List.filter (fun (r : Record.t) -> not r.traced) rs
  | Error e ->
      prerr_endline ("compare: " ^ e);
      exit 2

let of_workload w = List.filter (fun (r : Record.t) -> r.workload = w)

let values name rs =
  Array.of_list
    (List.map
       (fun (r : Record.t) ->
         match List.assoc_opt name r.metrics with
         | Some v -> v
         | None ->
             Printf.eprintf "compare: a %s run lacks %s\n" r.workload name;
             exit 2)
       rs)

let failed_frac rs =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  float_of_int (sum (fun (r : Record.t) -> r.failed))
  /. float_of_int (max 1 (sum (fun (r : Record.t) -> r.attempted)))

let quartile_text xs =
  if Array.length xs < 2 then Printf.sprintf "%.4g" (Stat.median xs)
  else
    let q1, q2, q3 = Stat.quartiles xs in
    Printf.sprintf "%.4g [%.4g, %.4g]" q2 q1 q3

let () =
  let parent_file, change_file =
    match Array.to_list Sys.argv with
    | [ _; p; c ] -> (p, c)
    | _ ->
        prerr_endline "usage: compare.exe PARENT.jsonl CHANGE.jsonl";
        exit 2
  in
  let parent = load parent_file and change = load change_file in
  let failing = ref false and inconclusive = ref false in
  List.iter
    (fun w ->
      let p = of_workload w parent and c = of_workload w change in
      let pairs = min (List.length p) (List.length c) in
      if pairs > 0 then begin
        let p = List.filteri (fun i _ -> i < pairs) p
        and c = List.filteri (fun i _ -> i < pairs) c in
        let started rs = Array.of_list (List.map (fun (r : Record.t) -> r.started) rs) in
        let alternating =
          Verdict.alternating ~parent_started:(started p) ~change_started:(started c)
        in
        Printf.printf "%s: %d pairs%s%s\n" w pairs
          (if pairs < Verdict.min_pairs then
             Printf.sprintf " (fewer than %d: no gain can be claimed)" Verdict.min_pairs
           else "")
          (if alternating then "" else " (pairs do not alternate)");
        if pairs < Verdict.min_pairs || not alternating then inconclusive := true;
        if pairs >= 2 then
          List.iter
            (fun (m : Catalog.metric) ->
              let pv = values m.name p and cv = values m.name c in
              let row = Verdict.judge m ~parent:pv ~change:cv in
              if row.verdict = Regressed then failing := true;
              Printf.printf
                "  %-10s parent %-32s change %-32s wins %2d/%-2d  worse by %+6.1f%% \
                 (bound %.0f%%)  %s\n"
                m.name (quartile_text pv) (quartile_text cv) row.wins row.pairs
                (100. *. row.worse_by)
                (100. *. Option.value m.bound ~default:0.)
                (Verdict.to_string row.verdict))
            Catalog.end_to_end;
        let fp = failed_frac p and fc = failed_frac c in
        let incorrect = List.exists (fun (r : Record.t) -> not r.correct) c in
        if fc > fp || incorrect then failing := true;
        Printf.printf "  failed     parent %.6g change %.6g%s%s\n" fp fc
          (if fc > fp then "  MORE FAILURES" else "")
          (if incorrect then "  INCORRECT RUNS" else "");
        let same_seed =
          List.filter_map
            (fun (r : Record.t) ->
              Option.map
                (fun (q : Record.t) -> (r.seed, r.anchors = q.anchors))
                (List.find_opt (fun (q : Record.t) -> q.seed = r.seed) c))
            p
        in
        let differing = List.filter (fun (_, same) -> not same) same_seed in
        if List.exists (fun (r : Record.t) -> r.anchors <> []) p then
          Printf.printf "  anchors    %s\n"
            (if differing = [] then
               Printf.sprintf "identical at %d shared seeds" (List.length same_seed)
             else
               "differ at seeds "
               ^ String.concat "," (List.map (fun (s, _) -> string_of_int s) differing))
      end)
    Catalog.workloads;
  exit (if !failing then 1 else if !inconclusive then 2 else 0)
