(* The rule a change is judged by, per (metric, workload): runs of the
   parent and of the change are paired in the order they were made.

   - improved: at least 10 pairs, the change wins at least 9 in 10 of
     them (ties count for neither), and the medians differ, in the
     change's favour, by more than the parent's interquartile range;
   - regressed: the change's median is worse than the parent's by more
     than the metric's bound;
   - unresolved: the run-to-run spread of either side is wider than
     the bound, unless every change run beats every parent run;
   - unchanged: none of the above. *)

type t = Improved | Unchanged | Regressed | Unresolved

let to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"

let min_pairs = 10

type row = {
  pairs : int;
  wins : int;
  parent_median : float;
  change_median : float;
  parent_iqr : float;
  worse_by : float;  (** Share of the parent's median; negative = better. *)
  verdict : t;
}

let judge (m : Catalog.metric) ~parent ~change =
  let pairs = min (Array.length parent) (Array.length change) in
  if pairs < 2 then invalid_arg "Verdict.judge: need at least two pairs";
  let beats a b = match m.better with Lower -> a < b | Higher -> a > b in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if beats change.(i) parent.(i) then incr wins
  done;
  let mp = Stat.median parent and mc = Stat.median change in
  let q1, _, q3 = Stat.quartiles parent in
  let worse_by =
    (match m.better with Lower -> mc -. mp | Higher -> mp -. mc)
    /. Float.abs mp
  in
  let bound = Option.value m.bound ~default:0. in
  let every_change_beats =
    Array.for_all (fun c -> Array.for_all (fun p -> beats c p) parent) change
  in
  let verdict =
    if
      pairs >= min_pairs
      && 10 * !wins >= 9 * pairs
      && beats mc mp
      && Float.abs (mc -. mp) > q3 -. q1
    then Improved
    else if worse_by > bound then Regressed
    else if
      Float.max (Stat.spread parent) (Stat.spread change) > bound
      && not every_change_beats
    then Unresolved
    else Unchanged
  in
  {
    pairs;
    wins = !wins;
    parent_median = mp;
    change_median = mc;
    parent_iqr = q3 -. q1;
    worse_by;
    verdict;
  }

(* Pairs are alternating when successive pairs swap which side ran
   first, judged by each run's start time. *)
let alternating ~parent_started ~change_started =
  let n = min (Array.length parent_started) (Array.length change_started) in
  let parent_first i = parent_started.(i) < change_started.(i) in
  let ok = ref true in
  for i = 1 to n - 1 do
    if parent_first i = parent_first (i - 1) then ok := false
  done;
  !ok
