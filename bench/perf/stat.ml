(* Order statistics over timing samples. *)

let lower_median = Experiments.Stepbench.median_of

(* Python's [statistics.median]: the mean of the two middle values when
   the count is even.  Used for spreads over a run set, where the
   result is compared with what external tooling computes. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stat.median: empty samples";
  let d = Array.copy xs in
  Array.sort compare d;
  if n mod 2 = 1 then d.(n / 2) else (d.((n / 2) - 1) +. d.(n / 2)) /. 2.

(* Quartiles exactly as Python's [statistics.quantiles xs ~n:4] with
   its default "exclusive" method, for the same reason as [median]. *)
let quartiles xs =
  let ld = Array.length xs in
  if ld < 2 then invalid_arg "Stat.quartiles: need at least two samples";
  let d = Array.copy xs in
  Array.sort compare d;
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

(* Interquartile range as a share of the median: the run-to-run spread
   a metric's regression bound is set against. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)
