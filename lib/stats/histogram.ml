type t = {
  lo : float;
  hi : float;
  width : float;
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
}

let create ~lo ~hi ~bins =
  if not (lo < hi) then invalid_arg "Histogram.create: lo must be < hi";
  if bins < 1 then invalid_arg "Histogram.create: bins must be >= 1";
  {
    lo;
    hi;
    width = (hi -. lo) /. float_of_int bins;
    counts = Array.make bins 0;
    underflow = 0;
    overflow = 0;
  }

let bin_of t x =
  if x < t.lo then None
  else if x >= t.hi then None
  else
    let i = int_of_float ((x -. t.lo) /. t.width) in
    (* Guard against floating point edge effects at the top edge. *)
    Some (Stdlib.min i (Array.length t.counts - 1))

let add t x =
  match bin_of t x with
  | Some i -> t.counts.(i) <- t.counts.(i) + 1
  | None -> if x < t.lo then t.underflow <- t.underflow + 1 else t.overflow <- t.overflow + 1

let counts t = Array.copy t.counts
let underflow t = t.underflow
let overflow t = t.overflow

let total t =
  Array.fold_left ( + ) (t.underflow + t.overflow) t.counts

let bin_lo t i = t.lo +. (float_of_int i *. t.width)

let pp ppf t =
  let n = total t in
  let peak = Array.fold_left Stdlib.max 1 t.counts in
  Array.iteri
    (fun i c ->
      let bar = String.make (if peak = 0 then 0 else c * 40 / peak) '#' in
      Format.fprintf ppf "[%10.4g, %10.4g) %8d %5.1f%% %s@." (bin_lo t i)
        (bin_lo t (i + 1))
        c
        (if n = 0 then 0. else 100. *. float_of_int c /. float_of_int n)
        bar)
    t.counts;
  if t.underflow > 0 || t.overflow > 0 then
    Format.fprintf ppf "underflow %d, overflow %d@." t.underflow t.overflow
