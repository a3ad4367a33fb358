(** Fixed-width-bin histograms over a closed interval.

    Used to summarize latency distributions and to render the
    step-share bar charts behind Figures 3 and 4 as text. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** [create ~lo ~hi ~bins] covers [\[lo, hi)] with [bins] equal bins.
    Requires [lo < hi] and [bins >= 1]. *)

val add : t -> float -> unit
(** Observations outside [\[lo, hi)] are counted in the under/overflow
    tallies, not in any bin. *)

val counts : t -> int array
val underflow : t -> int
val overflow : t -> int
val total : t -> int
(** Total number of observations, including under/overflow. *)

val bin_of : t -> float -> int option
(** Index of the bin [x] falls into, if in range. *)

val pp : Format.formatter -> t -> unit
(** Text rendering, one row per bin with a proportional bar. *)
