(** Streaming descriptive statistics (Welford's algorithm).

    Accumulates count, mean, variance, min and max in O(1) space, with
    numerically stable updates.  Two accumulators can be [merge]d, which
    the multicore harness uses to combine per-domain statistics. *)

type t
(** Mutable accumulator. *)

val create : unit -> t

val add : t -> float -> unit
(** Record one observation. *)

val count : t -> int
val mean : t -> float
(** Mean of the observations; [nan] if empty. *)

val variance : t -> float
(** Unbiased sample variance; [nan] if fewer than two observations. *)

val stddev : t -> float
val min : t -> float
val max : t -> float
val total : t -> float
(** Sum of all observations. *)

val stderr : t -> float
(** Standard error of the mean, [stddev / sqrt count]. *)

val merge : t -> t -> t
(** [merge a b] is a fresh accumulator equivalent to having seen both
    streams (Chan et al. parallel variance combination). *)

val of_array : float array -> t

val pp : Format.formatter -> t -> unit
(** Prints [mean ± stderr (n=count, min=…, max=…)]. *)
