(** Finite discrete-time Markov chains.

    States are integers [0 .. size-1]; the transition structure is a
    sparse row function so that chains with millions of implicit states
    never materialize a dense matrix unless asked to. *)

type t = {
  size : int;
  row : int -> (int * float) list;
      (** [row i] lists the outgoing transitions [(j, p_ij)] of state
          [i] with positive probability.  Rows must sum to 1. *)
  label : int -> string;  (** Human-readable state name, for debugging. *)
}

val create :
  ?check:bool ->
  ?label:(int -> string) ->
  size:int ->
  row:(int -> (int * float) list) ->
  unit ->
  t
(** With [check] (the default) every row is evaluated once at
    construction and must be stochastic — entries non-negative, targets
    in range, sum 1 within 1e-9 — else [Invalid_argument] names the
    offending state.  The solvers return garbage on non-stochastic
    input, so the eager check is the contract; pass [~check:false]
    only for chains too large to enumerate (e.g. sampled-only implicit
    chains), in which case the materializing solvers re-validate the
    rows they touch ({!Sparse.of_chain}). *)

val validate : ?eps:float -> t -> (unit, string) result
(** Checks that every row has non-negative entries summing to 1 within
    [eps] (default 1e-9), with in-range targets and no duplicates
    (stricter than [create]'s eager check, which permits duplicate
    targets since their probabilities add). *)

val dense : t -> float array array
(** Materializes the transition matrix.  Intended for small chains. *)

val step_distribution : t -> float array -> float array
(** One application of the transition matrix to a row vector:
    [(vP)_j = Σ_i v_i p_ij]. *)

val sample_path : t -> rng:Stats.Rng.t -> start:int -> steps:int -> int array
(** Simulates a trajectory of [steps] transitions; result has length
    [steps + 1] beginning with [start]. *)

val empirical_occupancy : t -> rng:Stats.Rng.t -> start:int -> steps:int -> float array
(** Fraction of time spent in each state along a sampled trajectory
    (excluding the start state so it sums over [steps] visits). *)
