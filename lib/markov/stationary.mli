(** Stationary distributions of ergodic chains.

    Theorem 1 of the paper: an irreducible finite chain has a unique
    stationary distribution π with π_j = 1 / h_jj.  We compute π two
    independent ways (power iteration and a dense linear solve) and the
    test suite checks they agree. *)

val power_iteration :
  ?max_iters:int -> ?tol:float -> Chain.t -> float array
(** Damped (lazy) power iteration — applies (I + P)/2, which shares
    P's stationary distribution — starting from uniform, until the L1
    change drops below [tol] (default 1e-12) or [max_iters] (default
    1_000_000).  The damping matters: the paper's scan-validate chains
    are irreducible but *periodic* (period 2), so plain iteration of P
    would oscillate forever.  Runs over a one-shot CSR materialization
    ({!Sparse.power_iteration}); for chains beyond ~10⁴ states prefer
    {!Sparse.stationary}, whose Gauss–Seidel sweeps converge orders of
    magnitude faster on the paper's slowly-mixing chains. *)

val solve : Chain.t -> float array
(** Solves πP = π, Σπ = 1 by dense Gaussian elimination with partial
    pivoting.  O(size³); intended for chains up to a few thousand
    states. *)

val compute : Chain.t -> float array
(** [solve] for chains up to a few thousand states, [power_iteration]
    otherwise (the paper's chains mix slowly, so the direct solve is
    much faster whenever it fits). *)

val expected_return_time : Chain.t -> int -> float
(** [1 / π_i] (Theorem 1). *)

val success_rate : Chain.t -> pi:float array -> weight:(int -> float) -> float
(** Σ_i π_i · weight(i): the stationary rate of any event whose
    per-state probability is [weight].  The paper's latency arguments
    are all of the form W = 1 / success_rate. *)
