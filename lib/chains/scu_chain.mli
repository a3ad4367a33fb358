(** The two Markov chains of §6.1.1 for the scan-validate component
    SCU(0, 1), and the lifting between them (Figure 1 shows the n = 2
    case).

    {b Individual chain}: a state records each process's *extended
    local state* — [Read] (about to read R), [CCAS] (about to CAS with
    the current value), or [OldCAS] (about to CAS with a stale value).
    There are 3ⁿ − 1 states (all-OldCAS cannot occur).  Scheduled
    process transitions: Read → CCAS; OldCAS → Read; CCAS → Read
    (a successful CAS) while every *other* CCAS process falls to
    OldCAS.

    {b System chain}: a state is the pair (a, b) with a = #Read,
    b = #OldCAS (the other n − a − b processes are CCAS), excluding
    (0, n).  We derive its transitions from the individual-chain
    semantics:
    - an OldCAS process steps (prob b/n): (a, b) → (a+1, b−1);
    - a Read process steps (prob a/n): (a, b) → (a−1, b);
    - a CCAS process steps — a success — (prob (n−a−b)/n):
      (a, b) → (a+1, n−a−1).

    Note 1: the arXiv manuscript's §6.1.1 lists the last two transition
    probabilities with typos (e.g. "Pr[(a+1, b)|(a, b)] = 1−(a+b)/n",
    which is inconsistent with its own Figure 1 and with the
    individual-chain semantics it states in prose).  We implement the
    semantics; [Markov.Lifting.verify] in the test suite confirms the
    system chain above is the exact lifting of the individual chain,
    which is the property Lemma 5 needs.

    Note 2 (reproduction finding): Lemma 3 calls both chains ergodic,
    but both are *periodic with period 2* — every step changes one
    process's phase and flips a parity invariant (a changes by ±1 in
    the system chain), and no state has a self-loop.  Irreducibility
    (hence the unique stationary distribution of Theorem 1 and all
    long-run averages) does hold, so the paper's quantitative results
    are unaffected; see the ergodicity tests in
    [test/test_chains.ml]. *)

type extended_state = Read | OldCAS | CCAS

module Individual : sig
  type t = {
    chain : Markov.Chain.t;
    n : int;
    encode : extended_state array -> int;
    decode : int -> extended_state array;
    initial : int;  (** All processes in [Read]. *)
  }

  val make : n:int -> t
  (** 3ⁿ − 1 states; practical for n ≲ 10. *)

  val success_weight : t -> proc:int -> int -> float
  (** Probability that the next step is a successful CAS *by [proc]*
      from the given state ([1/n] if [proc] is in [CCAS], else 0). *)

  val any_success_weight : t -> int -> float
  (** Probability that the next step is a success by anyone. *)
end

module System : sig
  type t = {
    chain : Markov.Chain.t;
    n : int;
    encode : a:int -> b:int -> int;
    decode : int -> int * int;
    initial : int;  (** (n, 0). *)
  }

  val make : n:int -> t
  (** (n+1)(n+2)/2 − 1 states. *)

  val any_success_weight : t -> int -> float

  val index : n:int -> a:int -> b:int -> int
  (** Arithmetic state index for population [n]: a-major, b ascending,
      (0, n) excluded.  Matches [make]'s enumeration, so dense and
      sparse stationary vectors are comparable index for index. *)

  val decode_index : n:int -> int -> int * int
  (** Inverse of [index]. *)

  val sparse : n:int -> Markov.Sparse.t
  (** The same (a, b) chain built directly in CSR form — ≤ 3 nonzeros
      per row, no hash table — solvable by {!Markov.Sparse.stationary}
      at 10⁵–10⁶ states, far beyond the dense solver's ceiling. *)

  val system_latency : n:int -> float
  (** W: expected system steps between successes in the stationary
      distribution — the exact value Theorem 5 bounds by O(√n).
      Dense path ([make] + [Markov.Stationary.compute]); memoized. *)

  val sparse_latency : ?tol:float -> n:int -> unit -> float
  (** W computed from {!sparse} via Gauss–Seidel
      ({!Markov.Sparse.stationary}); not memoized.  [tol] is the L1
      residual bound on ‖πP − π‖₁ (default 1e-12).  The conformance
      gates keep it as the reference for {!round_latency}. *)

  type rounds = {
    latency : float;  (** W. *)
    iterations : int;  (** Sweeps run, at least 1. *)
    residual : float;  (** The last ‖μK − μ‖₁, at most 1e-14. *)
  }

  val round_latency : n:int -> rounds
  (** W solved round by round, without materializing the chain: the
      large-n exact leg.  A round runs from one successful CAS to the
      next; it starts in (n − b₀, b₀) with no process in CCAS, and
      inside it b only falls and c = n − a − b only rises until a CCAS
      pick ends it, so its states form a DAG.  One sweep over b
      descending, c ascending, in two rows of length n + 2, computes
      the visit measure of a round whose start b₀ has law μ:
      {v v(b, c) = [c = 0]·μ(b) + v(b+1, c)·(b+1)/n + v(b, c−1)·(a+1)/n v}
      giving E_μ[round length] = Σ v, and the law μK of the next start
      (v(b, c)·c/n lands on b + c − 1).  Power iteration from the
      uniform law stops once ‖μK − μ‖₁ ≤ 1e-14, and then
      W = E_μ[round length] by renewal-reward.  O(n²) time per sweep;
      about 9√n sweeps.  The result carries its certificate (sweep
      count and final residual); [Failure] naming n and the residual if
      10,000 sweeps do not reach the bound, so an uncertified W is
      never returned.  No shared state, no memo table. *)
end

val lift : Individual.t -> System.t -> int -> int
(** The lifting map f of Definition 2: count Read and OldCAS
    processes. *)

val individual_latency : n:int -> float
(** W_i = n·W via Lemma 7 — computed exactly from the system chain. *)
