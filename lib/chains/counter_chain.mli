(** The Markov chains of §7 for the augmented-CAS fetch-and-increment
    counter (Algorithm 5).

    Each process is either [Current] (its local value matches R; its
    next CAS wins) or [Stale].  The individual chain's states are the
    non-empty subsets S of processes holding the current value
    (2ⁿ − 1 states); a step by j ∈ S wins and leaves {j} current,
    a step by j ∉ S gives j the current value (S ∪ {j}).

    The global chain collapses S to its size: from state vᵢ
    (i processes current) the chain wins to v₁ with probability i/n
    and grows to v_{i+1} otherwise.

    Lemma 12: the expected return time of v₁ is W = Z(n−1) ≤ 2√n,
    where Z is the recurrence Z(0) = 1, Z(i) = i·Z(i−1)/n + 1 — the
    Ramanujan Q-function (see {!Ramanujan}). *)

module Individual : sig
  type t = {
    chain : Markov.Chain.t;
    n : int;
    encode : int -> int;  (** Non-empty bitmask of current processes → state id. *)
    decode : int -> int;  (** State id → bitmask. *)
    initial : int;  (** All processes current (the initial configuration). *)
  }

  val make : n:int -> t
  (** 2ⁿ − 1 states; practical for n ≲ 16. *)

  val win_weight : t -> proc:int -> int -> float
  (** Probability the next step is a win by [proc]. *)
end

module Global : sig
  type t = {
    chain : Markov.Chain.t;
    n : int;  (** State id i represents v_{i+1}: i+1 processes current. *)
  }

  val make : n:int -> t

  val return_time_v1 : n:int -> float
  (** Expected return time of v₁ (= the system latency W), computed
      from the chain. *)
end

val lift : Individual.t -> int -> int
(** The lifting map: |S| − 1. *)

val z_recurrence : n:int -> float array
(** [Z(0) … Z(n−1)] from the paper's recurrence; [z_recurrence n).(n-1)]
    equals [Global.return_time_v1 ~n] (verified in the tests). *)
