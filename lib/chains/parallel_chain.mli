(** The Markov chains of §6.2 for "parallel code" (Algorithm 4): each
    process cycles through q step-counter values; a completion happens
    whenever a counter wraps from q−1 to 0.

    The individual chain M_I has qⁿ states (all counter tuples) and a
    uniform stationary distribution; the system chain M_S records only
    the occupancy vector (v₀ … v_{q−1}) with Σvⱼ = n.  Lemma 10: the
    occupancy map is a lifting.  Lemma 11: system latency is exactly
    q, individual latency exactly n·q. *)

module Individual : sig
  type t = {
    chain : Markov.Chain.t;
    n : int;
    q : int;
    encode : int array -> int;
    decode : int -> int array;
    initial : int;  (** All counters at 0. *)
  }

  val make : n:int -> q:int -> t
  (** qⁿ states; keep n·log q small (guarded at qⁿ ≤ 200_000). *)

  val completion_weight : t -> proc:int -> int -> float
end

module System : sig
  type t = {
    chain : Markov.Chain.t;
    n : int;
    q : int;
    encode : int array -> int;
    decode : int -> int array;
    initial : int;
  }

  val make : n:int -> q:int -> t
  (** C(n+q−1, q−1) states. *)

  val system_latency : n:int -> q:int -> float
  (** Exactly q (Lemma 11); computed from the chain, asserted exact in
      the tests. *)
end

val lift : Individual.t -> System.t -> int -> int
(** Occupancy map. *)
