(** Structural properties: irreducibility and aperiodicity.

    The paper's Lemma 3 asserts both chains it studies are ergodic;
    these checks make that assertion executable. *)

val strongly_connected : Chain.t -> bool
(** True when every state reaches every other (the chain is
    irreducible). *)

val period : Chain.t -> int
(** The period of the chain's (assumed single) recurrent class: the
    gcd of all cycle lengths through state 0.  Requires the chain to be
    irreducible; raises [Invalid_argument] otherwise. *)

val is_ergodic : Chain.t -> bool
(** Irreducible and aperiodic. *)
