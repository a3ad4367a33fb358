(** A blocking (lock-based) counter, for the paper's §2.2 taxonomy.

    The paper classifies progress along two axes: blocking vs
    non-blocking, and minimal vs maximal.  Everything else in this
    library is non-blocking; this module is the blocking comparison
    point — a fetch-and-increment protected by a ticket lock (Lamport/
    Mellor-Crummey-style FIFO spin lock):

      acquire: my_ticket := FAA(next_ticket); spin until
               now_serving = my_ticket
      …critical section: read counter, write counter+1…
      release: now_serving := my_ticket + 1

    Under crash-free schedulers this is *starvation-free* (FIFO hand-
    off: maximal progress in every crash-free execution — Lamport's
    bakery-style guarantee, paper ref [15]).  It is NOT lock-free: if
    the lock holder crashes, no process ever completes again.  The
    `abl-lock` experiment shows exactly that, against the CAS counter
    which shrugs crashes off. *)

type t = {
  spec : Sim.Executor.spec;
  next_ticket : int;
  now_serving : int;
  counter : int;
  n : int;
}

val make : n:int -> t

val value : t -> Sim.Memory.t -> int
(** Current counter value. *)

