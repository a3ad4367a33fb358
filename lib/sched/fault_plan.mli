(** Fault schedules.

    Definition 1 of the paper only shrinks the possibly-active set
    (permanent crashes): conditions 3–4 say a crashed process has
    probability 0 from its crash time onward and A_{τ+1} ⊆ A_τ, and
    the paper allows up to n−1 crashes.  A plan of [Crash] events
    alone is exactly such a crash plan ({!of_crash_events}).  A fault
    plan adds three deliberate extensions, documented in DESIGN.md
    ("Fault model"):

    - {b crash–recovery}: a [Restart] event revives a crashed process
      with a fresh program body while the shared memory keeps whatever
      (possibly torn) state the crash left behind;
    - {b stalls}: a [Stall (p, d)] event at time [t] makes [p]
      unschedulable during [[t, t+d)] without crashing it;
    - {b spurious CAS failure}: per-process rates at which a CAS (or
      augmented CAS) that would succeed is denied, LL/SC-style, drawn
      deterministically from the executor's seed. *)

type event =
  | Crash of int  (** Process stops taking steps at the event time. *)
  | Restart of int
      (** A crashed process resumes with a fresh program body at the
          event time (no-op if the target is not currently crashed or
          its body already terminated). *)
  | Stall of int * int
      (** [Stall (p, d)] at time [t]: [p] is unschedulable during
          [[t, t+d)].  Windows overlap by taking the later end. *)

type t
(** A time-sorted event list plus per-process spurious-CAS rates. *)

type rates = {
  crash : float;  (** Per-process per-step crash probability. *)
  recover : float;  (** Per-crashed-process per-step restart probability. *)
  stall : float;  (** Per-process per-step stall probability. *)
  stall_len : int;  (** Duration of each generated stall window. *)
  casfail : float;  (** Spurious failure rate applied to every process. *)
}
(** Rate-based fault description, expanded into concrete events by
    {!instantiate}. *)

val zero_rates : rates

val quick_rates : rates
(** Fault-free (all zero). *)

val standard_rates : rates
(** Mild always-on drill: 0.2% crash and stall (3-step windows), 5%
    recovery, 2% spurious CAS. *)

val century_rates : rates
(** Rare-event tier: 1e-4 crash and stall rates, 5e-4 spurious CAS —
    faults as exceptional excursions within long runs. *)

val chaos_rates : rates
(** Heavy mixed drill: 1% crash and stall (5-step windows), 5%
    recovery, 10% spurious CAS ({!val:Check.Chaos.default_spec}'s
    historical values). *)

val tier_rates : string -> rates option
(** Look up a named tier ([quick]/[standard]/[century]/[chaos]). *)

type spec = { base : t; rates : rates }
(** What [--faults] parses to: explicit events plus rates. *)

val none : t
val is_none : t -> bool

val make : ?spurious:(int option * float) list -> (int * event) list -> t
(** [(time, event)] list in any order; [spurious] entries are
    [(Some proc | None (= every process), rate)]. *)

val of_crash_events : (int * int) list -> t
(** A crash-only plan from [(time, proc)] pairs: each process stops at
    the start of its crash time.  A process listed more than once
    crashes at its earliest time (a later crash of a crashed process
    is a no-op). *)

val merge : t -> t -> t
(** Union of events (stable by time) and spurious entries; overlapping
    spurious rates resolve to the maximum. *)

val events : t -> (int * event) array
(** Events sorted by time (stable); a fresh copy. *)

val events_list : t -> (int * event) list
val spurious : t -> (int option * float) list

val has_spurious : t -> bool

val spurious_rates : n:int -> t -> float array
(** Effective per-process rate (maximum over matching entries). *)

val restart_count : t -> int
val stall_total : t -> int
(** Budget hints: number of restart events and summed stall durations
    (idle time the executor may burn waiting out an all-stalled
    window). *)

val survivors : n:int -> t -> int
(** Processes left un-crashed once every restart is accounted for
    (out-of-range event targets are ignored).  [0] means the plan is a
    total outage — {!validate} rejects it, but the load engine's
    outage drill detects and degrades it instead. *)

val validate : n:int -> t -> (unit, string) result
(** Process ids in range, times and stall durations non-negative,
    rates in [0,1), and at least one process left un-crashed once every
    restart is accounted for. *)

val to_string : t -> string
(** Round-trips through {!parse_spec} (explicit events and per-process
    casfail entries; a plan built by {!instantiate} serializes to its
    expansion, not the original rates). *)

val spec_to_string : spec -> string

val parse_spec : string -> (spec, string) result
(** Grammar (comma-separated tokens; [""] and ["none"] are empty):
    [crash@T:P], [restart@T:P], [stall@T:P+D], [casfail:P=R] (P may be
    [*]), and rate entries [crash~R], [recover~R], [stall~R:D],
    [casfail~R].  Errors are one-line messages naming the bad token. *)

val spec_is_none : spec -> bool

val instantiate : spec -> seed:int -> n:int -> horizon:int -> t
(** Expand the rate part over times [0..horizon-1] deterministically
    by [seed] (the walk tracks crashed processes so recover rates act
    on crashed ones and at least one process always survives) and
    merge it with the explicit base plan.  All-zero rates return
    [spec.base] unchanged without consuming any randomness. *)
