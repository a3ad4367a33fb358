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
(** A time-sorted event list plus per-process spurious-CAS rates.  A
    plan from {!instantiate} with non-zero rates is expanded as it is
    read: its readers see the same events as a plan expanded up front,
    but the rate walk behind them only runs as far as they look.  Such
    a plan fills in on read, so read it from one domain at a time:
    build it in the domain that runs it, as the load engine does
    inside [run_shard]. *)

type rates = {
  crash : float;  (** Per-process per-step crash probability. *)
  recover : float;  (** Per-crashed-process per-step restart probability. *)
  stall : float;  (** Per-process per-step stall probability. *)
  stall_len : int;  (** Duration of each generated stall window. *)
  casfail : float;  (** Spurious failure rate applied to every process. *)
}
(** Rate-based fault description, expanded into concrete events by
    {!instantiate}. *)

val validate_rates : rates -> (unit, string) result
(** Crash, recover and stall rates in [[0,1]], casfail in [[0,1)], no
    NaN, and a non-negative stall length.  {!parse_spec} applies it to
    every rate token. *)

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

(** {2 Reading a plan in time order}

    These expand the plan only as far as they look. *)

val time_at : t -> int -> int
(** [time_at t i] is the time of event [i] (in plan order), or
    [max_int] past the last event.  Allocates nothing once the event
    is known. *)

val event_at : t -> int -> event
(** [event_at t i] is event [i]; [Invalid_argument] past the last. *)

val exists_from : t -> int -> (event -> bool) -> bool
(** [exists_from t i f]: some event at index [i] or later satisfies
    [f].  Expands only up to the first one that does. *)

val down_for_good : t -> int -> now:int -> bool
(** [down_for_good t p ~now]: [p]'s last crash or restart event in the
    whole plan is a crash at or before [now] — [p] is crashed at [now]
    and never restarts.  [t] must come from {!instantiate} and [p] be
    one of its [n] processes ([Invalid_argument] otherwise).  Expands
    only through [now] and, if [p] is down then, on to [p]'s next crash
    or restart (or the plan's end); repeated queries do not rescan the
    plan. *)

(** {2 Whole-plan readers}

    These expand the plan to its end. *)

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

val outage : n:int -> t -> bool
(** [survivors ~n t = 0].  A plan instantiated over at most [n]
    processes from valid rates and no explicit events always keeps a
    survivor, and is answered without expanding it. *)

val validate : n:int -> t -> (unit, string) result
(** Process ids in range, times and stall durations non-negative,
    rates in [0,1), and at least one process left un-crashed once every
    restart is accounted for.  Like {!outage}, it expands nothing for a
    plan instantiated over at most [n] processes from valid rates and
    no explicit events (the walk guarantees all of these); any other
    plan is checked on its full expansion. *)

val to_string : t -> string
(** Round-trips through {!parse_spec} (explicit events and per-process
    casfail entries; a plan built by {!instantiate} serializes to its
    expansion, not the original rates). *)

val spec_to_string : spec -> string

val parse_spec : string -> (spec, string) result
(** Grammar (comma-separated tokens; [""] and ["none"] are empty):
    [crash@T:P], [restart@T:P], [stall@T:P+D], [casfail:P=R] (P may be
    [*]), and rate entries [crash~R], [recover~R], [stall~R:D],
    [casfail~R].  Rate entries must pass {!validate_rates}.  A spec
    that is exactly one tier name ({!tier_rates}), blanks around it
    aside as around every token, is that tier's rates with no explicit
    events; a tier name is not a token, so it does not combine with
    others.  Errors are one-line messages naming the bad token. *)

val spec_is_none : spec -> bool

val instantiate : spec -> seed:int -> n:int -> horizon:int -> t
(** The rate part walked over times [0..horizon-1] (processes [0..n-1]
    within a time) deterministically by [seed], merged stably with the
    explicit base plan: at equal times the explicit events come first,
    and explicit events at or after [horizon] follow the walk.  The
    walk tracks crashed processes so recover rates act on crashed ones
    and at least one process always survives.

    Nothing is drawn up front: the walk is expanded on read, one time
    step at a time, and every prefix any reader sees is the prefix of
    the plan a full walk would give.  All-zero rates give the base
    plan's events without consuming any randomness. *)
