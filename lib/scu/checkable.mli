(** Structures packaged for the `repro check` engine.

    Each entry bundles a bounded, deterministic workload over one of
    the runtime structures with everything the schedule explorer and
    fuzzer need to judge a run: a recorded operation history (in the
    {!Linearize.Checker} event format, doubled-clock timestamps), the
    structure's sequential specification as a check closure, and a
    structural invariant for the executor's [invariant] hook.

    {b Adding a structure} takes one record and one list entry in
    [checkable.ml].  The record gives the sequential spec, whether the
    operations are all increments or come from the add/take plan, and
    a [build] that lays the structure out in a fresh memory and
    returns its operation, an optional crash-recovery settlement and
    its invariant.  [instantiate "name" record] derives the recorder,
    the plan, the recovery-safe program loop and the {!instance}; list
    it in {!stock}, {!all} or {!mutants}.  A [build] must allocate its
    cells (and draw any randomness) in a fixed order: the explorer
    hashes [Sim.Memory.snapshot] to prune states, and the goldens pin
    its node counts.

    The non-trivial stock entries are the elimination stack (a push
    crashed while parked in an exchange slot is settled on recovery by
    a CAS-withdraw-or-complete protocol; a pop is marked linearized at
    its grab CAS) and the wait-free helping counter (recovery-safe by
    idempotence: sequence numbers derive from the plan cursor, so a
    re-run re-announces the same request).  The helping counter's
    increments return [Done] — a helper may apply a batch of requests
    in one CAS — so its checking power is its invariant (published
    blocks satisfy value = Σ applied, never regressing). *)

type op = Add of int | Take | Incr
(** [Add]/[Take] are push/pop (stack) or enqueue/dequeue (queue);
    [Incr] is fetch-and-increment.  Added values are unique per
    (process, operation index). *)

type res = Done | Took of int | Took_empty | Got of int

val event_to_string : (op, res) Linearize.Checker.event -> string

val stack_spec : (op, res, int list) Linearize.Checker.spec

val queue_spec : (op, res, int list) Linearize.Checker.spec
(** Sequential specifications, exposed so tests can cross-validate the
    check closures below against {!Linearize.Checker.check_brute}. *)

type instance = {
  spec : Sim.Executor.spec;
      (** Run this.  Build a fresh instance per run — the history
          recorder lives in the closure. *)
  events : unit -> (op, res) Linearize.Checker.event list;
      (** Operations completed so far, in completion order. *)
  in_flight : unit -> (int * op * int) list;
      (** [(proc, op, invoked)] for each operation a suspended process
          is currently inside of — what a run stopped at a frontier or
          step budget leaves unfinished. *)
  marked : int -> res option;
      (** [marked proc] is [Some r] when [proc]'s in-flight operation
          has already *linearized* with result [r] even though it has
          not returned (the MS-queue enqueue between its link CAS and
          tail swing).  A mark makes the in-flight operation's effect
          certain: the history builder may include it, and on
          crash–recovery the re-entry preamble completes it instead of
          re-running it. *)
  check : (op, res) Linearize.Checker.event list -> bool;
      (** Linearizability against this structure's sequential spec. *)
  shadow :
    (op, res) Linearize.Checker.event list ->
    (op, res) Linearize.Checker.event list option;
      (** Shadow-state replay of the same history against the same
          sequential spec via {!Linearize.Shadow.replay} — an
          independent implementation of the linearizability judgement,
          used as the scenario runner's standard gate.  [None] means
          consistent; [Some window] is the diverging quiescent
          window. *)
  invariant : Sim.Memory.t -> time:int -> unit;
      (** Structural invariant for the executor's [invariant] hook
          (counter monotonicity, node-chain boundedness); raises on
          corruption. *)
}

type t = {
  name : string;
  make : n:int -> ops:int -> ?mix_seed:int -> unit -> instance;
      (** Bounded workload: every process performs [ops] operations
          and terminates.  Deterministic for a given [mix_seed] (or
          its role-based default: even processes add, odd take), so
          the schedule is the only nondeterminism. *)
}

val stock : t list
(** The correct structures. *)

val all : t list
(** {!stock} followed by the seeded lost-update mutants
    [counter-nocas], [treiber-nocas] and [msqueue-nocas], each its
    parent's constructor with the scan-validate CAS swapped for a
    blind write: duplicate counter values, lost pushes / double pops,
    double dequeues. *)

val mutants : t list
(** Drill variants kept out of {!all} so `--structures all` sweeps are
    unchanged.  Currently [counter-misreport]: an atomic counter whose
    increments are real (the structural invariant holds) but whose
    reported pre-values are off by one — invisible to the invariant
    hook, caught by the spec-replay gates. *)

val find : string -> t
(** Searches {!all} and {!mutants}; raises [Invalid_argument] with the
    known names on a miss. *)
