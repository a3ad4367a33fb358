(* Check-harness adapters: each structure packaged with a history
   recorder, its sequential specification, and a structural invariant,
   plus deliberately broken variants (one operation swapped for a blind
   write or a misreport) that the `repro check` gates must catch.

   A structure is one [structure] record — its spec, where its
   operations come from, and a [build] that lays it out in a fresh
   memory.  [instantiate] derives everything else: the recorder, the
   operation plan, the recovery-safe program loop and the [instance]
   record. *)

module Memory = Sim.Memory
module Program = Sim.Program
module Checker = Linearize.Checker

type op = Add of int | Take | Incr
type res = Done | Took of int | Took_empty | Got of int

let op_to_string = function
  | Add v -> Printf.sprintf "add(%d)" v
  | Take -> "take"
  | Incr -> "incr"

let res_to_string = function
  | Done -> "()"
  | Took v -> Printf.sprintf "got %d" v
  | Took_empty -> "empty"
  | Got v -> string_of_int v

let event_to_string (e : (op, res) Checker.event) =
  Printf.sprintf "p%d %s -> %s [%d,%d]" e.proc (op_to_string e.op)
    (res_to_string e.result) e.invoked e.returned

(* Sequential specifications.  States are monomorphic per structure;
   the [instance] record hides them behind check closures.  A
   counter's increment at pre-value [s] reports [result s]: [Got s] for
   fetch-and-increment, [Done] for the helping counter, whose
   per-request pre-values the construction leaves undefined. *)

let counter_spec result : (op, res, int) Checker.spec =
  {
    initial = 0;
    apply =
      (fun o s ->
        match o with
        | Incr -> (result s, s + 1)
        | Add _ | Take -> invalid_arg "Checkable: stack/queue op on counter");
  }

(* A stack and a queue differ only in where [Add] puts its value. *)
let container_spec insert : (op, res, int list) Checker.spec =
  {
    initial = [];
    apply =
      (fun o s ->
        match o with
        | Add v -> (Done, insert v s)
        | Take -> ( match s with [] -> (Took_empty, []) | v :: r -> (Took v, r))
        | Incr -> invalid_arg "Checkable: counter op on stack/queue");
  }

let stack_spec = container_spec List.cons
let queue_spec = container_spec (fun v s -> s @ [ v ])

(* History recording: instrumentation outside the simulated memory, so
   it costs no steps.  Timestamps use the doubled-clock convention of
   [Checker.record_with]; the per-process slot tracks the operation a
   suspended process is inside of when a run stops at a frontier. *)

type recorder = {
  mutable completed : (op, res) Checker.event list;  (* newest first *)
  slots : (op * int) option array;
  marks : res option array;
      (* Set when an in-flight operation has already linearized (the
         MS-queue enqueue between link CAS and tail swing, the
         elimination pop past its grab CAS). *)
  done_count : int array;  (* completed ops per process — the plan cursor *)
  started : bool array;
}

let make_recorder n =
  {
    completed = [];
    slots = Array.make n None;
    marks = Array.make n None;
    done_count = Array.make n 0;
    started = Array.make n false;
  }

let finish rc ~proc ~op ~invoked result =
  let returned = 2 * Program.now () in
  rc.slots.(proc) <- None;
  rc.marks.(proc) <- None;
  rc.done_count.(proc) <- rc.done_count.(proc) + 1;
  rc.completed <- { Checker.proc; op; result; invoked; returned } :: rc.completed

(* Recovery-safe re-entry: every program body calls this first.  On
   the initial start it only marks the process as started.  After a
   crash–recovery restart it settles the interrupted operation, if any:

   - *marked* in flight — the crashed attempt had already linearized
     (MS-queue enqueue past its link CAS, elimination pop past its
     grab CAS), so re-running it would apply the operation twice.
     Complete it now with the marked result.
   - *unmarked* in flight with a [settle] callback — whether the
     attempt linearized cannot be decided from recorder state alone
     (an elimination push crashed while its value sat published in an
     exchange slot: a pop may or may not have grabbed it).  [settle]
     interrogates — and settles — the shared memory: [Some r] means
     the operation did linearize and is completed with [r]; [None]
     means it provably did not, and is re-run.  The callback may
     perform shared-memory steps and must itself be crash-idempotent
     (a crash during recovery triggers recovery again).
   - *unmarked* in flight otherwise — the suspended step was never
     applied and every applied step of these structures before the
     linearization point touches only private or unpublished state, so
     dropping the attempt and re-running the operation from scratch is
     safe (the half-built node is leaked, never published).

   The plan cursor is [done_count], which only [finish] advances — a
   restarted process resumes at exactly the operation it crashed
   inside of. *)
let enter rc ~settle ~proc =
  if not rc.started.(proc) then rc.started.(proc) <- true
  else
    match rc.slots.(proc) with
    | None -> ()
    | Some (op, invoked) -> (
        let settled =
          match (rc.marks.(proc), settle) with
          | (Some _ as marked), _ -> marked
          | None, Some f -> f proc op
          | None, None -> None
        in
        match settled with
        | Some result ->
            finish rc ~proc ~op ~invoked result;
            Program.complete ()
        | None -> rc.slots.(proc) <- None)

(* Per-process operation plans.  Deterministic by construction so that
   under the explorer the schedule is the *only* source of
   nondeterminism: by default even processes add and odd ones take
   (the contention pattern that exposes the seeded bugs at n = 2);
   [mix_seed] switches to a seeded random mix for fuzz variety.
   Counters only increment and ignore [mix_seed]. *)

let unique_value ~n ~id ~k = (k * n) + id + 1

let plan workload ~n ~ops ~mix_seed =
  Array.init n (fun id ->
      match (workload, mix_seed) with
      | `Increments, _ -> Array.make ops Incr
      | `Add_take, None ->
          Array.init ops (fun k ->
              if n = 1 || id mod 2 = 0 then Add (unique_value ~n ~id ~k)
              else Take)
      | `Add_take, Some seed ->
          let rng = Stats.Rng.create ~seed:(seed + (7919 * (id + 1))) in
          Array.init ops (fun k ->
              if Stats.Rng.bool rng then Add (unique_value ~n ~id ~k)
              else Take))

(* One structure.  [build ~n ~ops memory] allocates the structure's
   cells in [memory] and returns how to run it:

   - [perform ctx ~seq ~mark op] runs one operation of process
     [ctx.id] and returns its result.  [seq] numbers the process's
     operations from 1; [mark r] records that the operation has
     linearized with result [r] while steps remain before it returns.
   - [settle proc op], if any, decides an interrupted operation after a
     crash–recovery restart (see [enter]).
   - [invariant] reads the live memory and raises to flag corruption.

   The explorer hashes [Memory.snapshot], so a [build] must keep its
   allocations (and any RNG draws) in a fixed order. *)

type laid_out = {
  perform : Program.ctx -> seq:int -> mark:(res -> unit) -> op -> res;
  settle : (int -> op -> res option) option;
  invariant : Memory.t -> time:int -> unit;
}

type 's structure = {
  spec : (op, res, 's) Checker.spec;
  workload : [ `Increments | `Add_take ];
  build : n:int -> ops:int -> Memory.t -> laid_out;
}

type instance = {
  spec : Sim.Executor.spec;
  events : unit -> (op, res) Checker.event list;
  in_flight : unit -> (int * op * int) list;
  marked : int -> res option;
  check : (op, res) Checker.event list -> bool;
  shadow : (op, res) Checker.event list -> (op, res) Checker.event list option;
  invariant : Memory.t -> time:int -> unit;
}

type t = {
  name : string;
  make : n:int -> ops:int -> ?mix_seed:int -> unit -> instance;
}

let instantiate name (s : _ structure) =
  let make ~n ~ops ?mix_seed () =
    let memory = Memory.create () in
    let { perform; settle; invariant } = s.build ~n ~ops memory in
    let rc = make_recorder n in
    let plan = plan s.workload ~n ~ops ~mix_seed in
    let program (ctx : Program.ctx) =
      let proc = ctx.id in
      let mark r = rc.marks.(proc) <- Some r in
      enter rc ~settle ~proc;
      while rc.done_count.(proc) < ops do
        let k = rc.done_count.(proc) in
        let op = plan.(proc).(k) in
        let invoked = (2 * Program.now ()) + 1 in
        rc.slots.(proc) <- Some (op, invoked);
        finish rc ~proc ~op ~invoked (perform ctx ~seq:(k + 1) ~mark op);
        Program.complete ()
      done
    in
    {
      spec = { Sim.Executor.name; memory; program };
      events = (fun () -> List.rev rc.completed);
      in_flight =
        (fun () ->
          List.concat
            (List.mapi
               (fun proc -> function
                 | Some (op, invoked) -> [ (proc, op, invoked) ]
                 | None -> [])
               (Array.to_list rc.slots)));
      marked = (fun proc -> rc.marks.(proc));
      check = Checker.check s.spec;
      shadow = Linearize.Shadow.replay s.spec;
      invariant;
    }
  in
  { name; make }

(* Invariants (read the live memory directly; raise to flag corruption). *)

let counter_invariant register =
  let last = ref 0 in
  fun mem ~time:_ ->
    let v = Memory.get mem register in
    if v < !last then
      failwith
        (Printf.sprintf "counter went backwards: %d after %d" v !last);
    last := v

let chain_invariant ~what ~start ~bound mem ~time:_ =
  let rec walk node hops =
    if node <> 0 then
      if hops > bound then
        failwith (what ^ ": node chain exceeds bound (cycle or corruption)")
      else walk (Memory.get mem (node + 1)) (hops + 1)
  in
  walk (start mem) 0

(* Structures.  Each seeded mutant is its parent's constructor with
   one operation swapped. *)

(* A one-cell counter whose increment is [increment register],
   returning the pre-value it reports. *)
let counter increment =
  {
    spec = counter_spec (fun s -> Got s);
    workload = `Increments;
    build =
      (fun ~n:_ ~ops:_ memory ->
        let r = Memory.alloc memory ~size:1 in
        {
          perform = (fun _ ~seq:_ ~mark:_ _ -> Got (increment r));
          settle = None;
          invariant = counter_invariant r;
        });
  }

(* Seeded bug: the validate is gone, so two overlapping increments can
   read the same value (lost update). *)
let blind_increment r =
  let v = Program.read r in
  Program.write r (v + 1);
  v

(* Shadow-gate drill: the increment is a genuinely atomic FAA — no
   lost updates, so the structural invariant (monotone, one bump per
   step) holds on every run — but the *reported* pre-value is off by
   one.  Exactly the class of bug a state-machine replay against the
   sequential spec catches and a structural invariant cannot. *)
let misreported_increment r = Program.faa r 1 + 1

let treiber pop =
  {
    spec = stack_spec;
    workload = `Add_take;
    build =
      (fun ~n ~ops memory ->
        let top = Memory.alloc memory ~size:1 in
        {
          perform =
            (fun _ ~seq:_ ~mark:_ -> function
              | Add v ->
                  Treiber.push_op ~memory ~top v;
                  Done
              | Take -> (
                  match pop ~top with
                  | Treiber.Empty -> Took_empty
                  | Popped v -> Took v)
              | Incr -> assert false);
          settle = None;
          invariant =
            chain_invariant ~what:"treiber"
              ~start:(fun mem -> Memory.get mem top)
              ~bound:(n * ops);
        });
  }

(* Seeded bug: pop publishes with a blind write instead of
   CAS-validating against the observed top, losing concurrent pushes
   and enabling double pops. *)
let blind_pop ~top =
  let t = Program.read top in
  if t = 0 then Treiber.Empty
  else
    let v = Program.read t in
    let next = Program.read (t + 1) in
    Program.write top next;
    Popped v

let msqueue dequeue =
  {
    spec = queue_spec;
    workload = `Add_take;
    build =
      (fun ~n ~ops memory ->
        let sentinel = Memory.alloc memory ~size:2 in
        let head = Memory.alloc_init memory [| sentinel |] in
        let tail = Memory.alloc_init memory [| sentinel |] in
        {
          perform =
            (fun _ ~seq:_ ~mark -> function
              | Add v ->
                  (* The link CAS linearizes but the tail swing is still
                     ahead: mark so a crash in the gap completes instead
                     of re-running on recovery. *)
                  Msqueue.enqueue_op
                    ~on_linearize:(fun () -> mark Done)
                    ~memory ~tail v;
                  Done
              | Take -> (
                  match dequeue ~head ~tail with
                  | Msqueue.Empty -> Took_empty
                  | Dequeued v -> Took v)
              | Incr -> assert false);
          settle = None;
          invariant =
            chain_invariant ~what:"msqueue"
              ~start:(fun mem -> Memory.get mem head)
              ~bound:((n * ops) + 1);
        });
  }

(* Seeded bug: the head swing is a blind write, so two overlapping
   dequeues can both take the same node. *)
let blind_dequeue ~head ~tail =
  let rec attempt () =
    let h = Program.read head in
    let t = Program.read tail in
    let next = Program.read (h + 1) in
    if h = t then
      if next = 0 then Msqueue.Empty
      else begin
        ignore (Program.cas tail ~expected:t ~value:next);
        attempt ()
      end
    else begin
      let v = Program.read next in
      Program.write head next;
      Dequeued v
    end
  in
  attempt ()

let elimination_stack =
  {
    spec = stack_spec;
    workload = `Add_take;
    build =
      (fun ~n ~ops memory ->
        let top = Memory.alloc memory ~size:1 in
        let eliminated = Memory.alloc memory ~size:1 in
        let slots =
          Array.init (max 1 (n / 4)) (fun _ -> Memory.alloc memory ~size:1)
        in
        (* A short poll keeps bounded explorations deep enough to reach
           the elimination paths. *)
        let poll = 2 in
        (* Where each process's push currently has its value parked, if
           anywhere: the recovery protocol's evidence.  Updated by the
           park/unpark hooks, so always atomic with the slot's actual
           state. *)
        let parked = Array.make n None in
        let settle proc op =
          match parked.(proc) with
          | None -> None (* nothing published: safe to re-run from scratch *)
          | Some (slot, v) ->
              (* Settle first, clear the evidence after: a crash landing
                 inside [recover_push] restarts recovery with the parked
                 record still in place. *)
              let withdrawn = Elimination_stack.recover_push ~slot v in
              parked.(proc) <- None;
              if withdrawn then None
              else begin
                (match op with Add _ -> () | Take | Incr -> assert false);
                Some Done
              end
        in
        {
          perform =
            (fun ctx ~seq:_ ~mark -> function
              | Add v ->
                  Elimination_stack.push_op
                    ~on_park:(fun ~slot -> parked.(ctx.id) <- Some (slot, v))
                    ~on_unpark:(fun () -> parked.(ctx.id) <- None)
                    ~memory ~top ~slots ~poll ctx v;
                  parked.(ctx.id) <- None;
                  Done
              | Take -> (
                  match
                    Elimination_stack.pop_op
                      ~on_grab:(fun v ->
                        (* The grab is the linearization point of both
                           halves of the elimination; past it the pop
                           must complete, never re-run. *)
                        mark (Took v))
                      ~top ~slots ~eliminated ctx
                  with
                  | Treiber.Empty -> Took_empty
                  | Popped v -> Took v)
              | Incr -> assert false);
          settle = Some settle;
          invariant =
            chain_invariant ~what:"elimination-stack"
              ~start:(fun mem -> Memory.get mem top)
              ~bound:(n * ops);
        });
  }

let waitfree_counter =
  {
    spec = counter_spec (fun _ -> Done);
    workload = `Increments;
    build =
      (fun ~n ~ops:_ memory ->
        let pointer = Memory.alloc memory ~size:1 in
        let announce = Memory.alloc memory ~size:n in
        let first = Memory.alloc memory ~size:(n + 1) in
        Memory.set memory pointer first;
        let last = ref 0 in
        {
          (* No settlement: [incr_op] is idempotent per (id, seq) —
             re-announcing the same sequence number after a crash
             returns as soon as a scan shows it applied, whether by
             this process's CAS or a helper's.  [seq] is derived from
             the plan cursor, so a restarted process re-runs exactly
             the request it crashed in. *)
          perform =
            (fun ctx ~seq ~mark:_ _ ->
              Waitfree_counter.incr_op ~memory ~pointer ~announce ~n
                ~id:ctx.id ~seq;
              Done);
          settle = None;
          invariant =
            (fun mem ~time:_ ->
              (* Published state blocks are immutable, so the live
                 pointer always names a fully-built block: its value
                 must equal the sum of per-process applied counts and
                 never regress. *)
              let p = Memory.get mem pointer in
              let value = Memory.get mem p in
              let sum = ref 0 in
              for k = 0 to n - 1 do
                sum := !sum + Memory.get mem (p + 1 + k)
              done;
              if value <> !sum then
                failwith
                  (Printf.sprintf
                     "waitfree-counter: value %d <> sum of applied %d" value
                     !sum);
              if value < !last then
                failwith
                  (Printf.sprintf "waitfree-counter went backwards: %d after %d"
                     value !last);
              last := value);
        });
  }

let stock =
  [
    instantiate "cas-counter" (counter Counter.fetch_and_increment);
    instantiate "faa-counter" (counter (fun r -> Program.faa r 1));
    instantiate "treiber" (treiber Treiber.pop_op);
    instantiate "msqueue" (msqueue Msqueue.dequeue_op);
    instantiate "elimination-stack" elimination_stack;
    instantiate "waitfree-counter" waitfree_counter;
  ]

let all =
  stock
  @ [
      instantiate "counter-nocas" (counter blind_increment);
      instantiate "treiber-nocas" (treiber blind_pop);
      instantiate "msqueue-nocas" (msqueue blind_dequeue);
    ]

(* Kept out of [all] so `--structures all` sweeps (and their pinned CLI
   outputs) are unchanged; reachable by name for shadow-gate drills. *)
let mutants =
  [ instantiate "counter-misreport" (counter misreported_increment) ]

let find name =
  match List.find_opt (fun t -> t.name = name) (all @ mutants) with
  | Some t -> t
  | None ->
      invalid_arg
        (Printf.sprintf "Checkable.find: unknown structure %S (known: %s)" name
           (String.concat ", "
              (List.map (fun t -> t.name) (all @ mutants))))
