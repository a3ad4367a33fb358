type spec = { name : string; memory : Memory.t; program : Program.t }
type stop = Steps of int | Completions of int

type result = {
  metrics : Metrics.t;
  trace : Sched.Trace.t option;
  crashed : bool array;
  terminated : bool array;
  stopped_early : bool;
  pending : Memory.op option array;
  restarts : int array;
  spurious_cas : int;
}

module Config = struct
  type t = {
    seed : int;
    trace : bool;
    record_samples : bool;
    fault_plan : Sched.Fault_plan.t;
    max_steps : int;
    invariant : (Memory.t -> time:int -> unit) option;
    invariant_interval : int;
    choose : (alive:bool array -> time:int -> int option) option;
  }

  let default =
    {
      seed = 0xC0FFEE;
      trace = false;
      record_samples = false;
      fault_plan = Sched.Fault_plan.none;
      max_steps = 200_000_000;
      invariant = None;
      invariant_interval = 1000;
      choose = None;
    }

  let with_seed seed t = { t with seed }
  let with_trace trace t = { t with trace }
  let with_samples record_samples t = { t with record_samples }
  let with_faults fault_plan t = { t with fault_plan }
  let with_max_steps max_steps t = { t with max_steps }

  let with_invariant ?interval invariant t =
    {
      t with
      invariant = Some invariant;
      invariant_interval = Option.value interval ~default:t.invariant_interval;
    }

  let with_choose choose t = { t with choose = Some choose }
end

(* Where a start or a step left a process. *)
type outcome =
  | Parked  (* suspended at its next shared-memory operation *)
  | Retry
      (* a spuriously denied [Cas_get]: the step is consumed but the
         process stays at the same operation, the transparent LL/SC
         retry *)
  | Returned  (* its body returned: terminated *)

(* What an entry point supplies to the run loop: the process bodies.
   [start i rng] (re)starts process [i] with a fresh body whose private
   stream is [rng] and runs it to its first shared-memory operation;
   [step i] applies parked process [i]'s operation and runs its local
   code up to the next one; [pending i] decodes the operation it is
   parked at; [release] frees fibers and hooks, once, even when the run
   raises. *)
type backend = {
  start : int -> Stats.Rng.t -> outcome;
  step : int -> outcome;
  pending : int -> Memory.op option;
  release : unit -> unit;
}

(* How many scheduler picks to draw per batch.  Large enough to
   amortize dispatch, small enough that the over-draw wasted at the end
   of a run is negligible. *)
let batch_len = 8192

(* The one run loop behind both entry points.  [make] builds the
   backend once the configuration is validated; it receives the
   metrics (for completions and the clock) and, when the plan has
   spurious rates, [deny i]: whether process [i]'s would-succeed CAS is
   spuriously failed.  [can_halt] is false only for a program that
   provably never returns, which with no choice hook, no faults and a
   scheduler with [fill] means the alive set cannot change, so picks
   are drawn [batch_len] at a time — the same stream as per-step
   picks. *)
let run ~(config : Config.t) ~(scheduler : Sched.Scheduler.t) ~n ~stop
    ~memory ~can_halt make =
  (* The messages keep the historical "Executor.run" prefix: tests and
     replay transcripts pin them. *)
  if config.invariant_interval < 1 then
    invalid_arg "Executor.run: invariant_interval must be >= 1";
  if n <= 0 then invalid_arg "Executor.run: n must be positive";
  (match Sched.Fault_plan.validate ~n config.fault_plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Executor.run: " ^ msg));
  let {
    Config.seed;
    trace;
    record_samples;
    fault_plan = plan;
    max_steps;
    invariant;
    invariant_interval;
    choose;
  } =
    config
  in
  let rng = Stats.Rng.create ~seed in
  let metrics = Metrics.create ~record_samples ~n () in
  let tr = if trace then Some (Sched.Trace.create ~n) else None in
  let alive = Array.make n true in
  let crashed = Array.make n false in
  let terminated = Array.make n false in
  let stalled_until = Array.make n 0 in
  let restarts = Array.make n 0 in
  let spurious_cas = ref 0 in
  (* Spurious-CAS draws come from a dedicated stream split off *after*
     the per-process streams, so a plan without spurious rates leaves
     every other stream — and hence the whole run — untouched.  A
     start never reaches a shared operation, so no draw happens before
     the split. *)
  let has_spurious = Sched.Fault_plan.has_spurious plan in
  let rates = Sched.Fault_plan.spurious_rates ~n plan in
  let srng = ref rng in
  let deny =
    if has_spurious then
      Some
        (fun i ->
          let r = rates.(i) in
          r > 0.
          && Stats.Rng.float !srng 1.0 < r
          &&
          (incr spurious_cas;
           true))
    else None
  in
  let b = make ~metrics ~deny in
  Fun.protect ~finally:b.release @@ fun () ->
  let start i =
    match b.start i (Stats.Rng.split rng) with
    | Returned ->
        terminated.(i) <- true;
        alive.(i) <- false
    | Parked | Retry -> alive.(i) <- true
  in
  for i = 0 to n - 1 do
    start i
  done;
  if has_spurious then srng := Stats.Rng.split rng;
  (* Fault events fire at the start of their time step, in plan order.
     The plan expands as it is read; [next] caches the time of the
     event at [cursor] ([max_int] past the end), so a step with nothing
     due costs one comparison. *)
  let cursor = ref 0 in
  let next = ref (Sched.Fault_plan.time_at plan 0) in
  let process_events now =
    while !next <= now do
      (match Sched.Fault_plan.event_at plan !cursor with
      | Sched.Fault_plan.Crash p ->
          if not terminated.(p) then begin
            crashed.(p) <- true;
            alive.(p) <- false
          end
      | Sched.Fault_plan.Restart p ->
          (* Only a crashed, unfinished process restarts: a fresh body
             re-enters over the shared memory as the crash left it. *)
          if crashed.(p) && not terminated.(p) then begin
            crashed.(p) <- false;
            restarts.(p) <- restarts.(p) + 1;
            start p
          end
      | Sched.Fault_plan.Stall (p, d) ->
          if d > 0 then stalled_until.(p) <- max stalled_until.(p) (now + d));
      incr cursor;
      next := Sched.Fault_plan.time_at plan !cursor
    done
  in
  let refresh_stalls now =
    for i = 0 to n - 1 do
      if stalled_until.(i) > 0 then
        alive.(i) <-
          stalled_until.(i) <= now && (not crashed.(i)) && not terminated.(i)
    done
  in
  let alive_count () =
    Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 alive
  in
  (* With every process crashed or stalled the run can still make
     progress later: a stall window expires, or a scheduled restart
     revives a crashed process.  [wakeable] decides whether to idle
     (tick the clock without a step) or stop early for good. *)
  let wakeable now =
    let stalled = ref false and down = ref false in
    for i = 0 to n - 1 do
      if not terminated.(i) then
        if crashed.(i) then down := true
        else if stalled_until.(i) > now then stalled := true
    done;
    !stalled
    || !down
       && Sched.Fault_plan.exists_from plan !cursor (function
            | Sched.Fault_plan.Restart p -> crashed.(p) && not terminated.(p)
            | Sched.Fault_plan.Crash _ | Sched.Fault_plan.Stall _ -> false)
  in
  (* A [Steps] stop is the step budget; only a [Completions] target
     needs its own check. *)
  let step_budget, target =
    match stop with
    | Steps s -> (min s max_steps, None)
    | Completions c -> (max_steps, Some c)
  in
  let target_met () =
    match target with
    | Some c -> Metrics.total_completions metrics >= c
    | None -> false
  in
  let fill =
    match scheduler.fill with
    | Some _ as fill
      when Option.is_none choose && Sched.Fault_plan.is_none plan
           && not can_halt ->
        fill
    | _ -> None
  in
  (* A round's picks: a whole batch when batching, else at most one. *)
  let picks = Array.make (if Option.is_some fill then batch_len else 1) 0 in
  let stopped_early = ref false in
  let running = ref true in
  while !running do
    let now = Metrics.time metrics in
    if target_met () then running := false
    else if now >= step_budget then begin
      stopped_early := Option.is_some target;
      running := false
    end
    else begin
      let len =
        match fill with
        | Some fill ->
            let len = min batch_len (step_budget - now) in
            fill ~rng ~alive ~dst:picks ~len;
            len
        | None -> (
            process_events now;
            refresh_stalls now;
            if alive_count () = 0 then begin
              if wakeable now then Metrics.tick metrics
              else begin
                stopped_early := true;
                running := false
              end;
              0
            end
            else
              match choose with
              | None ->
                  picks.(0) <- scheduler.pick ~rng ~alive ~time:now;
                  1
              | Some f -> (
                  match f ~alive ~time:now with
                  | Some i ->
                      picks.(0) <- i;
                      1
                  | None ->
                      (* The choice callback declined to continue:
                         stop here so the caller (the schedule
                         explorer) can inspect the frontier state. *)
                      stopped_early := true;
                      running := false;
                      0))
      in
      (* Each pick is one step: charge it, apply the operation and
         (unless spuriously denied) the local suffix, then the
         invariant cadence.  The batch length respects the step
         budget; picks left over when a completion target lands
         mid-batch are discarded with the run's private RNG. *)
      let j = ref 0 in
      while !j < len do
        if !j > 0 && Option.is_some target && target_met () then j := len
        else begin
          let i = Array.unsafe_get picks !j in
          if i < 0 || i >= n || not (Array.unsafe_get alive i) then
            invalid_arg
              (Printf.sprintf
                 "Executor.run: scheduler %s picked dead process %d"
                 scheduler.name i);
          Metrics.on_step metrics i;
          (match tr with Some t -> Sched.Trace.record t i | None -> ());
          let applied =
            match b.step i with
            | Retry -> false
            | Parked -> true
            | Returned ->
                terminated.(i) <- true;
                alive.(i) <- false;
                true
          in
          (match invariant with
          | Some check
            when applied && Metrics.time metrics mod invariant_interval = 0 ->
              check memory ~time:(Metrics.time metrics)
          | _ -> ());
          incr j
        end
      done
    end
  done;
  Option.iter (fun check -> check memory ~time:(Metrics.time metrics)) invariant;
  {
    metrics;
    trace = tr;
    crashed;
    terminated;
    stopped_early = !stopped_early;
    pending = Array.init n b.pending;
    restarts;
    spurious_cas = !spurious_cas;
  }

(* -- Effect interpreter --------------------------------------------- *)

(* A process is either suspended at a shared-memory operation, waiting
   to be scheduled, or its body returned. *)
type proc_state =
  | Suspended of Memory.op * (int, proc_state) Effect.Deep.continuation
  | Terminated

(* Run a process body until its next [Step] effect (or return),
   handling [Complete] and [Now] effects inline. *)
let handler ~on_complete ~(now : unit -> int) :
    (unit, proc_state) Effect.Deep.handler =
  {
    retc = (fun () -> Terminated);
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Program.Step op ->
            Some
              (fun (k : (a, proc_state) Effect.Deep.continuation) ->
                Suspended (op, k))
        | Program.Complete label ->
            Some
              (fun (k : (a, proc_state) Effect.Deep.continuation) ->
                on_complete label;
                Effect.Deep.continue k ())
        | Program.Now ->
            Some
              (fun (k : (a, proc_state) Effect.Deep.continuation) ->
                Effect.Deep.continue k (now ()))
        | _ -> None);
  }

let discard_state = function
  | Suspended (_, k) -> (
      try ignore (Effect.Deep.discontinue k Exit) with Exit | _ -> ())
  | Terminated -> ()

let exec ?(config = Config.default) ~scheduler ~n ~stop spec =
  let memory = spec.memory in
  run ~config ~scheduler ~n ~stop ~memory ~can_halt:true
  @@ fun ~metrics ~deny ->
  let states = Array.make n Terminated in
  let now () = Metrics.time metrics in
  let start id rng =
    (* A restarted process's old fiber is discarded first. *)
    discard_state states.(id);
    let s =
      Effect.Deep.match_with spec.program { Program.id; n; rng }
        (handler ~now ~on_complete:(function
          | None -> Metrics.on_complete metrics id
          | Some m -> Metrics.on_complete_method metrics id m))
    in
    states.(id) <- s;
    match s with Suspended _ -> Parked | Terminated -> Returned
  in
  (* [Memory.apply_faulty] consults the hook only on a would-succeed
     CAS, on behalf of the process being stepped. *)
  let current = ref 0 in
  Option.iter
    (fun deny -> Memory.set_fault_hook memory (Some (fun _ -> deny !current)))
    deny;
  let step i =
    match states.(i) with
    | Terminated -> assert false (* terminated processes are not alive *)
    | Suspended (op, k) -> (
        current := i;
        match Memory.apply_faulty memory op with
        | Memory.Denied -> Retry
        | Memory.Applied value -> (
            let s = Effect.Deep.continue k value in
            states.(i) <- s;
            match s with Suspended _ -> Parked | Terminated -> Returned))
  in
  let pending i =
    match states.(i) with Suspended (op, _) -> Some op | Terminated -> None
  in
  let release () =
    Array.iteri
      (fun i s ->
        discard_state s;
        states.(i) <- Terminated)
      states;
    if Option.is_some deny then Memory.set_fault_hook memory None
  in
  { start; step; pending; release }

(* -- Compiled instruction programs ---------------------------------- *)

(* The dispatch code below matches on literal opcode values (a literal
   match compiles to a jump table, a match on module constants does
   not); pin the literals to the Compile encoding once at module
   initialization so drift is impossible to miss. *)
let () =
  if
    not
      Compile.Op.(
        read = 0 && write = 1 && cas = 2 && cas_get = 3 && faa = 4
        && last_shared = 4 && halt = 5 && complete = 6 && loadi = 7 && mov = 8
        && addi = 9 && add = 10 && sub = 11 && jmp = 12 && beq = 13 && bne = 14
        && blt = 15 && rand = 16 && now = 17 && pid = 18 && nproc = 19
        && alloc = 20 && count = 21)
  then failwith "Executor: opcode encoding drifted from Compile.Op"

let exec_compiled ?(config = Config.default) ~scheduler ~n ~stop
    (cspec : Compile.spec) =
  let memory = cspec.Compile.memory in
  let prog = cspec.Compile.code in
  run ~config ~scheduler ~n ~stop ~memory ~can_halt:prog.Compile.has_halt
  @@ fun ~metrics ~deny ->
  let code = prog.Compile.code in
  let nregs = Compile.nregs in
  let regs = Array.make (n * nregs) 0 in
  let pc = Array.make n 0 in
  (* Placeholder streams: [start] sets each before its process runs. *)
  let rngs = Array.make n (Stats.Rng.create ~seed:0) in
  let has_spurious, deny =
    match deny with Some f -> (true, f) | None -> (false, fun _ -> false)
  in
  (* Cached view of the memory's backing store; refetched after every
     allocation (which may reallocate it).  All shared-memory opcodes
     go straight at this array, with [Memory.check]'s exact bounds
     test and message inlined. *)
  let cells = ref (Memory.cells memory) in
  let used = ref (Memory.used memory) in
  let oob a =
    invalid_arg
      (Printf.sprintf "Memory: address %d out of bounds (used=%d)" a !used)
  in
  (* Run process [i] from its current pc through local instructions
     until it parks at a shared-memory instruction (pc left on it;
     returns true) or halts (pc set to -1; returns false).  This is
     the "any amount of local computation" half of a step, and also
     the process prologue.  Register indices were validated by
     [Compile.assemble] and [code] is private, so the register file
     accesses are in bounds. *)
  let run_local i =
    let rb = i * nregs in
    let p = ref pc.(i) in
    let parked = ref true in
    let running = ref true in
    while !running do
      let base = !p * 4 in
      let opcode = Array.unsafe_get code base in
      if opcode <= 4 (* shared: park here *) then running := false
      else begin
        let a = Array.unsafe_get code (base + 1) in
        let b = Array.unsafe_get code (base + 2) in
        let c = Array.unsafe_get code (base + 3) in
        incr p;
        match opcode with
        | 5 (* halt *) ->
            running := false;
            parked := false;
            p := -1
        | 6 (* complete *) ->
            if a < 0 then Metrics.on_complete metrics i
            else Metrics.on_complete_method metrics i a
        | 7 (* loadi *) -> Array.unsafe_set regs (rb + a) b
        | 8 (* mov *) ->
            Array.unsafe_set regs (rb + a) (Array.unsafe_get regs (rb + b))
        | 9 (* addi *) ->
            Array.unsafe_set regs (rb + a) (Array.unsafe_get regs (rb + b) + c)
        | 10 (* add *) ->
            Array.unsafe_set regs (rb + a)
              (Array.unsafe_get regs (rb + b) + Array.unsafe_get regs (rb + c))
        | 11 (* sub *) ->
            Array.unsafe_set regs (rb + a)
              (Array.unsafe_get regs (rb + b) - Array.unsafe_get regs (rb + c))
        | 12 (* jmp *) -> p := a
        | 13 (* beq *) ->
            if Array.unsafe_get regs (rb + a) = Array.unsafe_get regs (rb + b)
            then p := c
        | 14 (* bne *) ->
            if Array.unsafe_get regs (rb + a) <> Array.unsafe_get regs (rb + b)
            then p := c
        | 15 (* blt *) ->
            if Array.unsafe_get regs (rb + a) < Array.unsafe_get regs (rb + b)
            then p := c
        | 16 (* rand *) -> regs.(rb + a) <- Stats.Rng.int rngs.(i) b
        | 17 (* now *) -> regs.(rb + a) <- Metrics.time metrics
        | 18 (* pid *) -> regs.(rb + a) <- i
        | 19 (* nproc *) -> regs.(rb + a) <- n
        | 20 (* alloc *) ->
            regs.(rb + a) <- Memory.alloc memory ~size:b;
            cells := Memory.cells memory;
            used := Memory.used memory
        | _ ->
            invalid_arg
              (Printf.sprintf "Executor.exec_compiled: bad opcode %d" opcode)
      end
    done;
    pc.(i) <- !p;
    !parked
  in
  (* A fresh body: zeroed registers, pc 0, prologue run. *)
  let start i rng =
    rngs.(i) <- rng;
    Array.fill regs (i * nregs) nregs 0;
    pc.(i) <- 0;
    if run_local i then Parked else Returned
  in
  (* One shared-memory operation for parked process [i], replicating
     [Memory.apply_faulty] inline: [deny] is consulted only on a
     would-succeed CAS — the interpreter's hook order — then r0 gets
     the result and the local suffix runs to the next park point. *)
  let denied = ref false in
  let step i =
    let rb = i * nregs in
    let base = pc.(i) * 4 in
    let opcode = Array.unsafe_get code base in
    let addr = Array.unsafe_get regs (rb + Array.unsafe_get code (base + 1)) in
    if addr < 1 || addr >= !used then oob addr;
    let mem = !cells in
    let v =
      match opcode with
      | 0 (* read *) -> Array.unsafe_get mem addr
      | 1 (* write *) ->
          let v = Array.unsafe_get regs (rb + Array.unsafe_get code (base + 2)) in
          Array.unsafe_set mem addr v;
          v
      | 2 (* cas *) ->
          let e = Array.unsafe_get regs (rb + Array.unsafe_get code (base + 2)) in
          if Array.unsafe_get mem addr = e then
            if has_spurious && deny i then 0
            else begin
              Array.unsafe_set mem addr
                (Array.unsafe_get regs (rb + Array.unsafe_get code (base + 3)));
              1
            end
          else 0
      | 3 (* cas_get *) ->
          let e = Array.unsafe_get regs (rb + Array.unsafe_get code (base + 2)) in
          let old = Array.unsafe_get mem addr in
          if old = e then
            if has_spurious && deny i then denied := true
            else
              Array.unsafe_set mem addr
                (Array.unsafe_get regs (rb + Array.unsafe_get code (base + 3)));
          old
      | 4 (* faa *) ->
          let d = Array.unsafe_get regs (rb + Array.unsafe_get code (base + 2)) in
          let old = Array.unsafe_get mem addr in
          Array.unsafe_set mem addr (old + d);
          old
      | _ -> assert false
    in
    if !denied then begin
      denied := false;
      Retry
    end
    else begin
      Array.unsafe_set regs rb v;
      pc.(i) <- pc.(i) + 1;
      if run_local i then Parked else Returned
    end
  in
  (* A parked process's pending operation is decodable from its pc
     (always on a shared opcode) and registers — the registers cannot
     have changed since it parked. *)
  let pending i =
    if pc.(i) < 0 then None
    else
      let rb = i * nregs in
      let base = pc.(i) * 4 in
      let r k = regs.(rb + code.(base + k)) in
      match code.(base) with
      | 0 -> Some (Memory.Read (r 1))
      | 1 -> Some (Memory.Write (r 1, r 2))
      | 2 -> Some (Memory.Cas (r 1, r 2, r 3))
      | 3 -> Some (Memory.Cas_get (r 1, r 2, r 3))
      | 4 -> Some (Memory.Faa (r 1, r 2))
      | _ -> assert false
  in
  { start; step; pending; release = ignore }

let fingerprint r =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  Buffer.add_string buf (Metrics.fingerprint r.metrics);
  add ";crashed=";
  Array.iter (fun b -> add "%c" (if b then '1' else '0')) r.crashed;
  add ";term=";
  Array.iter (fun b -> add "%c" (if b then '1' else '0')) r.terminated;
  add ";early=%b" r.stopped_early;
  add ";pending=";
  Array.iter
    (fun p ->
      add "%s," (match p with None -> "-" | Some op -> Memory.op_to_string op))
    r.pending;
  add ";restarts=";
  Array.iter (fun v -> add "%d," v) r.restarts;
  add ";spurious=%d" r.spurious_cas;
  (match r.trace with
  | None -> ()
  | Some t ->
      add ";trace=";
      Array.iter (fun v -> add "%d," v) (Sched.Trace.to_array t));
  Buffer.contents buf
