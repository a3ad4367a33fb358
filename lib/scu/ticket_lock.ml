module Memory = Sim.Memory
module Program = Sim.Program

type t = {
  spec : Sim.Executor.spec;
  next_ticket : int;
  now_serving : int;
  counter : int;
  n : int;
}

let make ~n =
  let memory = Memory.create () in
  let next_ticket = Memory.alloc memory ~size:1 in
  let now_serving = Memory.alloc memory ~size:1 in
  let counter = Memory.alloc memory ~size:1 in
  let program (_ : Program.ctx) =
    let rec operation () =
      let ticket = Program.faa next_ticket 1 in
      (* Spin: each probe of now_serving is a shared-memory step. *)
      let rec await () = if Program.read now_serving <> ticket then await () in
      await ();
      (* Critical section: the increment needs no CAS — the lock
         serializes it. *)
      let v = Program.read counter in
      Program.write counter (v + 1);
      (* Release. *)
      Program.write now_serving (ticket + 1);
      Program.complete ();
      operation ()
    in
    operation ()
  in
  {
    spec = { name = "ticket-lock-counter"; memory; program };
    next_ticket;
    now_serving;
    counter;
    n;
  }

let value t mem = Memory.get mem t.counter
