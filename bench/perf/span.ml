(* In-memory span recorder for the traced run.

   A span is opened around a call into one layer's public functions
   from the benchmark's own code; spans nest by call order, so a
   span's parent is whichever span was open when it started.  Nothing
   is written until the run ends.  A disabled recorder runs the work
   and records nothing, so the same workload code serves the timed
   (untraced) iterations. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  start_ns : int;
  end_ns : int;
  beside : bool;
      (** The span re-runs a layer next to its caller instead of
          timing it inside the caller (the layer is not separately
          reachable from outside). *)
}

type t = {
  enabled : bool;
  clock : unit -> int;
  mutable next : int;
  mutable open_ : int list;
  mutable closed : span list;
}

let now_ns () = int_of_float (Pool.monotonic_now () *. 1e9)

let create ?(clock = now_ns) ~enabled () =
  { enabled; clock; next = 0; open_ = []; closed = [] }

let disabled = create ~enabled:false ()

let with_ ?(beside = false) t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.open_ with [] -> None | p :: _ -> Some p in
    t.open_ <- id :: t.open_;
    let start_ns = t.clock () in
    Fun.protect
      ~finally:(fun () ->
        let end_ns = t.clock () in
        t.open_ <- List.tl t.open_;
        t.closed <- { id; parent; name; start_ns; end_ns; beside } :: t.closed)
      f
  end

(* By id, i.e. in start order. *)
let spans t = List.sort (fun a b -> compare a.id b.id) t.closed

let duration s = s.end_ns - s.start_ns

(* Total length of the union of [intervals] clipped to [lo, hi]:
   children may overlap each other, and the part they share counts
   once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if a < b then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total + (cb - ca), Some (a, b)))
      (0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* A span's self time: its duration minus the part of its interval its
   children cover. *)
let self_ns spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.add children p (s.start_ns, s.end_ns)
      | None -> ())
    spans;
  fun s ->
    duration s
    - covered ~lo:s.start_ns ~hi:s.end_ns (Hashtbl.find_all children s.id)

let to_json spans =
  let self = self_ns spans in
  Telemetry.Json.List
    (List.map
       (fun s ->
         Telemetry.Json.Obj
           [
             ("id", Int s.id);
             ("parent", match s.parent with None -> Null | Some p -> Int p);
             ("name", Str s.name);
             ("start_ns", Int s.start_ns);
             ("end_ns", Int s.end_ns);
             ("self_ns", Int (self s));
             ("beside", Bool s.beside);
           ])
       spans)
