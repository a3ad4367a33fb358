(* What one run reports: the result line printed last on stdout, and
   the same values plus the run's identity as one line of a run-set
   file, which compare.exe reads back. *)

module Json = Telemetry.Json

type t = {
  workload : string;
  seed : int;
  traced : bool;
  started : float;  (** Unix time the run started (orders the pairs). *)
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  anchors : (string * float) list;
      (** Simulated results a simulator-only change must keep
          bit-identical (load workloads). *)
}

let unit_of name =
  match Catalog.find name with Some m -> m.unit | None -> "?"

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, v) ->
         (name, Json.Obj [ ("value", Float v); ("unit", Str (unit_of name)) ]))
       metrics)

let result_line t =
  Json.to_string ~compact:true
    (Json.Obj
       [
         ("correct", Bool t.correct);
         ("attempted", Int t.attempted);
         ("failed", Int t.failed);
         ("metrics", metrics_json t.metrics);
       ])

let to_line t =
  Json.to_string ~compact:true
    (Json.Obj
       [
         ("workload", Str t.workload);
         ("seed", Int t.seed);
         ("traced", Bool t.traced);
         ("started", Float t.started);
         ("correct", Bool t.correct);
         ("attempted", Int t.attempted);
         ("failed", Int t.failed);
         ("metrics", metrics_json t.metrics);
         ("anchors", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) t.anchors));
       ])

let of_line line =
  let ( let* ) = Result.bind in
  let need what = function Some v -> Ok v | None -> Error ("missing or bad " ^ what) in
  let* j = Json.parse line in
  let field k conv = need k (Option.bind (Json.member k j) conv) in
  let* workload = field "workload" Json.to_str in
  let* seed = field "seed" Json.to_int in
  let* traced = field "traced" Json.to_bool in
  let* started = field "started" Json.to_float in
  let* correct = field "correct" Json.to_bool in
  let* attempted = field "attempted" Json.to_int in
  let* failed = field "failed" Json.to_int in
  let pairs k value =
    match Json.member k j with
    | Some (Json.Obj kvs) ->
        List.fold_right
          (fun (name, v) acc ->
            let* acc = acc in
            let* x = need (k ^ "." ^ name) (value v) in
            Ok ((name, x) :: acc))
          kvs (Ok [])
    | _ -> Error ("missing or bad " ^ k)
  in
  let* metrics =
    pairs "metrics" (fun v -> Option.bind (Json.member "value" v) Json.to_float)
  in
  let* anchors = pairs "anchors" Json.to_float in
  Ok { workload; seed; traced; started; correct; attempted; failed; metrics; anchors }

let append ~file t =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  output_string oc (to_line t ^ "\n");
  close_out oc

let load file =
  let ic = open_in file in
  let rec go lineno acc =
    match input_line ic with
    | exception End_of_file -> Ok (List.rev acc)
    | "" -> go (lineno + 1) acc
    | line -> (
        match of_line line with
        | Ok r -> go (lineno + 1) (r :: acc)
        | Error e -> Error (Printf.sprintf "%s:%d: %s" file lineno e))
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go 1 [])
