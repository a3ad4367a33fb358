(** Machine-readable bench trajectory documents ([BENCH_<date>.json]).

    One document is one data point of the repository's performance
    trajectory: per-experiment, per-cell wall-clock timings of the
    quick plans at a recorded git version.  [repro bench] emits them,
    CI archives them as artifacts, and later perf PRs diff against
    them — so the layout is versioned via {!schema} and kept flat and
    boring on purpose. *)

type cell = { label : string; seconds : float }

type experiment = {
  id : string;
  title : string;
  cells : cell list;
  total : float;  (** Sum of the cell timings, seconds. *)
}

type t = {
  date : string;  (** ISO [YYYY-MM-DD]. *)
  version : string;  (** git describe of the measured tree. *)
  quick : bool;
  seed : int;
  repeat : int;  (** Timings are the minimum over this many runs. *)
  experiments : experiment list;
}

val schema : string

val default_filename : t -> string
(** [BENCH_<date>.json]. *)

val make :
  ?now:float ->
  ?version:string ->
  quick:bool ->
  seed:int ->
  repeat:int ->
  experiment list ->
  t
(** [now] defaults to the wall clock; [version] to
    {!Manifest.git_describe}. *)

val total : t -> float
(** Grand total over all experiments, seconds. *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}.  Rejects a different {!schema}; ignores
    unknown keys. *)

val load : file:string -> (t, string) result
(** Read and parse one bench document (the CI gate's committed
    baseline). *)

val cell_seconds : t -> id:string -> label:string -> float option
(** Timing of one cell of one experiment, when present. *)

val write : file:string -> t -> unit
(** Pretty-printed JSON, trailing newline; parent directories are
    created if missing. *)
