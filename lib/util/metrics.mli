(** Timers, fixed-bucket latency histograms and a minimal JSON type.

    The measurement layer behind [\profile], the span store, the
    governor report and the bench harness.  Named integer counters live
    in {!Counters}. *)

(** {1 JSON}

    A minimal JSON document type shared by span annotations, slow-log
    lines and the bench harness (no external dependency). *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

val json_to_string : json -> string
val json_escape : string -> string

(** {1 Timers} *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]) — for log timestamps
    only; durations should use {!mono}/{!time}. *)

val mono : unit -> float
(** Monotonic seconds ({!Sysutil.monotonic}) — for durations. *)

val time : (unit -> 'a) -> float * 'a
(** [time f] runs [f] and returns [(elapsed_seconds, result)], measured
    on the monotonic clock. *)

(** {1 Fixed-bucket histograms} *)

type histogram

val default_buckets : float array
(** 10 µs .. 10 s in a 1 / 2.5 / 5 ladder (seconds). *)

val histogram : ?buckets:float array -> string -> histogram
(** Find-or-create the named histogram in the global registry
    ([buckets] only matters on creation). *)

val histograms : unit -> histogram list
(** All registered histograms, sorted by name. *)

val observe : histogram -> float -> unit
val hist_name : histogram -> string
val hist_count : histogram -> int
val hist_sum : histogram -> float

val hist_buckets : histogram -> float array * int array
(** [(upper bounds in seconds, per-bucket counts)]; the counts array
    has one extra trailing overflow slot. *)

val hist_mean : histogram -> float

val percentile : histogram -> float -> float
(** [percentile h q] for [q] in [0,1]: the upper bound of the bucket
    holding the q-quantile observation; [infinity] if it overflowed the
    last bucket, [nan] if the histogram is empty. *)

val hist_to_json : histogram -> json
