(** Request-scoped distributed tracing spans (Dapper-style).

    One client request = one trace: a 16-hex-char trace ID plus a tree
    of named spans with parent links, monotonic durations and typed
    annotations.  The client generates the trace context, the wire
    protocol carries it, and the server/replication layers add their
    spans under the client's IDs, so [\trace <id>] can show queue wait,
    lock wait, eval, commit fsync and standby apply for one statement.

    When tracing is disabled ({!set_enabled}[ false]) no context is
    ever created and every instrumented site costs one option match.

    The slow-statement log ([\slow], [--slow-ms], [--slow-log]) is a
    filter over finished traces: a context marked with {!mark_slow}
    is also kept in a bounded list of 128 slow traces that the main
    store's eviction does not touch, and appended as one JSON line to
    the slow-log file when one is set.  With tracing disabled nothing
    is logged as slow. *)

type span = {
  sp_trace : string;
  sp_id : int;
  sp_parent : int;  (** 0 = trace root *)
  sp_name : string;
  sp_wall : float;  (** wall clock at start (log timestamps) *)
  sp_start : float;  (** monotonic clock at start (durations) *)
  mutable sp_dur : float;  (** seconds; -1.0 while open *)
  mutable sp_annots : (string * Metrics.json) list;
}

type ctx
(** One request's span collector.  Owned by one thread at a time. *)

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val make : ?trace:string -> ?parent:int -> unit -> ctx option
(** New context; [trace]/[parent] rebuild a context received over the
    wire.  [None] while tracing is disabled. *)

val trace_id : ctx -> string

val mark_slow : ctx -> unit
(** Have {!publish} also keep this context's spans as a slow trace. *)

val start : ctx -> ?parent:int -> string -> span
(** Open a span.  The parent defaults to the innermost open span, or to
    the context's remote parent at the top level. *)

val finish : ctx -> ?annots:(string * Metrics.json) list -> span -> unit
(** Close a span (idempotent on the duration). *)

val annotate : span -> string -> Metrics.json -> unit

val publish : ctx -> unit
(** Move the context's spans into the global bounded trace store, where
    {!find}/{!render} and [\trace <id>] can see them — and, for a
    context marked slow, into the slow list and the slow-log file. *)

val current : unit -> ctx option
(** Ambient context.  Set only inside the engine-locked section or in a
    single-threaded harness — the same ownership rule as [Deadline]. *)

val set_current : ctx option -> unit
val with_current : ctx option -> (unit -> 'a) -> 'a

val with_span : string -> (span option -> 'a) -> 'a
(** Run [f] under a span of the ambient context; just runs [f None]
    when no context is ambient. *)

val emit_remote :
  trace:string ->
  parent:int ->
  name:string ->
  dur:float ->
  (string * Metrics.json) list ->
  unit
(** Record an already-completed span straight into the store — for work
    (standby apply) that belongs to a trace published earlier. *)

val wire_of : trace:string -> parent:int -> string
(** ["trace:parent_span_id"] — the wire header encoding. *)

val parse_wire : string -> (string * int) option

val find : string -> span list option
(** All stored spans of a trace, in publish order. *)

val traces : unit -> (string * span list) list
(** Retained traces, newest first. *)

val summaries : ?limit:int -> unit -> (string * int * string * float) list
(** Per-trace [(id, span_count, root_name, total_seconds)] summaries,
    newest first — the governor report's trace section. *)

val render : string -> string option
(** Ascii span tree for [\trace <id>]; [None] for an unknown trace. *)

val trace_to_json : string * span list -> Metrics.json
(** [{"trace": id, "spans": [...]}] — one slow-log line. *)

val set_capacity : int -> unit
(** Retain at most this many traces (default 256, min 1). *)

val clear : unit -> unit
(** Empty the trace store (the slow list is kept). *)

(** {1 Slow traces} *)

val set_slow_threshold : float -> unit
(** Statement latency, in seconds, at which the session marks its
    context slow (default 1.0; [infinity] disables). *)

val slow_threshold : unit -> float

val set_slow_file : string option -> unit
(** Also append each slow trace as a JSON line to this file. *)

val slow_init_from_env : unit -> unit
(** Configure from [SEDNA_SLOW_MS] (milliseconds) and [SEDNA_SLOW_LOG]. *)

val slow : unit -> (string * span list) list
(** Retained slow traces, newest first. *)

val clear_slow : unit -> unit
