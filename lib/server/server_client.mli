(** Blocking client for the {!Wire} protocol — what benches, tests and
    the CLI's --connect mode use instead of a local session.

    Failover: the client holds an endpoint list (primary first).  When
    the connection drops it reconnects to the next live endpoint with
    bounded exponential backoff and re-opens the session; statements
    outside any explicit transaction that are plain reads (or [BEGIN])
    are retried transparently, everything else raises {!Remote_error}
    with code ["SE-FAILOVER"]. *)

exception Remote_error of string * string
(** [(code, message)] — the server-side error, e.g.
    ["SE-OVERLOADED"], ["SE-TIMEOUT"], ["SE-FAILOVER"], ["XPTY0004"]. *)

type t

val connect :
  ?host:string ->
  ?endpoints:(string * int) list ->
  ?retries:int ->
  ?backoff_s:float ->
  port:int ->
  unit ->
  t
(** [endpoints] is the failover list, tried in order; it defaults to
    [[(host, port)]].  A refused/reset initial connection is retried
    [retries] extra rounds over the whole list, sleeping
    [backoff_s * 2^round] between rounds (default: no retries). *)

val endpoint : t -> string * int
(** The endpoint currently connected (changes after a failover). *)

val in_transaction : t -> bool
(** True between a successful [BEGIN] and its [COMMIT]/[ROLLBACK]. *)

val open_db : t -> string -> int
(** Open a session against the named database; returns the session id. *)

val execute : t -> string -> Sedna_db.Session.result
(** Run one statement in one round trip; a query's rows are reassembled
    from the chunks of its reply.  ["BEGIN"], ["BEGIN READ ONLY"], ["COMMIT"] and
    ["ROLLBACK"] are transaction control. *)

val execute_string : t -> string -> string

val last_trace_id : t -> string option
(** Trace ID generated for the most recent traced operation — feed to
    [\trace <id>] or {!Sedna_util.Span.find}. *)

val close : t -> unit
(** Send [Close], then close the socket.  Idempotent. *)
