(** The network serving layer (paper §3: governor / listener /
    per-session processes, here a listener thread plus a bounded worker
    pool): accepts TCP connections speaking the {!Wire} protocol and
    drives one {!Sedna_db.Session} per connection.

    Admission control refuses work with SE-OVERLOADED at two gates —
    queue-depth backpressure at accept, and the governor's session
    limit at [Open].  Statements run under the governor's coarse store
    lock, taken per statement and never held across an idle
    transaction, so snapshot readers complete while a writer
    transaction on another connection is still uncommitted (§6.3). *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  pool_size : int;  (** worker threads *)
  max_queue : int;  (** accepted-but-unserved connections before SE-OVERLOADED *)
}

val default_config : config
(** 127.0.0.1, ephemeral port, 4 workers, queue of 16. *)

type t

val start :
  ?config:config -> ?on_promote:(unit -> string) -> Sedna_db.Governor.t -> t
(** Bind, spawn the listener and the worker pool, return immediately.
    Databases must already be registered with the governor; clients
    name one in their [Open] request.

    [on_promote], when given, handles the [PROMOTE] admin statement.
    It runs {e outside} the engine lock (promotion joins the
    replication pull thread, which takes that lock itself); without it
    [PROMOTE] answers SE-UNSUPPORTED. *)

val port : t -> int
(** The actually bound port (useful with [port = 0]). *)

val is_draining : t -> bool
(** True once {!stop}/{!kill} has begun — the [/health] readiness
    probe reports draining from here. *)

val stop : ?shutdown_governor:bool -> t -> unit
(** Graceful shutdown: stop accepting, refuse queued-but-unstarted
    connections with SE-SHUTDOWN, let in-flight statements finish and
    deliver their responses, roll back transactions left open by their
    connections, then (unless [shutdown_governor] is [false])
    checkpoint every database and close its WAL via
    {!Sedna_db.Governor.shutdown}.  Idempotent; blocks until drained. *)

val kill : t -> unit
(** Hard stop simulating SIGKILL: sever every connection without
    rollbacks, checkpoints or governor shutdown.  In-flight clients see
    their connection reset.  Follow with {!Sedna_core.Database.crash}
    on the databases to complete the simulation. *)
