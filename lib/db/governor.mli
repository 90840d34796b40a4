(** The governor (paper §3, Figure 1): the control centre that keeps
    track of databases and sessions.  In the original system these are
    processes; here they are objects with the same responsibilities —
    components register on creation and deregister on shutdown. *)

type t

(** Admission-control knobs: [max_sessions] bounds concurrent
    connections ({!connect} past it raises SE-OVERLOADED);
    [query_timeout_s] is the per-statement wall-clock budget the
    serving layer enforces (0. = disabled). *)
type limits = { max_sessions : int; query_timeout_s : float }

val default_limits : limits

val create : unit -> t

val limits : t -> limits
val set_limits : t -> limits -> unit

val with_engine : t -> (unit -> 'a) -> 'a
(** The coarse store lock serializing engine access across server
    worker threads.  Held per statement, never across an idle
    transaction: an uncommitted writer keeps its S2PL document locks
    between statements but not this mutex, so snapshot readers run
    without waiting for its commit (paper §6.3).  Not reentrant. *)

val without_engine : t -> (unit -> 'a) -> 'a
(** Release the engine lock around a blocking wait (the group-commit
    park) from inside {!with_engine}, re-acquiring it afterwards even
    on exception.  The statement's [Deadline] budget and ambient [Span]
    context are detached for the duration and restored with the lock,
    so the statement that runs in the window owns both cells cleanly.
    If the calling thread does not hold the engine lock (single-threaded
    tests and benches drive sessions without it), [f] runs inline. *)

val create_database : t -> name:string -> dir:string -> Sedna_core.Database.t
val open_database : t -> name:string -> dir:string -> Sedna_core.Database.t

val register_database : t -> name:string -> Sedna_core.Database.t -> unit
(** Register a database the caller opened itself (e.g. a standby
    restored from a shipped seed).  Raises if the name is taken. *)

val swap_database : t -> name:string -> Sedna_core.Database.t -> unit
(** Replace the registered database under [name] (standby re-seed).
    Sessions bound to the old database are disconnected — their
    snapshots point into the abandoned store.  The old database is not
    closed; the caller owns it.  Takes the engine lock for the
    rollbacks, so do not call while holding it. *)

val find_database : t -> string -> Sedna_core.Database.t option
val get_database : t -> string -> Sedna_core.Database.t

val connect : t -> database:string -> int * Session.t
(** Create a session ("connection component") against a registered
    database; returns its id for {!disconnect}.  Raises
    [Error.Sedna_error (Overloaded, _)] once [max_sessions] sessions
    are registered.  Thread-safe. *)

val disconnect : t -> int -> unit
(** Rolls back the session's open transaction, if any (taking the
    engine lock to do so — do not call while holding it).
    Thread-safe and idempotent. *)

val is_connected : t -> int -> bool
(** Whether the session with this id is still registered: false once
    {!disconnect}ed, including by {!swap_database}. *)

val session_count : t -> int

val shutdown : t -> unit
(** Disconnect every session and close every database. *)
