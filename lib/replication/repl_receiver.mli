(** Standby side of WAL-shipping replication: continuous redo in one
    thread.

    A pull thread tails the primary's WAL over the replication port.
    For each batch it appends the shipped frames to the standby's own
    WAL and fsyncs (durability first), redoes the batch's complete
    transactions under the governor's engine lock, and only then
    acknowledges it by pulling the next batch.  The resume position is
    persisted at durably shipped transaction boundaries; restart
    recovery replays the local WAL, so a durable-but-unapplied
    transaction is never lost.  The standby database is registered in
    the governor under the given name and accepts [BEGIN READ ONLY]
    sessions; writes are refused with [SE-READ-ONLY].

    An epoch mismatch (the primary checkpointed and truncated its log)
    triggers an automatic re-seed from a full backup shipped over the
    same connection; the database directory path stays stable across
    re-seeds.

    Fault site [repl.apply] fires after a batch is received but before
    it is persisted or acknowledged: an injected fault costs the
    connection only, the batch is pulled again on reconnect.  Fault
    site [repl.batch_apply] fires in the pull thread after the durable
    append and before the redo; it and any real redo failure cost an
    in-place recovery (reopen the directory, replay the local WAL,
    resume from the persisted boundary) — added lag, zero loss. *)

type t

val start :
  ?poll_s:float ->
  ?heartbeat_timeout_s:float ->
  ?max_batch:int ->
  gov:Sedna_db.Governor.t ->
  name:string ->
  dir:string ->
  host:string ->
  port:int ->
  unit ->
  t
(** Start (or resume, if [dir] holds a previously stopped standby with
    a [repl.state] file) pulling from the primary's replication port.
    [heartbeat_timeout_s] bounds every response wait: a silent primary
    is treated as disconnected and the standby reconnects with
    backoff. *)

val database : t -> Sedna_core.Database.t option
(** [None] until the first seed completes. *)

val tracked : t -> int * int
(** Current (epoch, next pull position). *)

val caught_up : t -> epoch:int -> pos:int -> bool
(** True when the standby tracks this epoch, has pulled and redone at
    least up to [pos], and has no transaction mid-flight. *)

val wait_caught_up : ?timeout_s:float -> t -> epoch:int -> pos:int -> bool
(** Poll {!caught_up}; [false] on timeout. *)

val promote : t -> string
(** Stop pulling and turn the standby into an ordinary read-write
    primary: incomplete shipped transactions are discarded (they lack
    commit records, exactly as crash recovery would discard them) and a
    checkpoint fixates the state under a fresh WAL epoch.  Idempotent;
    returns a human-readable status line.  Raises if the standby never
    finished its initial seed. *)

val stop : t -> unit
(** Stop the pull thread without promoting; the database (if any)
    stays registered and read-only. *)
