(** The database: files, buffer, WAL, versions, catalog and the
    transaction table, which doubles as the lock table — the "database
    manager" of the paper's Figure 1.

    Directory layout: [data.sdb] (pages), [wal.sdb] (log since the last
    checkpoint), [catalog.sdb] (checkpointed catalog).  Opening runs
    the two-step recovery of §6.4. *)

type t

val create : ?buffer_frames:int -> string -> t
(** Create a fresh database in (a possibly new) directory. *)

val open_existing : ?buffer_frames:int -> string -> t
(** Open and recover: load the checkpointed state, then redo the
    committed transactions found in the WAL. *)

val close : t -> unit
(** Checkpoint and close the files. *)

val crash : t -> unit
(** Drop all volatile state without flushing — crash simulation for
    recovery tests; re-open with {!open_existing}. *)

val checkpoint : t -> unit
(** Fixate a transaction-consistent persistent state and truncate the
    log (no active transactions allowed). *)

val store : t -> Store.t
val catalog : t -> Catalog.t
val buffer : t -> Buffer_mgr.t
val versions : t -> Versions.t
val directory : t -> string
val wal : t -> Wal.t

(** {1 Hot standby} *)

val set_standby : t -> bool -> unit
(** Toggle standby mode.  While set, {!begin_txn} refuses
    [read_only:false] with [SE-READ-ONLY]; the replication receiver
    keeps the database current via {!apply_txn}. *)

val is_standby : t -> bool

(** {1 Cluster epoch and fencing (split-brain protection)}

    The cluster epoch is the promotion generation of the replication
    group — distinct from the WAL epoch, which counts checkpoint
    truncations of one node's log.  It is persisted durably in a
    [cluster.epoch] sidecar and gossiped on every wire exchange; a
    non-standby node observing a higher epoch demotes itself: both
    {!begin_txn} and {!commit} then refuse writes with [SE-FENCED]. *)

val cluster_epoch : t -> int

val set_cluster_epoch : t -> int -> unit
(** Adopt a (higher) epoch without fencing: promotion minting its own,
    or a standby tracking its primary's.  Persists durably. *)

val observe_epoch : t -> int -> unit
(** An epoch seen on the wire.  Higher than ours on a non-standby node
    means another node was promoted past us: persist it and fence. *)

val is_fenced : t -> bool

val unfence : t -> unit
(** Clear the fence — only promotion (with a freshly minted epoch) or a
    re-seed may do this. *)

(** {1 Degraded read-only mode (resource exhaustion)}

    Orthogonal to fencing and to the standby role.  Entered when a
    storage write/sync site hits ENOSPC/EDQUOT/EMFILE (real or
    injected) or the {!Watchdog} free-space probe fails; {!begin_txn}
    and {!commit} then refuse writes with [SE-DEGRADED] while reads
    keep serving.  The watchdog clears it with hysteresis once the
    resource has been healthy for several consecutive probes. *)

val is_degraded : t -> bool
val degraded_reason : t -> string

val enter_degraded : t -> string -> unit
(** Flip into degraded mode (idempotent); [string] is the operator-
    visible reason. *)

val exit_degraded : t -> unit
(** Clear degraded mode (idempotent).  Callers are expected to apply
    hysteresis — see {!Watchdog}. *)

val apply_txn :
  t -> images:(int * Bytes.t) list -> catalog_blob:string option -> unit
(** Standby redo of one shipped committed transaction: install the page
    after-images, adopt the catalog when present, and version the
    displaced pages so concurrent read-only snapshots stay consistent.
    Idempotent (absolute images).  Call with no write transaction
    active, under the same exclusion as statement execution. *)

(** {1 Transactions} *)

val begin_txn : ?read_only:bool -> t -> Txn.t
(** Read-only transactions acquire a snapshot and share the published
    committed catalog (decoded at most once per publication, by the
    first reader after it); they never lock (paper §6.3). *)

val run : t -> Txn.t -> (unit -> 'a) -> 'a
(** Route execution through the transaction: installs the write hook
    (updaters) or the snapshot read overlay (readers).  A reader gets
    the overlay only when some page can differ from its snapshot: a
    commit after its snapshot, or an active updater holding dirty
    pages.  Otherwise it reads the buffer directly. *)

val snapshot_view : t -> [ `Current | `Overlay of int ]
(** How the newest read-only [run] read pages: [`Current] without an
    overlay, [`Overlay n] through one that computed [n] page decisions
    (the rest were served by its one-page memo).  Tests and benches. *)

val txn_store : t -> Txn.t -> Store.t
(** The store a transaction must execute against (readers get their
    snapshot catalog). *)

val lock_exn : t -> Txn.t -> doc:string -> mode:Lock_mgr.mode -> unit
(** Strict 2PL without waiting: grant iff no other active transaction
    holds a conflicting mode on [doc] (an S→X upgrade needs every other
    holder gone), else raise [Lock_timeout] at once — the caller holds
    the engine lock, so no holder could release while it waited.  The
    lock is kept on the transaction until it commits or aborts.  A
    read-only transaction returns at once: it reads its snapshot and
    never locks (paper §6.3). *)

val commit : ?park:((unit -> unit) -> unit) -> t -> Txn.t -> unit
(** WAL protocol: logical records, page after-images and the commit
    record (with the catalog when changed) appended as one contiguous
    group under the WAL writer cursor, then an fsync covering the
    group before the commit is acknowledged; then version installation.
    Leaving the active table releases the transaction's locks.

    The covering fsync is shared (group commit): this transaction
    parks until a leader's sync reaches its position.  [park wait] runs
    the blocking [wait] and is the caller's chance to release the
    engine lock around it (see [Governor.without_engine]); the default
    runs [wait] inline.  A failed covering sync raises out of [commit]
    — the caller must abort, and the abort record supersedes the
    commit record exactly as with a failed private fsync. *)

val abort : t -> Txn.t -> unit
(** Restore before-images, the catalog and the free list; leaving the
    active table releases the locks. *)

val with_txn : ?read_only:bool -> t -> (Txn.t -> Store.t -> 'a) -> 'a
(** BEGIN; run; COMMIT — aborting on exceptions. *)
