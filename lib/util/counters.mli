(** Global event counters: benches and tests read block touches, buffer
    faults, dereference counts, relocation field-writes etc. from here.
    Thread-safe: cell creation and every read-modify-write are guarded
    by a mutex, because the server's worker threads, the replication
    threads and the Prometheus scraper all touch the table live.

    The hot-path counters are exposed as pre-resolved [int ref] cells so
    that incrementing them is a plain (unguarded) [incr] — they are only
    bumped from paths serialized by the governor's engine lock, and the
    instrumentation must not distort the dereference measurements it
    exists to support. *)

val bump : ?n:int -> string -> unit

val set : string -> int -> unit
(** Gauge-style assignment (replication lag etc.): overwrite the cell
    instead of accumulating into it. *)

val get : string -> int
val reset : string -> unit
val reset_all : unit -> unit
(** Zero every counter except the {!gauges}, which keep their current
    value. *)

val snapshot : unit -> (string * int) list
(** Sorted [(name, value)] pairs for every counter with a non-zero
    value.  Registered-but-never-bumped cells (the hot-path [*_cell]
    bindings register theirs at module init) are omitted. *)

val snapshot_all : unit -> (string * int) list
(** Like {!snapshot} but including zero-valued registered cells. *)

val diff :
  before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Per-key [after - before] of two snapshots, dropping zero deltas. *)

val cell : string -> int ref
(** The underlying cell of a named counter (creates it on first use). *)

(** {1 Well-known counter names} *)

val buffer_fault : string
val buffer_hit : string
val buffer_evict : string
val vas_fast_hit : string
val block_touch : string
val deref : string
val node_moved : string
val fields_updated : string
val relabels : string
val deep_copies : string
val page_reads : string
val page_writes : string

val plan_hit : string
(** Name only: nothing bumps it, since every statement compiles.  The
    perfbench report still reads it. *)

val plan_miss : string
(** Name only, like {!plan_hit}. *)

val index_probe : string
(** A value predicate answered from a B-tree index instead of a scan. *)

val catalog_decodes : string
(** A catalog blob unmarshaled: open, recovery, abort, standby apply,
    and the first reader after each catalog publication. *)

val fault_injected : string
(** An armed {!Fault} site fired, storage or network (also bumped per
    action as [fault.injected.<action>]). *)

val checksum_verify : string
(** Page read whose recorded CRC matched. *)

val checksum_adopt : string
(** Page read with no recorded CRC (legacy file): checksum adopted. *)

val checksum_fail : string
(** Page read whose recorded CRC mismatched — surfaced as Corrupt_page. *)

val recovery_redo : string
(** WAL after-image of a committed transaction replayed at recovery. *)

val recovery_skip : string
(** WAL after-image of an uncommitted transaction skipped at recovery. *)

val wal_truncated_bytes : string
(** Bytes of torn WAL tail dropped by truncation at open/recovery. *)

val wal_syncs : string
(** Physical WAL fsyncs.  Divided into {!wal_group_syncs} when the sync
    covered a parked commit group. *)

val wal_group_syncs : string
(** Coalesced group-commit fsyncs: one covering {!Wal.sync} acknowledged
    one or more parked committers. *)

val lock_retry : string
(** Nothing bumps this: a blocked lock request fails at once and the
    session restarts its auto-commit statement
    ({!stmt_lock_restarts}).  The name stays for readers that still
    sum it. *)

val stmt_lock_restarts : string
(** Auto-commit statement restarted after a lock timeout — typically
    the document lock was held by a commit parked in the group fsync;
    the restart waits outside the engine lock so that commit can
    complete and release. *)

val conn_accepted : string
(** Server connection admitted to the worker pool. *)

val conn_rejected : string
(** Server connection refused by admission control (SE-OVERLOADED) or
    during drain (SE-SHUTDOWN). *)

val server_requests : string
(** Wire-protocol requests served (any opcode). *)

val query_timeout : string
(** Statement aborted by its per-query wall-clock deadline. *)

val repl_bytes_shipped : string
(** WAL bytes shipped to standbys by {!Repl_sender}. *)

val repl_records_shipped : string
(** WAL records shipped to standbys. *)

val repl_txns_applied : string
(** Committed transactions applied by a standby's redo loop. *)

val repl_pages_applied : string
(** Page after-images installed by a standby's redo loop. *)

val repl_heartbeats : string
(** Heartbeat responses (primary had no new WAL for the standby). *)

val repl_reseeds : string
(** Standby re-seeds from a fresh full backup (epoch mismatch). *)

val repl_apply_restarts : string
(** Standby redo failures recovered in place by replaying the locally
    durable WAL (added lag, zero loss). *)

val repl_promotions : string
(** Standby promotions to primary. *)

val repl_lag_bytes : string
(** Gauge: primary WAL bytes not yet acked by the slowest standby. *)

val repl_acked_pos : string
(** Gauge: last WAL position acked by a standby. *)

val repl_standby_connected : string
(** Gauge (standby side): 1 while connected to the primary. *)

val repl_standby_epoch : string
(** Gauge (standby side): WAL epoch the standby is tracking. *)

val retry_sleeps : string
(** A {!Retry} loop slept before re-attempting an operation. *)

val net_send : string
(** Frames offered to the wire by {!Fault.on_send} (hits, not faults). *)

val net_recv : string
(** Frame reads offered to {!Fault.on_recv}. *)

val net_accept : string
(** Accepted connections offered to {!Fault.on_accept}. *)

val fence_demotions : string
(** A node demoted itself after observing a higher cluster epoch. *)

val fence_rejected_writes : string
(** Write transactions refused with SE-FENCED. *)

val fence_rejected_pulls : string
(** Replication pulls refused because the peer holds a higher epoch. *)

val cluster_epoch : string
(** Gauge: this node's current cluster (fencing) epoch. *)

val scrub_passes : string
(** Completed full scrub passes over the data file. *)

val scrub_pages_checked : string
(** Pages whose on-disk CRC the scrubber verified. *)

val scrub_corrupt : string
(** Pages the scrubber confirmed corrupt (under the engine lock). *)

val scrub_repaired_pool : string
(** Corrupt pages rewritten from a clean resident buffer-pool frame. *)

val scrub_repaired_wal : string
(** Corrupt pages rewritten from a committed WAL after-image. *)

val scrub_repaired_standby : string
(** Corrupt pages rewritten from a page fetched off a standby. *)

val scrub_deferred : string
(** Corrupt-on-disk pages left alone because a dirty resident frame
    will overwrite them at the next flush anyway. *)

val scrub_repair_failed : string
(** Confirmed-corrupt pages with no repair source available. *)

val scrub_progress : string
(** Gauge: page id the in-flight scrub pass has reached (0 when idle). *)

val scrub_last_pass_pages : string
(** Gauge: pages checked by the last completed full pass. *)

val degraded_state : string
(** Gauge: 1 while the node is in degraded read-only mode. *)

val degraded_entered : string
(** Transitions into degraded mode (resource exhaustion observed). *)

val degraded_recovered : string
(** Transitions out of degraded mode (resource recovered). *)

val degraded_rejected_writes : string
(** Write transactions refused with SE-DEGRADED. *)

val resource_errors : string
(** ENOSPC/EDQUOT/EMFILE-class errors observed at storage call sites. *)

val repl_pages_served : string
(** Single-page repair fetches served to peers ({!Wire} Page_request). *)

val gauges : string list
(** The names above that hold a current value, not a running total:
    skipped by {!reset_all}, exported as [gauge] on /metrics. *)

(** {1 Pre-resolved hot-path cells (same storage as the names above)} *)

val vas_fast_hit_cell : int ref
val buffer_hit_cell : int ref
val buffer_fault_cell : int ref
val deref_cell : int ref
val block_touch_cell : int ref

val buffer_evict_cell : int ref
val page_reads_cell : int ref
val checksum_verify_cell : int ref
(** Bumped on every buffer fault (an eviction, its disk read, its CRC
    verify), by [Buffer_mgr] and the [File_store.read_page] it calls. *)
