(* Global event counters used by benches, the Prometheus endpoint and
   the observability stack: named integer cells.  The server era bumps
   these from every worker thread plus the replication and listener
   threads while /metrics scrapes them live, so the table and every
   read-modify-write go through one mutex: a bare Hashtbl.add can
   corrupt the table mid-resize, and [r := !r + n] loses increments
   when two threads interleave the read and the write.

   The pre-resolved [*_cell] bindings at the bottom ([vas_fast_hit_cell],
   [buffer_hit_cell], [buffer_fault_cell], [deref_cell],
   [block_touch_cell], and on the fault path [buffer_evict_cell],
   [page_reads_cell], [checksum_verify_cell]) stay plain [int ref]s
   bumped with an unguarded [incr]: those cells are only ever
   incremented from storage-layer hot paths that run under the
   governor's engine lock (statement execution, recovery, the standby's
   apply step, the scrubber's confirm step, page serving), so they are
   already serialized and the mutex would only distort the measurements
   they exist for.  The fault-path cells are bumped by
   [Buffer_mgr.install] and the [File_store.read_page] it calls — the
   same path that bumps [buffer_fault_cell]. *)

type t = (string, int ref) Hashtbl.t

let global : t = Hashtbl.create 32
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  match f () with
  | v ->
    Mutex.unlock mu;
    v
  | exception e ->
    Mutex.unlock mu;
    raise e

let cell_unlocked name =
  match Hashtbl.find_opt global name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add global name r;
    r

let cell name = locked (fun () -> cell_unlocked name)

let bump ?(n = 1) name =
  locked (fun () ->
      let r = cell_unlocked name in
      r := !r + n)

(* gauge-style assignment: replication lag and other "current value"
   cells are set, not accumulated *)
let set name v =
  locked (fun () ->
      let r = cell_unlocked name in
      r := v)

let get name =
  locked (fun () ->
      match Hashtbl.find_opt global name with Some r -> !r | None -> 0)

let reset name =
  locked (fun () ->
      match Hashtbl.find_opt global name with Some r -> r := 0 | None -> ())

(* The hot-path [*_cell] bindings below pre-register their counters at
   module init, so the table always holds some cells that were never
   bumped.  [snapshot] hides those zero rows; [snapshot_all] keeps them
   for callers that care about registration itself. *)
let snapshot_all () =
  locked (fun () -> Hashtbl.fold (fun k r acc -> (k, !r) :: acc) global [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () = List.filter (fun (_, v) -> v <> 0) (snapshot_all ())

(* Per-key [after - before], dropping zero deltas.  Keys present only in
   [before] (a reset happened in between) are reported as negative. *)
let diff ~before ~after =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k (-v)) before;
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some d -> Hashtbl.replace tbl k (d + v)
      | None -> Hashtbl.add tbl k v)
    after;
  Hashtbl.fold (fun k d acc -> if d <> 0 then (k, d) :: acc else acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Well-known counter names, centralised so benches and storage agree. *)
let buffer_fault = "buffer.fault"
let buffer_hit = "buffer.hit"
let buffer_evict = "buffer.evict"
let vas_fast_hit = "vas.fast_hit"
let block_touch = "block.touch"
let deref = "xptr.deref"
let node_moved = "node.moved"
let fields_updated = "update.fields"
let relabels = "nid.relabel"
let deep_copies = "constructor.deep_copy"
let page_reads = "disk.read"
let page_writes = "disk.write"
let plan_hit = "plan.hit"
let plan_miss = "plan.miss"
let index_probe = "index.probe"
let catalog_decodes = "catalog.decodes"
let fault_injected = "fault.injected"
let checksum_verify = "checksum.verify"
let checksum_adopt = "checksum.adopt"
let checksum_fail = "checksum.fail"
let recovery_redo = "recovery.redo"
let recovery_skip = "recovery.skip"
let wal_truncated_bytes = "wal.truncated_bytes"
let wal_syncs = "wal.syncs"
let wal_group_syncs = "wal.group_syncs"
let lock_retry = "lock.retry"
let stmt_lock_restarts = "stmt.lock_restarts"
let conn_accepted = "server.conn.accepted"
let conn_rejected = "server.conn.rejected"
let server_requests = "server.requests"
let query_timeout = "server.query_timeout"
let repl_bytes_shipped = "repl.bytes_shipped"
let repl_records_shipped = "repl.records_shipped"
let repl_txns_applied = "repl.txns_applied"
let repl_pages_applied = "repl.pages_applied"
let repl_heartbeats = "repl.heartbeats"
let repl_reseeds = "repl.reseeds"
let repl_apply_restarts = "repl.apply_restarts"
let repl_promotions = "repl.promotions"
let repl_lag_bytes = "repl.lag_bytes"
let repl_acked_pos = "repl.acked_pos"
let repl_standby_connected = "repl.standby_connected"
let repl_standby_epoch = "repl.standby_epoch"
let retry_sleeps = "retry.sleeps"
let net_send = "net.send"
let net_recv = "net.recv"
let net_accept = "net.accept"
let net_injected = "net.injected"
let fence_demotions = "fence.demotions"
let fence_rejected_writes = "fence.rejected_writes"
let fence_rejected_pulls = "fence.rejected_pulls"
let cluster_epoch = "cluster.epoch"
let scrub_passes = "scrub.passes"
let scrub_pages_checked = "scrub.pages_checked"
let scrub_corrupt = "scrub.corrupt"
let scrub_repaired_pool = "scrub.repaired_pool"
let scrub_repaired_wal = "scrub.repaired_wal"
let scrub_repaired_standby = "scrub.repaired_standby"
let scrub_deferred = "scrub.deferred"
let scrub_repair_failed = "scrub.repair_failed"
let scrub_progress = "scrub.progress"
let scrub_last_pass_pages = "scrub.last_pass_pages"
let degraded_state = "degraded.state"
let degraded_entered = "degraded.entered"
let degraded_recovered = "degraded.recovered"
let degraded_rejected_writes = "degraded.rejected_writes"
let resource_errors = "store.resource_errors"
let repl_pages_served = "repl.pages_served"

(* Cells that hold a current value rather than a running total: they
   move both ways, a reset must not zero them (the node is still
   degraded, the epoch still stands), and /metrics types them as
   gauges. *)
let gauges =
  [ repl_lag_bytes; repl_acked_pos; repl_standby_connected; repl_standby_epoch;
    cluster_epoch; scrub_progress; scrub_last_pass_pages; degraded_state ]

let reset_all () =
  locked (fun () ->
      Hashtbl.iter (fun k r -> if not (List.mem k gauges) then r := 0) global)

(* Pre-resolved cells for the hot-path counters: incrementing these is
   a plain [incr], so instrumentation does not distort the pointer-
   dereference measurements (bench E7).  They share storage with the
   named counters above. *)
let vas_fast_hit_cell = cell vas_fast_hit
let buffer_hit_cell = cell buffer_hit
let buffer_fault_cell = cell buffer_fault
let deref_cell = cell deref
let block_touch_cell = cell block_touch
let buffer_evict_cell = cell buffer_evict
let page_reads_cell = cell page_reads
let checksum_verify_cell = cell checksum_verify
