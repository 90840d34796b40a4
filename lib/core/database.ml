(* The database: files, buffer, WAL, versions, catalog and the
   transaction table, which is also the lock table (each transaction
   carries its document locks) — the per-database half of Figure 1's
   "database manager" (buffer manager + transaction manager).

   On-disk layout in the database directory:
     data.sdb     pages (master page + node/text/indirection/btree blocks)
     wal.sdb      write-ahead log since the last checkpoint
     catalog.sdb  checkpointed catalog (Marshal blob)

   Opening a database runs the two-step recovery of paper §6.4: load
   the checkpointed (persistent-snapshot) state, then redo the
   committed transactions found in the WAL. *)

open Sedna_util

(* A published committed catalog: its blob and the decoded copy that
   every reader begun under this publication shares, decoded by the
   first of them.  The cache is a plain option, not a [Lazy.t]: two
   threads decoding at once both get a valid copy, where a concurrent
   [Lazy.force] raises. *)
type published = { blob : string; mutable decoded : Catalog.t option }

type t = {
  dir : string;
  fs : File_store.t;
  bm : Buffer_mgr.t;
  wal : Wal.t;
  gc : Group_commit.t; (* coalesces concurrent commit fsyncs *)
  versions : Versions.t;
  mutable cat : Catalog.t;
  (* the catalog as of the last *completed* commit.  Readers share its
     decoded copy, never the live [cat]: during a parked group commit
     the live catalog already holds the committing transaction's schema
     changes (block-chain heads, counts) while that transaction's pages
     are still rolled back by the before-image overlay — handing a
     reader the live catalog over overlaid pages is a mixed view whose
     block pointers can cycle.  Nobody mutates a published copy: a
     catalog change publishes a new one. *)
  mutable cat_snapshot : published;
  mutable next_txn_id : int;
  active : (int, Txn.t) Hashtbl.t; (* also the lock table: see [lock_exn] *)
  mutable current : Txn.t option; (* transaction executing right now *)
  mutable overlay_lookups : int;
    (* page decisions the newest read-only statement's snapshot overlay
       computed (memo misses); -1 when it ran without an overlay *)
  mutable standby : bool; (* hot standby: continuous redo, writes refused *)
  (* Fencing (split-brain protection): the cluster epoch is the
     promotion generation of the replication group — distinct from the
     WAL epoch, which counts checkpoint truncations of one node's log.
     Promotion mints epoch+1; a node that *observes* a higher epoch on
     any wire exchange knows another node was promoted past it and
     fences itself: writes refused with SE-FENCED until re-seeded. *)
  mutable cluster_epoch : int;
  mutable fenced : bool;
  (* Degraded read-only mode (resource exhaustion): distinct from
     fencing (split-brain) and standby (replication role).  Entered
     when a storage call site hits ENOSPC/EDQUOT/EMFILE or the
     watchdog's free-space probe fails; writes are refused with
     SE-DEGRADED while reads keep serving.  Left when the watchdog has
     seen the resource healthy for a few consecutive probes. *)
  mutable degraded : bool;
  mutable degraded_reason : string;
}

let store db : Store.t = Store.create ~lock:ignore db.bm db.cat

(* make [blob] the committed catalog new readers see; its decoded copy
   is made by the first of them *)
let publish_catalog db blob = db.cat_snapshot <- { blob; decoded = None }

(* the committed catalog as one shared, read-only decoded copy *)
let published_catalog db =
  let p = db.cat_snapshot in
  match p.decoded with
  | Some cat -> cat
  | None ->
    let cat = (Catalog.deserialize p.blob).Catalog.p_catalog in
    p.decoded <- Some cat;
    cat

(* publish the live catalog; callers must only do this when it holds
   no uncommitted changes *)
let snapshot_catalog db =
  publish_catalog db
    (Catalog.serialize db.cat ~page_count:(File_store.page_count db.fs)
       ~free_pages:[])

let catalog db = db.cat
let buffer db = db.bm
let versions db = db.versions
let directory db = db.dir
let wal db = db.wal
let set_standby db b = db.standby <- b
let is_standby db = db.standby

(* ---- cluster epoch / fencing ---------------------------------------- *)

(* The epoch survives restarts in a tiny sidecar (durable write: a
   fenced node must not come back up believing it is current). *)
let cluster_path dir = Filename.concat dir "cluster.epoch"

let read_cluster_file dir =
  match open_in_bin (cluster_path dir) with
  | ic ->
    let v = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
    close_in ic;
    v
  | exception Sys_error _ -> 0

let cluster_epoch db = db.cluster_epoch
let is_fenced db = db.fenced

let persist_cluster_epoch db e =
  db.cluster_epoch <- e;
  Counters.set Counters.cluster_epoch e;
  Sysutil.write_file_durable (cluster_path db.dir) (Printf.sprintf "%d\n" e)

(* Adopt an epoch without fencing — promotion minting its own, or a
   standby tracking its primary's. *)
let set_cluster_epoch db e =
  if e > db.cluster_epoch then persist_cluster_epoch db e

let unfence db = db.fenced <- false

(* A wire exchange carried epoch [e].  Higher than ours and we are not
   a standby (standbys track their primary's epoch; they are already
   read-only) means another node was promoted past us: demote. *)
let observe_epoch db e =
  if e > db.cluster_epoch then begin
    persist_cluster_epoch db e;
    if not db.standby && not db.fenced then begin
      db.fenced <- true;
      Counters.bump Counters.fence_demotions;
      Logs.warn (fun m ->
          m "fenced: observed cluster epoch %d above ours — demoting to read-only" e)
    end
  end

(* ---- degraded mode (resource exhaustion) ----------------------------- *)

let is_degraded db = db.degraded
let degraded_reason db = db.degraded_reason

let enter_degraded db reason =
  if not db.degraded then begin
    db.degraded <- true;
    db.degraded_reason <- reason;
    Counters.bump Counters.degraded_entered;
    Counters.set Counters.degraded_state 1;
    Logs.warn (fun m ->
        m "degraded: %s — shedding writes, reads keep serving" reason)
  end

let exit_degraded db =
  if db.degraded then begin
    let reason = db.degraded_reason in
    db.degraded <- false;
    db.degraded_reason <- "";
    Counters.bump Counters.degraded_recovered;
    Counters.set Counters.degraded_state 0;
    Logs.info (fun m -> m "degraded mode cleared (was: %s) — writes resume" reason)
  end

(* Classify an exception from a storage write/sync call site: resource
   exhaustion flips the node into degraded mode and resurfaces as
   SE-DEGRADED (a clean, retryable refusal); anything else passes
   through untouched. *)
let reraise_classified db ~what e =
  if Sysutil.is_resource_exhaustion e then begin
    Counters.bump Counters.resource_errors;
    enter_degraded db (Printf.sprintf "%s: %s" what (Printexc.to_string e));
    Error.raise_error Error.Degraded "%s hit resource exhaustion (%s): node \
                                      is degraded, writes refused"
      what (Printexc.to_string e)
  end
  else raise e

(* ---- write / read hooks ------------------------------------------------ *)

(* Every page write is attributed to the current transaction: first
   write captures the before-image and pins the page (uncommitted
   pages must not reach the data file). *)
let install_hooks db =
  Buffer_mgr.set_write_hook db.bm (fun pid ->
      match db.current with
      | Some txn when not txn.Txn.read_only ->
        if not (Txn.touched txn pid) then begin
          let img = Buffer_mgr.page_image db.bm pid in
          Txn.record_write txn ~pid ~image:img;
          Buffer_mgr.pin_pid db.bm pid
        end
      | Some txn when txn.Txn.read_only ->
        Error.raise_error Error.Txn_read_only
          "write attempted by read-only transaction %d" txn.Txn.id
      | _ -> () (* internal maintenance outside any transaction *))

(* Active updaters holding before-images, in [db.active]'s iteration
   order (the first one with an image of a page serves it). *)
let shadowing_writers db =
  Hashtbl.fold
    (fun _ (txn : Txn.t) acc ->
      if (not txn.Txn.read_only) && Txn.is_active txn
         && Hashtbl.length txn.Txn.dirty > 0
      then txn :: acc
      else acc)
    db.active []
  |> List.rev

(* Snapshot view for a read-only statement: pages with newer committed
   versions come from the version store; pages dirtied by an active
   updater are served from that updater's before-image. *)
let overlay_for db (reader : Txn.t) ~writers pid : Bytes.t option =
  match Versions.read_for_snapshot db.versions ~snapshot_ts:reader.Txn.snapshot_ts pid with
  | Some _ as img -> img
  | None -> List.find_map (fun txn -> Txn.before_image txn pid) writers

(* The overlay one read-only statement reads through, or [None] when no
   page can differ from the reader's snapshot.  That test is exact, not
   a heuristic: only [Versions.install_commit] moves a page's version
   past a snapshot, and it raises [last_commit_ts] to at least every
   timestamp it writes; only an updater's before-images shadow a page.

   The overlay remembers its decisions for the last few pages asked
   about, replaced round-robin, so dereferences within a block, and
   scans that alternate between a few blocks (an element chain, the
   blocks of its text children and the text store), cost a few
   comparisons.  Only decisions are kept, never a frame's bytes: a [None] still reads the frame through the buffer
   manager, which may evict and refill it.

   Both the test and the memo rely on the engine lock: while a statement
   holds it, no commit installs and no updater writes, so nothing they
   looked at changes before the statement ends. *)
let overlay_memo_size = 4

let statement_overlay db (reader : Txn.t) =
  let writers = shadowing_writers db in
  if Versions.last_commit_ts db.versions <= reader.Txn.snapshot_ts && writers = []
  then begin
    db.overlay_lookups <- -1;
    None
  end
  else begin
    db.overlay_lookups <- 0;
    let pids = Array.make overlay_memo_size (-1)
    and decisions = Array.make overlay_memo_size None
    and victim = ref 0 in
    Some
      (fun pid ->
        let i = ref 0 in
        while !i < overlay_memo_size && pids.(!i) <> pid do
          incr i
        done;
        if !i = overlay_memo_size then begin
          i := !victim;
          victim := (!i + 1) mod overlay_memo_size;
          db.overlay_lookups <- db.overlay_lookups + 1;
          decisions.(!i) <- overlay_for db reader ~writers pid;
          pids.(!i) <- pid
        end;
        decisions.(!i))
  end

let snapshot_view db =
  if db.overlay_lookups < 0 then `Current else `Overlay db.overlay_lookups

(* ---- lifecycle ----------------------------------------------------------- *)

let data_path dir = Filename.concat dir "data.sdb"
let wal_path dir = Filename.concat dir "wal.sdb"
let catalog_path dir = Filename.concat dir "catalog.sdb"

let write_catalog_file db =
  let blob =
    Catalog.serialize db.cat ~page_count:(File_store.page_count db.fs)
      ~free_pages:(File_store.free_list db.fs)
  in
  (* tmp + fsync + rename + dir fsync: a crash leaves the old catalog
     or the new one, never a torn blob behind an already-renamed name *)
  Sysutil.write_file_durable (catalog_path db.dir) blob

let read_catalog_file dir =
  let ic = open_in_bin (catalog_path dir) in
  let len = in_channel_length ic in
  let blob = really_input_string ic len in
  close_in ic;
  Catalog.deserialize blob

let checkpoint db =
  (* A checkpoint fixates a transaction-consistent state: all committed
     pages go to the data file, the catalog is persisted, and the log
     is truncated (paper §6.4: "a checkpoint may be created to fixate
     transaction-consistent state... we call such a state a persistent
     snapshot"). *)
  if Hashtbl.length db.active > 0 then
    Error.raise_error Error.Txn_not_active
      "checkpoint with active transactions is not supported";
  try
    ignore (Buffer_mgr.flush_all db.bm);
    write_catalog_file db;
    Wal.reset db.wal;
    (* WAL positions restarted at 0: the group committer's notion of
       "durably synced up to" must restart with them, or a later commit
       at a small position would be treated as already synced *)
    Group_commit.note_reset db.gc;
    Wal.append db.wal Wal.Checkpoint;
    Wal.sync db.wal
  with
  | (Fault.Injected_fault _ | Fault.Injected_crash _) as e -> raise e
  | e -> reraise_classified db ~what:"checkpoint" e

(* A database over open files, before its first checkpoint: [create]
   and [open_existing] differ only in the files and the catalog. *)
let make dir ~buffer_frames fs wal cat =
  let db =
    {
      dir;
      fs;
      bm = Buffer_mgr.create ~frames:buffer_frames fs;
      wal;
      gc = Group_commit.create wal;
      versions = Versions.create ();
      cat;
      cat_snapshot = { blob = ""; decoded = None };
      next_txn_id = 1;
      active = Hashtbl.create 8;
      current = None;
      overlay_lookups = -1;
      standby = false;
      cluster_epoch = read_cluster_file dir;
      fenced = false;
      degraded = false;
      degraded_reason = "";
    }
  in
  Counters.set Counters.cluster_epoch db.cluster_epoch;
  install_hooks db;
  db

(* Redo one page: extend the data file to cover [pid] (the log may name
   pages the file never reached), then install the after-image without
   reading the on-disk page — a page torn by a crash would fail its
   checksum, and its content is being replaced anyway.  Absolute images
   make redo idempotent. *)
let redo_page db pid img =
  while File_store.page_count db.fs <= pid do
    ignore (File_store.allocate db.fs)
  done;
  Buffer_mgr.overwrite_page db.bm pid img

(* Adopt a committed catalog with the page count and free list it was
   written with. *)
let adopt_catalog db (p : Catalog.persistent) =
  db.cat <- p.Catalog.p_catalog;
  File_store.set_page_count db.fs p.Catalog.p_page_count;
  File_store.set_free_list db.fs p.Catalog.p_free_pages

let create ?(buffer_frames = 256) dir =
  if not (Sys.file_exists dir) then begin
    Unix.mkdir dir 0o755;
    (* persist the new directory entry itself *)
    Sysutil.fsync_dir (Filename.dirname dir)
  end;
  let fs = File_store.create (data_path dir) in
  let db = make dir ~buffer_frames fs (Wal.create (wal_path dir)) (Catalog.create ()) in
  checkpoint db;
  snapshot_catalog db;
  db

(* Two-step recovery (paper §6.4): step 1 restores the persistent
   snapshot (data file + checkpointed catalog); step 2 replays the
   page images of committed transactions from the WAL, in log order,
   and adopts the last committed catalog. *)
let recover db =
  let records = Wal.read_all (wal_path db.dir) in
  let committed = Wal.committed records in
  let replayed = ref 0 in
  let last_catalog = ref None in
  List.iter
    (function
      | Wal.Image (_, pid, img) ->
        redo_page db pid img;
        incr replayed
      | Wal.Commit (_, Some blob) -> last_catalog := Some blob
      | _ -> ())
    committed;
  let skipped =
    List.length (List.filter (function Wal.Image _ -> true | _ -> false) records)
    - !replayed
  in
  Option.iter (fun blob -> adopt_catalog db (Catalog.deserialize blob)) !last_catalog;
  Counters.bump ~n:!replayed Counters.recovery_redo;
  Counters.bump ~n:skipped Counters.recovery_skip;
  !replayed

let open_existing ?(buffer_frames = 256) dir =
  let fs = File_store.open_existing (data_path dir) in
  let wal = Wal.open_existing (wal_path dir) in
  let db = make dir ~buffer_frames fs wal (Catalog.create ()) in
  adopt_catalog db (read_catalog_file dir);
  let replayed = recover db in
  if replayed > 0 then Logs.info (fun m -> m "recovery replayed %d page images" replayed);
  (* make the recovered state the new persistent snapshot *)
  checkpoint db;
  snapshot_catalog db;
  db

let close db =
  checkpoint db;
  Wal.close db.wal;
  File_store.close db.fs

(* ---- transactions --------------------------------------------------------- *)

(* The one rule for writes: a fenced or degraded node refuses them, each
   with its own error and counter; [what] names the refused write.  A
   commit passes the gate again: a fence or a full disk seen after its
   transaction began must still stop it, so nothing is acked past the
   fence point or into a filled disk. *)
let write_gate db ~what =
  if db.fenced then begin
    Counters.bump Counters.fence_rejected_writes;
    Error.raise_error Error.Fenced
      "node is fenced at cluster epoch %d: another node was promoted; %s \
       refused"
      db.cluster_epoch what
  end;
  if db.degraded then begin
    Counters.bump Counters.degraded_rejected_writes;
    Error.raise_error Error.Degraded
      "node is degraded (%s): %s refused until resources recover"
      db.degraded_reason what
  end

let begin_txn ?(read_only = false) db : Txn.t =
  if not read_only then begin
    write_gate db ~what:"writes";
    if db.standby then
      Error.raise_error Error.Standby_read_only
        "database is a hot standby: only BEGIN READ ONLY is accepted"
  end;
  let id = db.next_txn_id in
  db.next_txn_id <- id + 1;
  let snapshot_ts, reader_catalog =
    if read_only then
      let ts = Versions.acquire_snapshot db.versions in
      (* the reader shares the *last committed* catalog
         ([cat_snapshot]), which matches the reader's page view: the
         overlay serves active updaters' pages from their
         before-images, so the live catalog — already carrying those
         updaters' schema pointers — must stay invisible *)
      (ts, Some (published_catalog db))
    else (0, None)
  in
  let txn =
    Txn.make ~id ~read_only ~snapshot_ts ~reader_catalog
      ~cat_backup:
        (if read_only then ""
         else
           Catalog.serialize db.cat ~page_count:(File_store.page_count db.fs)
             ~free_pages:(File_store.free_list db.fs))
      ~fs_page_count:(File_store.page_count db.fs)
      ~fs_free:(File_store.free_list db.fs)
  in
  (* append before registering: if the Begin append fails, no dead
     transaction lingers in the active table (it would block every
     later checkpoint).  Read-only transactions write nothing at
     commit either — logging their Begin would leave permanently
     unresolved transactions in a shipped log stream. *)
  if not read_only then begin
    try Wal.append db.wal (Wal.Begin id)
    with e when Sysutil.is_resource_exhaustion e ->
      reraise_classified db ~what:"WAL begin append" e
  end;
  Hashtbl.add db.active id txn;
  txn

(* Route execution through a transaction: installs the write hook
   target (updaters) or, for a reader whose snapshot some page differs
   from, the snapshot overlay.  A reader no commit or updater has
   overtaken reads the buffer directly: every dereference stays the
   bare VAS check. *)
let run db (txn : Txn.t) f =
  if not (Txn.is_active txn) then
    Error.raise_error Error.Txn_not_active "transaction %d is not active"
      txn.Txn.id;
  let prev = db.current in
  db.current <- Some txn;
  let overlay = if txn.Txn.read_only then statement_overlay db txn else None in
  Option.iter (Buffer_mgr.set_read_overlay db.bm) overlay;
  Fun.protect
    ~finally:(fun () ->
      db.current <- prev;
      if Option.is_some overlay then Buffer_mgr.clear_read_overlay db.bm)
    f

(* Strict 2PL at document granularity, without waiting (NO_WAIT): a
   request is granted iff no other active transaction holds a mode
   that conflicts with it (an S->X upgrade thus needs every other
   holder gone), and refused with Lock_timeout at once otherwise.  The
   caller holds the engine lock, and every lock release (commit, abort,
   a disconnect's rollback) runs under it too, so a wait here could
   never end in a grant; the session layer restarts auto-commit
   statements with its pause *outside* the engine lock.  Nothing ever
   waits for a lock while holding one, so no deadlock can form.
   A transaction's locks live on it and end when it leaves [db.active].
   Read-only transactions read their snapshot and never lock (§6.3).
   A lock the transaction already holds (X, or the mode asked for)
   returns before the span and the deadline check: a store asks again
   at every name it resolves, e.g. once per iteration of a loop over
   doc("d"). *)
let lock_exn db (txn : Txn.t) ~doc ~mode =
  let held = List.assoc_opt doc txn.Txn.locks in
  if not (txn.Txn.read_only || held = Some Lock_mgr.Exclusive || held = Some mode) then
    Span.with_span "lock.wait" (fun sp ->
        (match sp with
         | Some sp ->
           Span.annotate sp "doc" (Metrics.Str doc);
           Span.annotate sp "mode"
             (Metrics.Str
                (match mode with Lock_mgr.Shared -> "shared" | Lock_mgr.Exclusive -> "exclusive"))
         | None -> ());
        let outcome o = Option.iter (fun sp -> Span.annotate sp "outcome" (Metrics.Str o)) sp in
        Deadline.check_now ();
        let conflicts (other : Txn.t) =
          other != txn
          &&
          match List.assoc_opt doc other.Txn.locks with
          | Some m -> not (Lock_mgr.compatible mode m)
          | None -> false
        in
        if Seq.exists conflicts (Hashtbl.to_seq_values db.active) then begin
          outcome "timeout";
          Error.raise_error Error.Lock_timeout "transaction %d blocked on document %S"
            txn.Txn.id doc
        end
        else begin
          txn.Txn.locks <- (doc, mode) :: List.remove_assoc doc txn.Txn.locks;
          outcome "granted"
        end)

(* The store a transaction executes against.  An updater's store locks
   every document it resolves in [mode] ([lock_exn]); a reader's gets
   the committed catalog it began with and locks nothing. *)
let txn_store db (txn : Txn.t) ~mode : Store.t =
  match txn.Txn.reader_catalog with
  | Some cat -> Store.create ~lock:ignore db.bm cat
  | None -> Store.create ~lock:(fun doc -> lock_exn db txn ~doc ~mode) db.bm db.cat

let commit ?(park = fun wait -> wait ()) db (txn : Txn.t) =
  if not (Txn.is_active txn) then
    Error.raise_error Error.Txn_not_active "commit of inactive transaction";
  if txn.Txn.read_only then begin
    Versions.release_snapshot db.versions txn.Txn.snapshot_ts;
    Txn.mark_committed txn;
    Hashtbl.remove db.active txn.Txn.id
  end
  else begin
    write_gate db ~what:"the commit of an open transaction";
    let pages = Txn.dirty_pages txn in
    (* WAL protocol: after-images + commit record appended as one
       contiguous group under the writer cursor, then an fsync covering
       the group's end position before the commit is acknowledged.

       Under group commit the fsync wait happens *outside* the engine
       lock ([park] releases and re-takes it): while this transaction
       parks, other sessions run statements and append their own commit
       groups, and one leader fsync acknowledges them all.  The parked
       transaction still holds its document locks and keeps its dirty
       pages pinned, so to every other session it looks exactly like an
       idle open transaction. *)
    let cat_blob =
      (* ENOSPC (real or injected) anywhere in the append/group-fsync —
         including the failure a parked waiter receives when the group
         leader's covering sync died — flips the node degraded and
         surfaces SE-DEGRADED.  The session layer then aborts the
         transaction, so the client gets a clean refusal, never a false
         ack and never a dead process. *)
      try
      Span.with_span "commit.fsync" (fun sp ->
        let cat_blob =
          if Catalog.is_dirty db.cat then begin
            let blob =
              Catalog.serialize db.cat
                ~page_count:(File_store.page_count db.fs)
                ~free_pages:(File_store.free_list db.fs)
            in
            (* clear while still holding the engine lock, atomically
               with the serialization: dirt added by another session
               while this commit parks belongs to *that* session's
               commit record, not to a late clear here *)
            Catalog.clear_dirty db.cat;
            Some blob
          end
          else None
        in
        let records =
          List.map
            (fun (pid, _before) ->
              Wal.Image (txn.Txn.id, pid, Buffer_mgr.page_image db.bm pid))
            pages
          @ [ Wal.Commit (txn.Txn.id, cat_blob) ]
        in
        let commit_pos = Wal.append_group db.wal records in
        (match sp with
         | Some sp ->
           Span.annotate sp "txn" (Metrics.Int txn.Txn.id);
           Span.annotate sp "pages" (Metrics.Int (List.length pages));
           (* remember the commit point so the replication sender can
              parent the standby's apply span under this fsync span.
              [commit_pos], not the current log end: a concurrent
              committer may already have appended past us. *)
           Wal.mark_trace db.wal ~pos:commit_pos ~trace:sp.Span.sp_trace
             ~span:sp.Span.sp_id
         | None -> ());
        (* the commit.fsync span stays open across the park, so its
           duration is the shared group sync this transaction actually
           waited on, not a no-op *)
        Span.with_span "commit.park" (fun psp ->
            (match psp with
             | Some p -> Span.annotate p "pos" (Metrics.Int commit_pos)
             | None -> ());
            park (fun () -> Group_commit.sync_to db.gc ~pos:commit_pos));
        cat_blob)
      with e when Sysutil.is_resource_exhaustion e ->
        reraise_classified db ~what:"commit append/fsync" e
    in
    (* versions: displaced images become snapshot versions if needed *)
    let commit_ts = Versions.last_commit_ts db.versions + 1 in
    Versions.install_commit db.versions ~commit_ts pages;
    (* the commit is durable: publish its catalog to new readers *)
    (match cat_blob with
     | Some blob -> publish_catalog db blob
     | None -> ());
    (* unpin so committed pages become evictable *)
    List.iter (fun (pid, _) -> Buffer_mgr.unpin_pid db.bm pid) pages;
    Txn.mark_committed txn;
    Hashtbl.remove db.active txn.Txn.id
  end

let abort db (txn : Txn.t) =
  if not (Txn.is_active txn) then
    Error.raise_error Error.Txn_not_active "abort of inactive transaction";
  if not txn.Txn.read_only then begin
    (* restore page before-images *)
    List.iter
      (fun (pid, before) ->
        Buffer_mgr.set_page_image db.bm pid before;
        Buffer_mgr.unpin_pid db.bm pid)
      (Txn.dirty_pages txn);
    (* restore the catalog and the free list; pages allocated by this
       transaction go back to the free pool *)
    let p = Catalog.deserialize txn.Txn.cat_backup in
    db.cat <- p.Catalog.p_catalog;
    let allocated = ref [] in
    for pid = txn.Txn.fs_page_count to File_store.page_count db.fs - 1 do
      allocated := pid :: !allocated
    done;
    File_store.set_free_list db.fs (txn.Txn.fs_free @ !allocated);
    (* A full disk must not poison the abort path: the in-memory
       rollback above is complete, and a transaction whose Commit
       record never made a covering fsync was never acknowledged, so a
       missing Abort record cannot resurrect anything that was acked.
       Flip degraded and move on. *)
    try Wal.append db.wal (Wal.Abort txn.Txn.id)
    with e when Sysutil.is_resource_exhaustion e ->
      Counters.bump Counters.resource_errors;
      enter_degraded db
        (Printf.sprintf "abort append: %s" (Printexc.to_string e))
  end
  else Versions.release_snapshot db.versions txn.Txn.snapshot_ts;
  Txn.mark_aborted txn;
  Hashtbl.remove db.active txn.Txn.id

(* Convenience bracket: BEGIN; f; COMMIT (abort on exception).  An
   updater's store locks in X every document [f] resolves. *)
let with_txn ?read_only db f =
  let txn = begin_txn ?read_only db in
  match run db txn (fun () -> f txn (txn_store db txn ~mode:Lock_mgr.Exclusive)) with
  | v ->
    commit db txn;
    v
  | exception (Fault.Injected_crash _ as e) ->
    (* simulated process death: the database is gone, do not write an
       abort record or touch the buffer on the way out *)
    raise e
  | exception e ->
    (if Txn.is_active txn then
       try abort db txn with
       | Fault.Injected_crash _ as c -> raise c
       | _ -> ());
    raise e

(* ---- standby apply -------------------------------------------------------- *)

(* Apply one shipped committed transaction on a hot standby: install
   the page after-images (extending the data file as needed, exactly
   like recovery redo) and adopt the primary's catalog when the commit
   carried one.  Before-images of the displaced pages are pushed into
   the version store under a fresh commit timestamp, so concurrent
   BEGIN READ ONLY sessions keep reading their consistent snapshot
   while the apply overwrites pages underneath them.  Absolute images
   make this idempotent: re-applying a transaction after a lost ack
   just installs the same bytes again.

   The shipped WAL bytes themselves are appended to the standby's own
   log by the receiver *before* this runs, so ordinary recovery can
   finish the job if the standby dies mid-apply. *)
let apply_txn db ~images ~catalog_blob =
  let pages =
    List.map
      (fun (pid, after) ->
        (* a page past the file's end held zeros *)
        let before =
          if pid < File_store.page_count db.fs then Buffer_mgr.page_image db.bm pid
          else Bytes.make Page.page_size '\000'
        in
        redo_page db pid after;
        (pid, before))
      images
  in
  Option.iter
    (fun blob ->
      adopt_catalog db (Catalog.deserialize blob);
      publish_catalog db blob)
    catalog_blob;
  let commit_ts = Versions.last_commit_ts db.versions + 1 in
  Versions.install_commit db.versions ~commit_ts pages;
  Counters.bump Counters.repl_txns_applied;
  Counters.bump ~n:(List.length pages) Counters.repl_pages_applied

(* Crash simulation for recovery tests and the fault-injection harness:
   drop all volatile state without flushing; the caller then re-opens
   the directory.  Robust against being called while the process is
   mid-write (an [Injected_crash] just unwound the stack) and against
   double teardown. *)
let crash db =
  Hashtbl.reset db.active;
  db.current <- None;
  (try Buffer_mgr.drop_all db.bm with _ -> ());
  (try Wal.close db.wal with Unix.Unix_error _ -> ());
  try File_store.close db.fs with Unix.Unix_error _ -> ()
