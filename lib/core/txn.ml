(* Transaction state (paper §6).  Each statement executes within a
   transaction; a transaction provides ACID over the page store:

   - atomicity: before-images restore the buffer (and the catalog) on
     abort;
   - durability: after-images + commit record reach the WAL (fsynced)
     before commit returns;
   - isolation: strict 2PL on documents for updaters, the held locks
     kept here in [locks] and ending when the transaction leaves the
     active table; read-only transactions read a snapshot without
     locking (§6.3);
   - consistency: single-threaded statement execution plus the above.

   The [dirty] map doubles as the version source for snapshot readers:
   the before-image of a page captured at first write IS the last
   committed version while the writer is active. *)

type status = Active | Committed | Aborted

type t = {
  id : int;
  read_only : bool;
  snapshot_ts : int; (* meaningful for read-only transactions *)
  reader_catalog : Catalog.t option; (* shared committed catalog at snapshot *)
  mutable status : status;
  mutable locks : (string * Lock_mgr.mode) list; (* document -> held mode *)
  dirty : (int, Bytes.t) Hashtbl.t; (* pid -> before-image *)
  cat_backup : string; (* catalog + free-list state at begin *)
  fs_page_count : int;
  fs_free : int list;
}

let is_active t = t.status = Active

let touched t pid = Hashtbl.mem t.dirty pid

let before_image t pid = Hashtbl.find_opt t.dirty pid

let record_write t ~pid ~image =
  if not (Hashtbl.mem t.dirty pid) then Hashtbl.add t.dirty pid image

let dirty_pages t = Hashtbl.fold (fun pid img acc -> (pid, img) :: acc) t.dirty []

(* Lifecycle: [make] and the [mark_*] transitions are the single places
   a transaction changes status. *)

let make ~id ~read_only ~snapshot_ts ~reader_catalog ~cat_backup ~fs_page_count
    ~fs_free =
  {
    id;
    read_only;
    snapshot_ts;
    reader_catalog;
    status = Active;
    locks = [];
    dirty = Hashtbl.create 16;
    cat_backup;
    fs_page_count;
    fs_free;
  }

let mark_committed t = t.status <- Committed
let mark_aborted t = t.status <- Aborted
