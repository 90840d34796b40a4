(* Hot backup (paper §6.5).

   A full hot backup copies the data file, then fixates and copies the
   log, then the configuration (catalog) — in that order, while the
   database keeps serving requests.  The "split-block" problem (a page
   torn by a concurrent write during the copy) is solved by the log:
   restore replays the WAL over the copied data file, so any page the
   copy caught mid-change is rewritten from its logged after-image.

   An incremental backup copies only the log and the catalog; restore
   applies increments over the last full backup, giving point-in-time
   recovery at increment granularity. *)

open Sedna_util

(* fault-injection site: one hit per copied chunk, so a crash can land
   mid-file and leave a torn backup copy (healed by the log on restore) *)
let copy_site = Fault.site "backup.copy"

let copy_file src dst =
  let ic = open_in_bin src in
  let oc = open_out_bin dst in
  let buf = Bytes.create 65536 in
  let rec go () =
    let n = input ic buf 0 (Bytes.length buf) in
    if n > 0 then begin
      (match Fault.hit ~len:n copy_site with
       | Fault.Proceed -> output oc buf 0 n
       | Fault.Short_write k ->
         output oc buf 0 k;
         flush oc;
         Fault.crash copy_site);
      go ()
    end
  in
  go ();
  close_in ic;
  close_out oc

let copy_if_exists src dst = if Sys.file_exists src then copy_file src dst

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

(* Full hot backup into [dest].  The WAL epoch at backup time is
   recorded alongside the copied log: increments are only meaningful
   while the live log is still the same one the base copy fixated.
   Returns the (epoch, position) the copied log ends at. *)
let full db ~dest =
  ensure_dir dest;
  let dir = Database.directory db in
  (* 1. data file (may be torn w.r.t. in-flight commits: fixed by log) *)
  copy_file (Filename.concat dir "data.sdb") (Filename.concat dest "data.sdb");
  copy_if_exists
    (Filename.concat dir "data.sdb.cksum")
    (Filename.concat dest "data.sdb.cksum");
  (* 2. fixate and copy the log *)
  let ((epoch, _) as tip) =
    Wal.fixate (Database.wal db) (fun () ->
        copy_file (Filename.concat dir "wal.sdb") (Filename.concat dest "wal.sdb"))
  in
  Sysutil.write_file_durable
    (Filename.concat dest "wal.sdb.epoch")
    (string_of_int epoch);
  (* 3. additional files: the checkpointed catalog *)
  copy_file (Filename.concat dir "catalog.sdb")
    (Filename.concat dest "catalog.sdb");
  tip

(* Incremental hot backup: only the log (and catalog) since the base
   backup.  Increment [n] is stored as wal.<n>.sdb in the backup dir. *)
let incremental db ~dest ~seq =
  if not (Sys.file_exists dest) then
    Error.raise_error Error.Recovery_failure
      "incremental backup requires an existing full backup at %s" dest;
  let base_epoch =
    Wal.read_epoch (Filename.concat dest "wal.sdb")
  in
  if base_epoch <> 0 && Wal.epoch (Database.wal db) <> base_epoch then
    Error.raise_error Error.Recovery_failure
      "a checkpoint truncated the log since the base backup (epoch %d, now \
       %d): increments would miss committed work — take a fresh full backup"
      base_epoch
      (Wal.epoch (Database.wal db));
  let dir = Database.directory db in
  copy_file (Filename.concat dir "wal.sdb")
    (Filename.concat dest (Printf.sprintf "wal.%d.sdb" seq));
  copy_file (Filename.concat dir "catalog.sdb")
    (Filename.concat dest (Printf.sprintf "catalog.%d.sdb" seq))

(* Restore a backup into a fresh database directory.  [up_to] selects
   how many increments to apply ("point-in-time" at increment
   granularity); [None] applies all of them. *)
let restore ~src ~dest ?up_to () =
  ensure_dir dest;
  copy_file (Filename.concat src "data.sdb") (Filename.concat dest "data.sdb");
  copy_if_exists
    (Filename.concat src "data.sdb.cksum")
    (Filename.concat dest "data.sdb.cksum");
  copy_file (Filename.concat src "catalog.sdb")
    (Filename.concat dest "catalog.sdb");
  copy_file (Filename.concat src "wal.sdb") (Filename.concat dest "wal.sdb");
  (* apply increments: each increment's log replaces the WAL; opening
     the database replays it.  Increments are cumulative since the full
     backup (the base checkpoint), so applying the newest requested one
     is enough. *)
  let rec last_increment best n =
    let w = Filename.concat src (Printf.sprintf "wal.%d.sdb" n) in
    if Sys.file_exists w
       && (match up_to with None -> true | Some k -> n <= k)
    then last_increment (Some n) (n + 1)
    else best
  in
  (match last_increment None 1 with
   | Some n ->
     copy_file
       (Filename.concat src (Printf.sprintf "wal.%d.sdb" n))
       (Filename.concat dest "wal.sdb");
     copy_file
       (Filename.concat src (Printf.sprintf "catalog.%d.sdb" n))
       (Filename.concat dest "catalog.sdb")
   | None -> ());
  (* opening runs recovery: catalog + WAL redo *)
  Database.open_existing dest
