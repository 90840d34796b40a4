(* Online storage scrubber: walks every data page at a bounded rate,
   verifies the CRC sidecar, and repairs confirmed-corrupt pages while
   the database keeps serving.

   The scan must not pollute the buffer pool's hot set, so it never
   reads through the buffer manager: each pass opens its *own*
   read-only descriptor on the data file and compares raw page bytes
   against the sidecar CRC.  That scan is deliberately lock-free —
   a page mid-write under the engine lock can look torn to it — so a
   mismatch is only a *suspicion*.  The pass then re-checks the page
   under the engine lock ([File_store.verify_page], which sees a
   consistent page+sidecar pair because all data-file writes happen
   under that lock); only a confirmed mismatch counts as corruption.
   This two-phase check is what makes scrub-vs-group-commit
   interleaving free of false positives.

   Repair sources, in priority order (all under the engine lock):

     1. a *dirty* resident frame means the next flush will rewrite the
        on-disk page anyway — defer, the pool copy is newer than any
        after-image;
     2. a *clean* resident frame is the committed content — write it
        back through;
     3. the latest committed WAL after-image for the page (the recovery
        redo source, installed via [Buffer_mgr.repair_page] so the
        corrupt on-disk bytes are never faulted in);
     4. a standby's copy, via the caller-provided [fetch] hook (the
        replication layer wires [Wire.Page_request] underneath it;
        epoch checks live there so a fenced node never serves or
        accepts repairs).

   The scrubber sits in [sedna_core] and cannot see the governor, so
   mutual exclusion is injected: [lock] must run its closure under the
   engine lock (embedders pass [Governor.with_engine]; unit tests pass
   [fun f -> f ()]). *)

open Sedna_util

(* fault-injection sites (crash-safety harness) *)
let verify_site = Fault.site "scrub.verify"
let repair_site = Fault.site "scrub.repair"

type stats = {
  mutable checked : int;
  mutable corrupt : int;
  mutable repaired_pool : int;
  mutable repaired_wal : int;
  mutable repaired_standby : int;
  mutable deferred : int;
  mutable failed : int;
}

let fresh_stats () =
  { checked = 0; corrupt = 0; repaired_pool = 0; repaired_wal = 0;
    repaired_standby = 0; deferred = 0; failed = 0 }

type t = {
  db : Database.t;
  lock : (unit -> unit) -> unit;
  fetch : (int -> Bytes.t option) option;
  pages_per_sec : int; (* 0 = unthrottled *)
  mutable stop_flag : bool;
  mutable thread : Thread.t option;
}

let create ?(pages_per_sec = 0) ?fetch ?(lock = fun f -> f ()) db =
  { db; lock; fetch; pages_per_sec; stop_flag = false; thread = None }

(* Latest committed after-image for [pid] still present in the WAL —
   the images recovery would replay ({!Wal.committed}), so an unacked
   commit whose fsync failed is never used as a repair source. *)
let wal_image db pid =
  List.fold_left
    (fun acc r ->
      match r with Wal.Image (_, p, img) when p = pid -> Some img | _ -> acc)
    None
    (Wal.committed
       (Wal.read_all (Filename.concat (Database.directory db) "wal.sdb")))

(* Lock-free suspicion scan of one page through the scrubber's own
   descriptor.  [true] = worth confirming under the lock.  A short read
   races a concurrent file extension: the page is brand new, skip it. *)
let suspicious fs fd buf pid =
  match Unix.lseek fd (pid * Page.page_size) Unix.SEEK_SET with
  | exception Unix.Unix_error _ -> false
  | _ ->
    let rec fill off =
      if off >= Page.page_size then true
      else
        match Unix.read fd buf off (Page.page_size - off) with
        | 0 -> false
        | n -> fill (off + n)
        | exception Unix.Unix_error _ -> false
    in
    if not (fill 0) then false
    else begin
      match File_store.stored_cksum fs pid with
      | None -> false
      | Some crc -> Bytes_util.crc32 ~len:Page.page_size buf <> crc
    end

(* Confirm and repair one suspicious page under the engine lock. *)
let confirm_and_repair t st pid =
  t.lock (fun () ->
      let bm = Database.buffer t.db in
      let fs = Buffer_mgr.store bm in
      match File_store.verify_page fs pid with
      | `Ok | `Unknown -> () (* the scan raced a legitimate write *)
      | `Corrupt ->
        st.corrupt <- st.corrupt + 1;
        Counters.bump Counters.scrub_corrupt;
        Fault.check repair_site;
        let repaired source =
          Counters.bump
            (match source with
             | "pool" -> Counters.scrub_repaired_pool
             | "wal" -> Counters.scrub_repaired_wal
             | _ -> Counters.scrub_repaired_standby);
          Logs.info (fun m -> m "scrub: repaired page %d from %s" pid source)
        in
        (match Buffer_mgr.residency bm pid with
         | `Dirty ->
           (* the pool holds newer content than any after-image; its
              flush will rewrite the on-disk page *)
           st.deferred <- st.deferred + 1;
           Counters.bump Counters.scrub_deferred
         | `Clean ->
           Buffer_mgr.repair_page bm pid (Buffer_mgr.page_image bm pid);
           st.repaired_pool <- st.repaired_pool + 1;
           repaired "pool"
         | `Absent ->
           let fail why =
             st.failed <- st.failed + 1;
             Counters.bump Counters.scrub_repair_failed;
             Logs.err (fun m -> m "scrub: page %d corrupt, %s" pid why)
           in
           (match wal_image t.db pid with
            | Some img ->
              Buffer_mgr.repair_page bm pid img;
              st.repaired_wal <- st.repaired_wal + 1;
              repaired "wal"
            | None -> (
              match t.fetch with
              | Some fetch -> (
                match fetch pid with
                | Some img when Bytes.length img = Page.page_size ->
                  Buffer_mgr.repair_page bm pid img;
                  st.repaired_standby <- st.repaired_standby + 1;
                  repaired "standby"
                | _ -> fail "standby fetch failed")
              | None -> fail "no repair source"))))

(* One full pass over the data file.  Raises [Injected_fault] /
   [Injected_crash] through to the caller (the crash harness classifies
   them); the background loop catches and logs them instead. *)
let run_pass t =
  let st = fresh_stats () in
  let fs = Buffer_mgr.store (Database.buffer t.db) in
  let fd = Unix.openfile (File_store.path fs) [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let buf = Bytes.create Page.page_size in
      (* rate control: work in tenth-of-a-second chunks *)
      let chunk =
        if t.pages_per_sec <= 0 then max_int else max 1 (t.pages_per_sec / 10)
      in
      let in_chunk = ref 0 in
      let pid = ref 0 in
      (* the file can grow while we scan; the pass covers the pages that
         existed when it reached them *)
      while !pid < File_store.page_count fs && not t.stop_flag do
        Fault.check verify_site;
        if suspicious fs fd buf !pid then confirm_and_repair t st !pid;
        st.checked <- st.checked + 1;
        Counters.bump Counters.scrub_pages_checked;
        Counters.set Counters.scrub_progress !pid;
        incr in_chunk;
        if !in_chunk >= chunk then begin
          in_chunk := 0;
          Thread.delay 0.1
        end;
        incr pid
      done;
      Counters.bump Counters.scrub_passes;
      Counters.set Counters.scrub_last_pass_pages st.checked;
      Counters.set Counters.scrub_progress 0;
      st)

(* ---- background thread ---------------------------------------------- *)

let rec bg_loop t =
  if not t.stop_flag then begin
    (match run_pass t with
     | (_ : stats) -> ()
     | exception Fault.Injected_crash _ -> t.stop_flag <- true
     | exception e when not t.stop_flag ->
       (* a shutdown can close the store under a pass; otherwise log and
          keep scrubbing — the scrubber must outlive transient errors *)
       Logs.warn (fun m -> m "scrub pass failed: %s" (Printexc.to_string e))
     | exception _ -> ());
    if not t.stop_flag then begin
      Thread.delay 0.2;
      bg_loop t
    end
  end

let start t =
  if t.thread = None then begin
    t.stop_flag <- false;
    t.thread <- Some (Thread.create bg_loop t)
  end

let stop t =
  t.stop_flag <- true;
  match t.thread with
  | None -> ()
  | Some th ->
    t.thread <- None;
    Thread.join th
