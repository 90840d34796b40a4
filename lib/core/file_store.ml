(* The database data file: a flat array of pages addressed by global
   page id.  Page 0 is the master page.  Free pages are tracked in an
   in-memory free list persisted with the catalog at checkpoint; after
   a crash the free list is rebuilt conservatively (pages past the last
   checkpoint may be re-allocated only after recovery has replayed the
   WAL, which re-establishes their content).

   Every page carries a CRC-32 kept in a sidecar map (<data>.cksum)
   rather than a page trailer, so the 4 KiB page payload stays fully
   usable and pre-checksum files keep opening (their pages adopt a
   checksum on first read).  [read_page] verifies the CRC and surfaces
   a mismatch as [Error.Corrupt_page] — a torn or bit-flipped page is
   detected, never silently served.  The sidecar is persisted in
   [sync], strictly after the data fsync: recovery re-images any page
   whose write raced a crash from its WAL after-image without reading
   it, so a stale sidecar entry can only ever be observed for a page
   whose content is also stale — and both are then overwritten. *)

open Sedna_util

type t = {
  fd : Unix.file_descr;
  path : string;
  mutable page_count : int; (* pages ever allocated, including master *)
  mutable free : int list; (* recycled page ids *)
  mutable cksum : int array; (* per-page CRC-32; meaningful iff known *)
  mutable known : Bytes.t; (* '\001' where cksum.(pid) is recorded *)
}

(* fault-injection sites (crash-safety harness) *)
let write_site = Fault.site "file_store.write"
let sync_site = Fault.site "file_store.sync"

let cksum_path path = path ^ ".cksum"

let zero_page_crc =
  lazy (Bytes_util.crc32 (Bytes.make Page.page_size '\000'))

let grow_cksum t n =
  if n > Array.length t.cksum then begin
    let cap = max n (2 * Array.length t.cksum) in
    let cksum = Array.make cap 0 in
    Array.blit t.cksum 0 cksum 0 (Array.length t.cksum);
    let known = Bytes.make cap '\000' in
    Bytes.blit t.known 0 known 0 (Bytes.length t.known);
    t.cksum <- cksum;
    t.known <- known
  end

let record_cksum t pid crc =
  grow_cksum t (pid + 1);
  t.cksum.(pid) <- crc;
  Bytes.set t.known pid '\001'

(* Sidecar format: [pid 0 .. page_count-1] x ([known:u8][crc:i32]). *)
let serialize_cksum t =
  let b = Bytes.create (5 * t.page_count) in
  for pid = 0 to t.page_count - 1 do
    let known = pid < Bytes.length t.known && Bytes.get t.known pid = '\001' in
    Bytes_util.set_u8 b (5 * pid) (if known then 1 else 0);
    Bytes_util.set_i32 b ((5 * pid) + 1) (if known then t.cksum.(pid) else 0)
  done;
  Bytes.to_string b

let load_cksum t =
  let p = cksum_path t.path in
  if Sys.file_exists p then begin
    let ic = open_in_bin p in
    let len = in_channel_length ic in
    let b = Bytes.create len in
    really_input ic b 0 len;
    close_in ic;
    let entries = min (len / 5) t.page_count in
    grow_cksum t t.page_count;
    for pid = 0 to entries - 1 do
      if Bytes_util.get_u8 b (5 * pid) = 1 then
        (* get_i32 sign-extends; CRCs are unsigned 32-bit *)
        record_cksum t pid (Bytes_util.get_i32 b ((5 * pid) + 1) land 0xFFFFFFFF)
    done
  end

let create path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (* materialize the master page *)
  let zero = Bytes.make Page.page_size '\000' in
  let n = Unix.write fd zero 0 Page.page_size in
  if n <> Page.page_size then
    Error.raise_error Error.Storage_corruption "short write creating %s" path;
  let t =
    { fd; path; page_count = 1; free = [];
      cksum = Array.make 64 0; known = Bytes.make 64 '\000' }
  in
  record_cksum t 0 (Lazy.force zero_page_crc);
  (* the file's directory entry itself must survive a crash *)
  Sysutil.fsync_dir (Filename.dirname path);
  t

let open_existing path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  if size mod Page.page_size <> 0 then
    Error.raise_error Error.Storage_corruption
      "data file %s size %d is not page-aligned" path size;
  let page_count = size / Page.page_size in
  let cap = max 64 page_count in
  let t =
    { fd; path; page_count; free = [];
      cksum = Array.make cap 0; known = Bytes.make cap '\000' }
  in
  load_cksum t;
  t

let page_count t = t.page_count
let path t = t.path

let stored_cksum t pid =
  if pid >= 0 && pid < t.page_count
     && pid < Bytes.length t.known && Bytes.get t.known pid = '\001'
  then Some t.cksum.(pid)
  else None

(* Authoritative CRC check for the scrubber's confirm step: re-read the
   page through the store's own descriptor and compare against the
   sidecar, without adopting and without raising.  Must be called under
   the engine lock (the shared fd's seek+read is not thread-safe and
   the sidecar may be mid-update otherwise). *)
let verify_page t pid =
  if pid < 0 || pid >= t.page_count then `Unknown
  else begin
    let buf = Bytes.create Page.page_size in
    ignore (Unix.lseek t.fd (pid * Page.page_size) Unix.SEEK_SET);
    let rec fill off =
      if off >= Page.page_size then true
      else
        let n = Unix.read t.fd buf off (Page.page_size - off) in
        if n = 0 then false else fill (off + n)
    in
    if not (fill 0) then `Unknown
    else
      match stored_cksum t pid with
      | None -> `Unknown
      | Some crc ->
        if Bytes_util.crc32 ~len:Page.page_size buf = crc then `Ok else `Corrupt
  end

let read_page t pid (dst : Bytes.t) =
  if pid < 0 || pid >= t.page_count then
    Error.raise_error Error.Page_out_of_bounds "read of page %d (of %d)" pid
      t.page_count;
  ignore (Unix.lseek t.fd (pid * Page.page_size) Unix.SEEK_SET);
  let rec fill off =
    if off < Page.page_size then begin
      let n = Unix.read t.fd dst off (Page.page_size - off) in
      if n = 0 then
        Error.raise_error Error.Storage_corruption "short read of page %d" pid;
      fill (off + n)
    end
  in
  fill 0;
  incr Counters.page_reads_cell;
  let crc = Bytes_util.crc32 ~len:Page.page_size dst in
  if pid < Bytes.length t.known && Bytes.get t.known pid = '\001' then begin
    if t.cksum.(pid) <> crc then begin
      Counters.bump Counters.checksum_fail;
      Error.raise_error Error.Corrupt_page
        "page %d checksum mismatch (stored %08x, computed %08x)" pid
        (t.cksum.(pid) land 0xFFFFFFFF) (crc land 0xFFFFFFFF)
    end;
    incr Counters.checksum_verify_cell
  end
  else begin
    (* pre-checksum file: adopt on first read *)
    record_cksum t pid crc;
    Counters.bump Counters.checksum_adopt
  end

let write_page t pid (src : Bytes.t) =
  if pid < 0 || pid >= t.page_count then
    Error.raise_error Error.Page_out_of_bounds "write of page %d (of %d)" pid
      t.page_count;
  ignore (Unix.lseek t.fd (pid * Page.page_size) Unix.SEEK_SET);
  (match Fault.hit ~len:Page.page_size write_site with
   | Fault.Proceed -> ()
   | Fault.Short_write k ->
     (* torn write: persist only a prefix, then die *)
     let rec drain off =
       if off < k then drain (off + Unix.write t.fd src off (k - off))
     in
     drain 0;
     Fault.crash write_site);
  let rec drain off =
    if off < Page.page_size then begin
      let n = Unix.write t.fd src off (Page.page_size - off) in
      drain (off + n)
    end
  in
  drain 0;
  record_cksum t pid (Bytes_util.crc32 ~len:Page.page_size src);
  Counters.bump Counters.page_writes

let allocate t =
  match t.free with
  | pid :: rest ->
    t.free <- rest;
    pid
  | [] ->
    let pid = t.page_count in
    t.page_count <- t.page_count + 1;
    (* extend the file so reads of the new page are valid *)
    ignore (Unix.lseek t.fd (pid * Page.page_size) Unix.SEEK_SET);
    let zero = Bytes.make Page.page_size '\000' in
    let rec drain off =
      if off < Page.page_size then
        drain (off + Unix.write t.fd zero off (Page.page_size - off))
    in
    drain 0;
    record_cksum t pid (Lazy.force zero_page_crc);
    pid

let free t pid = t.free <- pid :: t.free

(* Free-list persistence hooks for the catalog. *)
let free_list t = t.free
let set_free_list t l = t.free <- l
let set_page_count t n =
  (* used on recovery: page count from the checkpointed catalog may lag
     the physical file; trust the larger of the two *)
  if n > t.page_count then t.page_count <- n

let sync t =
  Fault.check sync_site;
  Unix.fsync t.fd;
  (* sidecar strictly after the data fsync (see the header comment) *)
  Sysutil.write_file_durable (cksum_path t.path) (serialize_cksum t)

let close t = Unix.close t.fd
