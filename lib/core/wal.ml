(* Write-ahead log (paper §6.4): redo-only page after-images.  Records
   are framed as [len:u32][tag:u8][payload][cksum:u32]; a torn tail is
   detected by the checksum and ignored by recovery.

   The WAL protocol: a transaction's after-images and its commit record
   are appended and fsynced before the commit is acknowledged.  A
   checkpoint record marks a point at which all committed state has
   been flushed to the data file; recovery replays only past the last
   checkpoint. *)

open Sedna_util

type record =
  | Begin of int (* txn id *)
  | Image of int * int * Bytes.t (* txn id, page id, after-image *)
  | Commit of int * string option (* txn id, marshaled catalog if changed *)
  | Abort of int
  | Checkpoint
  | Logical of int * string
      (* txn id, operation: audit record of older logs, never written by
         the engine and ignored by every reader *)

type t = {
  mutable fd : Unix.file_descr;
  path : string;
  mutable size : int;
  mutable epoch : int;
  (* trace marks: (position just past a traced commit's frames, trace
     id, parent span id), newest first, bounded — the replication
     sender attaches the marks covered by a batch so the standby's
     apply spans join the statement's trace.  In-memory only: marks
     are observability, not durability. *)
  mutable marks : (int * string * int) list;
  (* writer cursor: appends from concurrent committers serialize here
     so a transaction's multi-record group stays frame-contiguous *)
  mu : Mutex.t;
}

let max_marks = 256

(* fault-injection sites (crash-safety harness) *)
let append_site = Fault.site "wal.append"
let sync_site = Fault.site "wal.sync"
let reset_site = Fault.site "wal.reset"

(* The epoch (generation id) lives in a sidecar file next to the log.
   It is bumped whenever the log is created or reset (checkpoint
   truncation), so a standby streaming the log can tell "the bytes at
   position p changed identity" apart from "no new bytes yet" and
   re-seed from a fresh backup instead of applying frames from the
   wrong generation. *)
let epoch_path path = path ^ ".epoch"

let read_epoch path =
  let ep = epoch_path path in
  if not (Sys.file_exists ep) then 0
  else begin
    let ic = open_in_bin ep in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match int_of_string_opt (String.trim s) with Some n -> n | None -> 0
  end

let write_epoch path n = Sysutil.write_file_durable (epoch_path path) (string_of_int n)

let create path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (* the log file's directory entry itself must survive a crash *)
  Sysutil.fsync_dir (Filename.dirname path);
  let epoch = read_epoch path + 1 in
  write_epoch path epoch;
  { fd; path; size = 0; epoch; marks = []; mu = Mutex.create () }

(* FNV-1a, folded to 31 bits so the value survives an i32 round-trip
   without sign trouble.  The 32-bit state is never masked inside the
   loop: the low 32 bits of a product depend only on the low 32 bits of
   its factors, and the xor touches only the low 8, so one mask at the
   end yields the value of masking every step. *)
let checksum ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Wal.checksum";
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x01000193
  done;
  !h land 0x7FFFFFFF

let tag_of = function
  | Begin _ -> 1
  | Image _ -> 2
  | Commit _ -> 3
  | Abort _ -> 4
  | Checkpoint -> 5
  | Logical _ -> 6

let payload_len = function
  | Begin _ | Abort _ -> 4
  | Image (_, _, img) -> 8 + Bytes.length img
  | Commit (_, None) -> 8
  | Commit (_, Some cat) -> 8 + String.length cat
  | Checkpoint -> 0
  | Logical (_, op) -> 4 + String.length op

(* The record's whole frame, [len:u32][tag:u8][payload][cksum:u32], in
   one allocation: the payload is encoded where it will be written and
   checksummed where it lies. *)
let frame_of record =
  let n = payload_len record in
  let f = Bytes.create (9 + n) in
  Bytes_util.set_i32 f 0 n;
  Bytes_util.set_u8 f 4 (tag_of record);
  (match record with
   | Begin txn | Abort txn -> Bytes_util.set_i32 f 5 txn
   | Image (txn, pid, img) ->
     Bytes_util.set_i32 f 5 txn;
     Bytes_util.set_i32 f 9 pid;
     Bytes.blit img 0 f 13 (Bytes.length img)
   | Commit (txn, cat) ->
     Bytes_util.set_i32 f 5 txn;
     Bytes_util.set_i32 f 9 (if cat = None then 0 else 1);
     (match cat with
      | Some cs -> Bytes.blit_string cs 0 f 13 (String.length cs)
      | None -> ())
   | Checkpoint -> ()
   | Logical (txn, op) ->
     Bytes_util.set_i32 f 5 txn;
     Bytes.blit_string op 0 f 9 (String.length op));
  Bytes_util.set_i32 f (5 + n) (checksum ~off:5 ~len:n f);
  f

(* Smallest payload each tag decodes from; anything else is not a
   frame this log wrote.  Tag 6 ([Logical]) is no longer written, but
   logs from before that still carry it and must replay. *)
let min_payload = function
  | 1 | 4 | 6 -> 4
  | 2 | 3 -> 8
  | 5 -> 0
  | _ -> max_int

(* Decode the [n]-byte payload at [off] of a frame with this tag. *)
let decode_record b tag off n =
  let i32 k = Bytes_util.get_i32 b (off + k) in
  match tag with
  | 1 -> Begin (i32 0)
  | 2 -> Image (i32 0, i32 4, Bytes.sub b (off + 8) (n - 8))
  | 3 ->
    let cat = if i32 4 <> 0 then Some (Bytes.sub_string b (off + 8) (n - 8)) else None in
    Commit (i32 0, cat)
  | 4 -> Abort (i32 0)
  | 5 -> Checkpoint
  | _ -> Logical (i32 0, Bytes.sub_string b (off + 4) (n - 4))

(* Hold the writer cursor for [f]; unlocks on exception too (a torn
   fault raises {!Fault.Injected_crash} mid-append). *)
let with_writer t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let append_unlocked t record =
  let frame = frame_of record in
  let len = Bytes.length frame in
  (match Fault.hit ~len append_site with
   | Fault.Proceed -> ()
   | Fault.Short_write k ->
     (* torn append: persist only a prefix of the frame, then die; the
        checksum makes recovery drop the partial record *)
     let rec drain off =
       if off < k then drain (off + Unix.write t.fd frame off (k - off))
     in
     drain 0;
     Fault.crash append_site);
  let rec drain off =
    if off < len then drain (off + Unix.write t.fd frame off (len - off))
  in
  drain 0;
  t.size <- t.size + len

let append t record = with_writer t (fun () -> append_unlocked t record)

(* Append a transaction's records as one contiguous run of frames and
   return the log position just past them — the position a covering
   {!sync} must reach before the commit may be acknowledged.  Holding
   the writer cursor across the whole group is what keeps interleaved
   multi-record appends from concurrent committers frame-contiguous. *)
let append_group t records =
  with_writer t (fun () ->
      List.iter (append_unlocked t) records;
      t.size)

(* Run [f] with the log fixated: the writer cursor is held, so no
   append can start or be mid-frame and the file holds exactly [size]
   bytes while [f] copies it.  Returns the [(epoch, size)] the copy
   ends at.  The seed path resumes a standby from exactly that
   position: a copy that ended earlier would lose the frames between
   its end and the position, and one that ended later would make the
   standby replay those frames locally and then apply them again from
   the stream. *)
let fixate t f =
  with_writer t (fun () ->
      f ();
      (t.epoch, t.size))

let sync t =
  Fault.check sync_site;
  Unix.fsync t.fd;
  Counters.bump Counters.wal_syncs

(* The payload length of the frame at [pos] when it lies whole within
   the first [len] bytes of [b], is of a known kind and its checksum
   holds; [-1] at a torn tail or garbage. *)
let frame_at b pos len =
  if pos + 9 > len then -1
  else
    let n = Bytes_util.get_i32 b pos in
    if n < 0 || n > len - pos - 9 then -1
    else if n < min_payload (Bytes_util.get_u8 b (pos + 4)) then -1
    else if Bytes_util.get_i32 b (pos + 5 + n) <> checksum ~off:(pos + 5) ~len:n b
    then -1
    else n

(* The well-formed frames of [b] from [start] up to the first torn or
   garbage one, checksummed and decoded in place: each record paired
   with the position just past its frame. *)
let scan_bytes b ~start ~len =
  let rec go pos acc =
    let n = frame_at b pos len in
    if n < 0 then List.rev acc
    else
      let next = pos + 9 + n in
      go next ((decode_record b (Bytes_util.get_u8 b (pos + 4)) (pos + 5) n, next) :: acc)
  in
  go start []

(* Count the well-formed frames from [start] without decoding them,
   while the run stays within [max_bytes] of [start] (a first frame
   larger than that still counts): the count and the position past the
   last counted frame. *)
let walk_frames b ~start ~len ~max_bytes =
  let rec go pos count =
    let n = frame_at b pos len in
    if n < 0 || (count > 0 && pos + 9 + n - start > max_bytes) then (count, pos)
    else go (pos + 9 + n) (count + 1)
  in
  go start 0

(* The log file's bytes from [pos] to its end, and their count. *)
let load_file ?(pos = 0) ?(upto = max_int) path =
  In_channel.with_open_bin path (fun ic ->
      let len = max 0 (min (Int64.to_int (In_channel.length ic)) upto - pos) in
      In_channel.seek ic (Int64.of_int pos);
      (Bytes.unsafe_of_string (really_input_string ic len), len))

(* Read all well-formed records from the log file at [path]. *)
let read_all path =
  if not (Sys.file_exists path) then []
  else
    let b, len = load_file path in
    List.map fst (scan_bytes b ~start:0 ~len)

(* The Image and Commit records of committed transactions, in log
   order.  An Abort *after* a Commit undoes it: that sequence appears
   when the commit's fsync failed and the engine rolled the transaction
   back — it was never acknowledged, so replaying it would resurrect
   aborted state. *)
let committed records =
  let ok = Hashtbl.create 16 in
  List.iter
    (function
      | Commit (txn, _) -> Hashtbl.replace ok txn ()
      | Abort txn -> Hashtbl.remove ok txn
      | _ -> ())
    records;
  List.filter
    (function
      | Image (txn, _, _) | Commit (txn, _) -> Hashtbl.mem ok txn
      | _ -> false)
    records

(* Raw complete frames from [pos] onward for log shipping: the verbatim
   bytes of whole checksum-valid frames (at most [max_bytes] unless a
   single frame alone exceeds it), the record count, and the position
   past the last shipped frame.  Only the log's tail from [pos] is read.
   Shipping raw bytes keeps the standby's log byte-identical to the
   primary's, so positions agree on both sides and ordinary recovery
   can read the shipped log. *)
let stream_from ?upto path ~pos ~max_bytes =
  if not (Sys.file_exists path) then ("", 0, pos)
  else begin
    let b, len = load_file ~pos ?upto path in
    let count, upto = walk_frames b ~start:0 ~len ~max_bytes in
    (Bytes.sub_string b 0 upto, count, pos + upto)
  end

(* Decode a batch of raw shipped frames (as produced by
   {!stream_from}): each record with the offset just past its frame
   within the batch.  Trailing garbage is a protocol error upstream;
   here it is simply not decoded. *)
let records_of_frames s =
  let b = Bytes.unsafe_of_string s in
  scan_bytes b ~start:0 ~len:(String.length s)

(* Append raw pre-framed bytes verbatim (standby side of log shipping).
   The caller syncs; checksums were validated when the frames were cut
   from the primary's log. *)
let append_raw t s =
  with_writer t (fun () ->
      let len = String.length s in
      let b = Bytes.unsafe_of_string s in
      let rec drain off =
        if off < len then drain (off + Unix.write t.fd b off (len - off))
      in
      drain 0;
      t.size <- t.size + len)

(* Open an existing log, dropping any torn tail first: without the
   truncation, records appended after recovery would sit behind the
   garbage and be unreachable on the next recovery (lost commits). *)
let open_existing path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  let valid =
    let b, len = load_file path in
    snd (walk_frames b ~start:0 ~len ~max_bytes:max_int)
  in
  if valid < size then begin
    Unix.ftruncate fd valid;
    Unix.fsync fd;
    Sysutil.fsync_dir (Filename.dirname path);
    Counters.bump ~n:(size - valid) Counters.wal_truncated_bytes
  end;
  ignore (Unix.lseek fd valid Unix.SEEK_SET);
  let epoch =
    match read_epoch path with
    | 0 ->
      (* legacy log without a sidecar: adopt generation 1 *)
      write_epoch path 1;
      1
    | e -> e
  in
  { fd; path; size = valid; epoch; marks = []; mu = Mutex.create () }

(* Truncate the log after a checkpoint has made it redundant.  The file
   and its directory are fsynced so a crash immediately after the
   checkpoint cannot resurrect the stale tail. *)
let reset t =
  with_writer t @@ fun () ->
  Fault.check reset_site;
  Unix.close t.fd;
  let fd = Unix.openfile t.path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.fsync fd;
  Sysutil.fsync_dir (Filename.dirname t.path);
  t.fd <- fd;
  t.size <- 0;
  t.marks <- [];
  (* truncation first, epoch bump second: a crash in between leaves an
     empty log under the old epoch, which a standby still detects
     because its resume position exceeds the log size (Hole) *)
  t.epoch <- t.epoch + 1;
  write_epoch t.path t.epoch

let size t = t.size
let epoch t = t.epoch
let path t = t.path
let close t = Unix.close t.fd

(* ---- trace marks (observability, in-memory) ------------------------- *)

(* [pos] is the position just past the commit's frames — under group
   commit other committers may have appended behind it, so the caller
   passes the cursor returned by {!append_group} rather than reading
   the (possibly advanced) log end. *)
let mark_trace t ~pos ~trace ~span =
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  with_writer t (fun () -> t.marks <- take max_marks ((pos, trace, span) :: t.marks))

(* marks covered by the half-open WAL range (lo, hi] — i.e. the commits
   a batch of frames [lo, hi) completes *)
let marks_between t ~lo ~hi =
  List.filter (fun (pos, _, _) -> pos > lo && pos <= hi) (List.rev t.marks)
