(* Small OS helpers shared by the durability-sensitive layers. *)

(* ---- monotonic clock ------------------------------------------------ *)

(* Durations (span timing, latency histograms, deadlines) must not go
   negative or jump when the wall clock is stepped by NTP or an
   operator.  No monotonic-clock binding is available in this tree, so
   we clamp [Unix.gettimeofday] to be non-decreasing: a backward step
   is absorbed into [skew] and replayed on every later reading, which
   keeps the reported clock moving forward at (roughly) real-time rate.
   Forward jumps still pass through — they inflate at most one interval,
   which is the best a userspace clamp can do.  Mutex-protected because
   server workers and the replication threads all sample it. *)

let mono_mu = Mutex.create ()
let mono_last = ref neg_infinity
let mono_skew = ref 0.0

let monotonic () =
  Mutex.lock mono_mu;
  let raw = Unix.gettimeofday () +. !mono_skew in
  let t =
    if raw < !mono_last then begin
      (* wall clock stepped backwards: fold the step into the skew *)
      mono_skew := !mono_skew +. (!mono_last -. raw);
      !mono_last
    end
    else begin
      mono_last := raw;
      raw
    end
  in
  Mutex.unlock mono_mu;
  t

(* Fsync a directory so a just-created/renamed/truncated entry survives
   a crash (POSIX requires syncing the parent directory for that).
   Some filesystems refuse fsync on directory descriptors; that is a
   loss of durability we cannot fix, so errors are swallowed. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

(* Resource-exhaustion classification, shared by every write/sync call
   site instead of per-site errno matching.  EDQUOT has no constructor
   in [Unix.error]; on Linux it surfaces as [EUNKNOWNERR 122]. *)
let is_resource_exhaustion = function
  | Unix.Unix_error ((Unix.ENOSPC | Unix.EMFILE | Unix.ENFILE), _, _) -> true
  | Unix.Unix_error (Unix.EUNKNOWNERR e, _, _) -> e = 122 (* EDQUOT *)
  | _ -> false

(* Write [data] to [path] atomically-ish: tmp file, fsync, rename,
   fsync the directory.  A crash leaves either the old file or the new
   one, never a torn mix. *)
let write_file_durable path data =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let len = String.length data in
  let buf = Bytes.unsafe_of_string data in
  let rec drain off =
    if off < len then drain (off + Unix.write fd buf off (len - off))
  in
  drain 0;
  Unix.fsync fd;
  Unix.close fd;
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

(* Remove a file or directory tree; a missing path is not an error.
   Symlinks are removed, never followed. *)
let rm_rf path =
  let rec go p =
    match (Unix.lstat p).Unix.st_kind with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
    | Unix.S_DIR ->
      Array.iter (fun n -> go (Filename.concat p n)) (Sys.readdir p);
      Unix.rmdir p
    | _ -> Unix.unlink p
  in
  go path
