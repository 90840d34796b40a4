(** OS helpers for the durability-sensitive layers. *)

val monotonic : unit -> float
(** Non-decreasing clock in seconds, for measuring durations and
    deadlines.  Backed by [Unix.gettimeofday] clamped so wall-clock
    steps backwards can never produce negative intervals; use
    {!Metrics.now} when a log needs a real wall timestamp.
    Thread-safe. *)

val fsync_dir : string -> unit
(** Fsync a directory so a created/renamed/truncated entry survives a
    crash.  Errors (filesystems that refuse directory fsync) are
    swallowed. *)

val is_resource_exhaustion : exn -> bool
(** [true] for the errno family meaning "the machine ran out of a
    storage resource" — ENOSPC, EDQUOT (Linux errno 122, which OCaml
    reports as [EUNKNOWNERR]), EMFILE, ENFILE.  These are the errors
    that flip a node into degraded read-only mode rather than aborting
    a single transaction. *)

val write_file_durable : string -> string -> unit
(** Write a file via tmp + fsync + rename + directory fsync, so a crash
    leaves either the old content or the new, never a torn mix. *)

val rm_rf : string -> unit
(** Remove a file or directory tree ([rm -rf]); a missing path is not
    an error and symlinks are not followed. *)
