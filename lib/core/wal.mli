(** Write-ahead log (paper §6.4): redo-only page after-images.

    The WAL protocol: a transaction's after-images and its commit
    record are appended and fsynced before commit returns.  Records are
    checksummed; {!read_all} stops at the first torn/corrupt frame, so
    a crash mid-append loses only the unacknowledged tail. *)

type record =
  | Begin of int  (** transaction id *)
  | Image of int * int * Bytes.t  (** txn, page id, after-image *)
  | Commit of int * string option
      (** txn, marshaled catalog when it changed during the txn *)
  | Abort of int
  | Checkpoint
  | Logical of int * string
      (** audit record (txn, operation) that older logs carry: still
          decoded so they replay, but the engine no longer writes it
          and every reader skips it *)

type t

val checksum : ?off:int -> ?len:int -> Bytes.t -> int
(** The frame checksum: FNV-1a over [len] bytes from [off] (defaults:
    the whole buffer), folded to 31 bits.  Raises [Invalid_argument]
    when the range does not lie within the buffer. *)

val create : string -> t
(** Create/truncate the log file at this path. *)

val open_existing : string -> t
(** Open for appending (recovery reads via {!read_all}). *)

val append : t -> record -> unit

val append_group : t -> record list -> int
(** Append the records as one contiguous run of frames under the writer
    cursor — concurrent committers cannot interleave within the group —
    and return the position just past them, the position a covering
    {!sync} must reach before the commit is acknowledged. *)

val sync : t -> unit

val read_all : string -> record list
(** All well-formed records from the start of the file; a torn tail is
    silently dropped. *)

val committed : record list -> record list
(** The [Image] and [Commit] records of committed transactions, in log
    order.  An [Abort] after a [Commit] undoes it (the commit's fsync
    failed and the engine rolled back): that transaction is dropped. *)

val reset : t -> unit
(** Truncate after a checkpoint made the log redundant.  Bumps the
    {!epoch}: positions handed out before the reset are invalid and a
    streaming consumer must re-seed. *)

val size : t -> int
val path : t -> string
val close : t -> unit

(** {1 Streaming (log shipping)}

    Positions are byte offsets at frame boundaries; [0] and any
    position returned by {!stream_from} are valid.  A position is only
    meaningful together with the log's {!epoch} —
    {!reset} (checkpoint truncation) and {!create} bump the epoch, and
    a consumer holding a position from an older epoch must discard its
    state and re-seed from a full backup. *)

val epoch : t -> int
(** Generation id of the open log. *)

val fixate : t -> (unit -> unit) -> int * int
(** [fixate t f] runs [f] under the writer cursor — no append can start
    or be mid-frame, so the log file holds exactly [size] bytes while
    [f] runs — and returns [(epoch, size)].  The backup/seed path copies
    the log inside [f], so the copy ends exactly at the returned
    position. *)

val read_epoch : string -> int
(** Epoch recorded in the sidecar file next to the log at this path;
    [0] when none exists yet. *)

val stream_from : string -> pos:int -> max_bytes:int -> string * int * int
(** [(frames, count, pos')]: verbatim bytes of whole checksum-valid
    frames starting at [pos] — at most [max_bytes] unless the first
    frame alone is larger — plus the record count and the position past
    the last included frame.  [count = 0] means no new complete frames
    at this position.  Reads only the log's tail from [pos]. *)

val records_of_frames : string -> (record * int) list
(** Decode a batch of raw frames as produced by {!stream_from}; each
    record is paired with the offset just past its frame within the
    batch. *)

val append_raw : t -> string -> unit
(** Append verbatim pre-framed bytes (standby side of log shipping);
    call {!sync} afterwards for durability. *)

(** {1 Trace marks}

    In-memory, bounded observability metadata: a traced statement's
    commit records its trace context against the WAL position just past
    its frames, and the replication sender forwards the marks covered
    by each shipped batch so standby apply spans join the right
    trace. *)

val mark_trace : t -> pos:int -> trace:string -> span:int -> unit
(** Mark [pos] (the cursor returned by {!append_group}, just past the
    commit's frames) as the commit point of this trace. *)

val marks_between : t -> lo:int -> hi:int -> (int * string * int) list
(** Marks with position in (lo, hi], oldest first — the traced commits
    completed by shipping frames [lo, hi). *)
