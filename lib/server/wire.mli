(** Length-prefixed binary wire protocol between {!Server_client} and
    {!Server}: a u32 frame length, then an opcode byte and its body.
    See wire.ml for the exact frame grammar. *)

type request =
  | Open of string  (** open a session against the named database *)
  | Execute of string  (** run one statement (query / update / DDL / BEGIN…) *)
  | Close

type response =
  | Opened of int  (** session id *)
  | Updated of int  (** affected-node count of an update *)
  | Message of string  (** DDL / transaction-control confirmation *)
  | Chunk of { last : bool; data : string }
      (** a slice of a query's serialized rows; an [Execute] that ran a
          query is answered by chunks up to and including the [last] one *)
  | Bye
  | Err of { code : string; msg : string }

(** {1 Replication extension}

    Spoken on the primary's dedicated replication port.  The standby
    drives a pull loop: each {!repl_request.Pull} names the WAL epoch
    and frame-boundary position it wants next — thereby acknowledging
    everything before it. *)

type repl_request =
  | Pull of { cluster : int; epoch : int; pos : int; max_bytes : int }
      (** [cluster] is the standby's fencing epoch: a deposed primary
          learns of its deposition from the very next pull *)
  | Seed_request  (** ship a full backup (the standby must re-seed) *)
  | Page_request of { cluster : int; pid : int }
      (** single-page repair fetch for the scrubber; [cluster] is the
          requester's fencing epoch, checked on both ends so a fenced
          node never serves (or installs) repairs across a promotion *)

type trace_mark = { mk_pos : int; mk_trace : string; mk_span : int }
(** A traced commit inside a batch: WAL position right after the
    commit, the statement's trace ID and the parent span the standby's
    apply span should hang under. *)

type repl_response =
  | Batch of {
      cluster : int;
      epoch : int;
      next_pos : int;
      frames : string;
      marks : trace_mark list;
    }
      (** raw WAL frames [pos, next_pos) of the requested epoch *)
  | Heartbeat of { cluster : int; epoch : int; pos : int }
      (** no new frames; [pos] is the primary's current WAL end *)
  | Hole of { cluster : int; epoch : int }
      (** the requested (epoch, pos) is no longer servable — the log
          was truncated by a checkpoint; the standby must re-seed *)
  | Seed_file of { name : string; data : string }
  | Seed_done of { cluster : int; epoch : int; pos : int }
      (** seed complete; resume streaming from (epoch, pos) *)
  | Fenced of { cluster : int }
      (** the pull carried a higher cluster epoch than the sender held:
          the sender has demoted itself; this link is dead *)
  | Page_reply of { cluster : int; pid : int; page : string option }
      (** answer to {!repl_request.Page_request}; [None] when the page
          is out of range or unreadable on the serving side *)

val max_frame : int

val chunk_bytes : int
(** The most bytes of rows one {!response.Chunk} carries (64 KiB). *)

exception Protocol_error of string

exception Disconnected of string
(** The peer died mid-conversation: [ECONNRESET], [EPIPE], EOF inside
    a frame — all normalized to this one exception so retry
    classification upstream never matches errno lists. *)

val write_request : ?trace:string -> ?epoch:int -> Unix.file_descr -> request -> unit
(** [trace] is a ["trace_id:parent_span_id"] context header
    ({!Sedna_util.Span.wire_of}); [epoch] the sender's highest observed
    cluster epoch.  Both ride in the same frame. *)

val read_request : Unix.file_descr -> string option * int option * request
(** Returns the trace-context and cluster-epoch headers, if the client
    sent them, alongside the request.
    @raise End_of_file on a cleanly closed peer. *)

val write_response : ?epoch:int -> Unix.file_descr -> response -> unit
val read_response : Unix.file_descr -> int option * response

val write_rows : ?epoch:int -> Unix.file_descr -> string -> unit
(** A query's serialized rows as the reply to its [Execute]: chunks of
    at most {!chunk_bytes} written back to back, the final one [last]
    (an empty result is one empty last chunk). *)

val write_repl_request : Unix.file_descr -> repl_request -> unit
val read_repl_request : Unix.file_descr -> repl_request
val write_repl_response : Unix.file_descr -> repl_response -> unit
val read_repl_response : Unix.file_descr -> repl_response
