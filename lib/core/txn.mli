(** Transaction state (paper §6).  Before-images captured at first
    write give atomicity (abort) and serve snapshot readers; the
    after-images derived from them at commit give durability through
    the WAL.  Lifecycle is driven by {!Database}. *)

type status = Active | Committed | Aborted

type t = {
  id : int;
  read_only : bool;
  snapshot_ts : int;  (** the snapshot a read-only transaction reads *)
  reader_catalog : Catalog.t option;
      (** the published committed catalog a reader began with, shared
          with every reader of that publication and never mutated;
          consistent with its snapshot *)
  mutable status : status;
  mutable locks : (string * Lock_mgr.mode) list;
      (** document locks held, one entry per document (strict 2PL:
          held while the transaction is active; see
          {!Database.lock_exn}) *)
  dirty : (int, Bytes.t) Hashtbl.t;  (** page id -> before-image *)
  cat_backup : string;  (** catalog state at begin, for abort *)
  fs_page_count : int;
  fs_free : int list;
}

val make :
  id:int ->
  read_only:bool ->
  snapshot_ts:int ->
  reader_catalog:Catalog.t option ->
  cat_backup:string ->
  fs_page_count:int ->
  fs_free:int list ->
  t
(** Fresh [Active] transaction. *)

val mark_committed : t -> unit
(** Flip to [Committed].  State cleanup (WAL, versions, leaving the
    active table — which ends the locks) stays with {!Database}. *)

val mark_aborted : t -> unit
(** Flip to [Aborted]. *)

val is_active : t -> bool
val touched : t -> int -> bool
val before_image : t -> int -> Bytes.t option
val record_write : t -> pid:int -> image:Bytes.t -> unit
val dirty_pages : t -> (int * Bytes.t) list
