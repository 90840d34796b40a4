(** The buffer manager and Sedna's memory-management mechanism
    (paper §4.2, Figure 4).

    The software VAS: one slot per in-layer page.  Dereferencing a
    database pointer whose layer matches the slot's current layer is
    the fast path — an array load plus an equality check, i.e. the cost
    of an ordinary pointer.  A mismatch or an empty slot is a "memory
    fault" serviced by the pool (clock replacement over the page file).

    All page access goes through typed accessors so no raw frame ever
    outlives an eviction; [with_page] pins a frame for bulk access. *)

type t

val create : ?frames:int -> File_store.t -> t
(** [frames] is the pool size (default 256 pages).  A frame's page
    buffer is allocated when the frame first holds a page. *)

val store : t -> File_store.t
val frame_count : t -> int

val occupancy : t -> int
(** Frames currently holding a page (the buffer-pool occupancy
    gauge); at most {!frame_count}. *)

val set_write_hook : t -> (int -> unit) -> unit
(** Called with the page id before any modification: the transaction
    layer captures before-images here. *)

val set_read_overlay : t -> (int -> Bytes.t option) -> unit
(** Snapshot view for read-only transactions: when the overlay returns
    an image for a page id, reads are served from it. *)

val clear_read_overlay : t -> unit

val set_use_vas : t -> bool -> unit
(** Ablation switch (bench E7): [false] disables the equality mapping
    so every hit pays the hash-table lookup — the swizzling baseline. *)

(** {1 Typed page accessors}

    Each call performs one dereference (fast path or fault). *)

val read_u8 : t -> Xptr.t -> int
val read_u16 : t -> Xptr.t -> int
val read_i32 : t -> Xptr.t -> int
val read_i64 : t -> Xptr.t -> int64
val read_xptr : t -> Xptr.t -> Xptr.t
val read_string : t -> Xptr.t -> int -> string
(** A zero-length read touches no page. *)

val write_u8 : t -> Xptr.t -> int -> unit
val write_u16 : t -> Xptr.t -> int -> unit
val write_i32 : t -> Xptr.t -> int -> unit
val write_i64 : t -> Xptr.t -> int64 -> unit
val write_xptr : t -> Xptr.t -> Xptr.t -> unit
val write_string : t -> Xptr.t -> string -> unit
(** Writing [""] touches no page. *)

val with_page : ?rw:bool -> t -> Xptr.t -> (Bytes.t -> 'a) -> 'a
(** Bulk access to the page containing the pointer, pinned for the
    duration of the closure.  [rw:true] marks it dirty and fires the
    write hook. *)

(** {1 Page lifecycle} *)

val allocate_page : t -> Xptr.t
(** Claim a fresh page (zeroed, mapped, no disk read). *)

val free_page : t -> Xptr.t -> unit

val page_image : t -> int -> Bytes.t
(** Copy of the current content of a page (before/after images). *)

val set_page_image : t -> int -> Bytes.t -> unit
(** Overwrite a page wholesale (version install, abort, recovery). *)

val overwrite_page : t -> int -> Bytes.t -> unit
(** Recovery redo: install the image without faulting the on-disk page
    in first (it may be torn or checksum-stale from the crash). *)

val residency : t -> int -> [ `Absent | `Clean | `Dirty ]
(** Whether the page is resident in the pool, without faulting it in.
    The scrubber picks its repair source from this. *)

val repair_page : t -> int -> Bytes.t -> unit
(** Scrubber repair: install a known-good image without reading the
    corrupt on-disk page, write it through to the data file, and leave
    the frame clean.  Call under the engine lock. *)

(** {1 Pinning and flushing} *)

val pin_pid : t -> int -> unit
(** Transactions pin uncommitted-dirty pages: redo-only logging means
    they must never reach the data file before commit. *)

val unpin_pid : t -> int -> unit

val flush_all : t -> int
(** Write every dirty frame to the data file and sync (checkpoint);
    returns the number of frames written. *)

val drop_all : t -> unit
(** Drop all frames without writing — crash simulation in tests. *)
