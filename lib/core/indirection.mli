(** The indirection table (paper §4.1, §4.1.2).

    A cell holds a direct pointer to a node descriptor and never moves:
    the cell's address is the {e node handle} — unique, O(1) to follow,
    and immutable across descriptor relocation.  Parent pointers in
    descriptors also go through cells, which is what makes relocation a
    constant-field operation. *)

val alloc : Buffer_mgr.t -> Catalog.t -> Xptr.t
(** Claim a cell (growing the table by a page when the free list is
    empty). *)

val free : Buffer_mgr.t -> Catalog.t -> Xptr.t -> unit

val get : Buffer_mgr.t -> Xptr.t -> Xptr.t
(** Dereference a handle to the current descriptor address.  Raises
    [Storage_corruption] on a dangling handle. *)

val set : Buffer_mgr.t -> Xptr.t -> Xptr.t -> unit
(** Point the handle at a (new) descriptor address: the single write
    that re-parents every child of a moved node. *)

val cells_per_page : int

(** {1 Free-list tagging}

    A free cell holds the next free cell's address with the low bit
    set; descriptors are 8-aligned, so a tagged value is never a
    descriptor address.  Exposed for tests. *)

val tag : Xptr.t -> Xptr.t
val untag : Xptr.t -> Xptr.t
val is_tagged : Xptr.t -> bool
