(** Database pointers: 64-bit addresses in the Sedna Address Space
    (paper §4.2).  The high 32 bits are the layer number, the low 32
    bits the byte address within the layer.  The same representation is
    used in main and in secondary memory — the property that eliminates
    pointer swizzling.

    In memory a pointer is an immediate 63-bit [int], so layers must stay
    below 2^31; on a page it occupies the same 8 little-endian bytes as
    the 64-bit value (see {!get} and {!set}). *)

type t [@@immediate]

val null : t
(** The reserved null pointer (layer 0, offset 0 — the master page is
    never addressed through node pointers). *)

val is_null : t -> bool

val make : layer:int -> addr:int -> t
(** [make ~layer ~addr] — [addr] is the byte address within the layer. *)

val layer : t -> int
val addr : t -> int

val page_id : t -> int
(** Global page index across the whole address space: the key used by
    the buffer table, the page file, the WAL and the version store. *)

val page_offset : t -> int
(** Byte offset within the containing page. *)

val page_start : t -> t
(** Address of the first byte of the containing page. *)

val of_page_id : int -> t

val add : t -> int -> t
(** Byte-offset arithmetic within a layer. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val to_int64 : t -> int64
(** The 64-bit value with the layer in the high half: what {!set}
    writes to a page. *)

val of_int64 : int64 -> t

val get : Bytes.t -> int -> t
(** [get b off] decodes the 8 little-endian bytes at [off]. *)

val set : Bytes.t -> int -> t -> unit
(** [set b off p] encodes [p] as 8 little-endian bytes at [off]. *)

val pp : Format.formatter -> t -> unit
