(** Little-endian fixed-width accessors over [Bytes], shared by every
    on-page structure.  Offsets are byte offsets within the page. *)

val get_u8 : Bytes.t -> int -> int
val set_u8 : Bytes.t -> int -> int -> unit
val get_u16 : Bytes.t -> int -> int
val set_u16 : Bytes.t -> int -> int -> unit
val get_i32 : Bytes.t -> int -> int
val set_i32 : Bytes.t -> int -> int -> unit
val get_i64 : Bytes.t -> int -> int64
val set_i64 : Bytes.t -> int -> int64 -> unit
val get_string : Bytes.t -> int -> int -> string
val set_string : Bytes.t -> int -> string -> unit
val zero : Bytes.t -> int -> int -> unit
val get_float : Bytes.t -> int -> float
val set_float : Bytes.t -> int -> float -> unit

val crc32 : ?off:int -> ?len:int -> Bytes.t -> int
(** CRC-32 (IEEE, reflected polynomial) of [len] bytes starting at
    [off] (defaults: the whole buffer).  Result fits in 32 bits.
    Computed eight bytes per step (slicing-by-8); the value is the
    classic bytewise CRC's.  Raises [Invalid_argument] when the range
    does not lie within the buffer. *)
