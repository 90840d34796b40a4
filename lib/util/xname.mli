(** Qualified names, shared by the XML substrate, the descriptive
    schema and the query compiler.  Equality and ordering use
    (uri, local); the prefix is kept for serialization fidelity. *)

type t = { prefix : string; uri : string; local : string }

val make : ?prefix:string -> ?uri:string -> string -> t

val local : t -> string
val uri : t -> string
val prefix : t -> string

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val matches : want:t -> t -> bool
(** The query-side name test: local parts equal, and an empty uri on
    [want] matches any namespace. *)

val to_string : t -> string
(** Display form: [prefix:local] when prefixed. *)

val to_clark : t -> string
(** Clark notation [{uri}local], for diagnostics. *)

val of_string : string -> t
(** Split on the first colon into prefix and local part. *)

val pp : Format.formatter -> t -> unit

val is_name_start : char -> bool
val is_name_char : char -> bool

val is_ncname : string -> bool
(** Simplified NCName check (ASCII name characters plus any byte above
    0x7f, accepting all well-formed UTF-8 names). *)
