(** The storage context threaded through node-level operations: the
    buffer manager plus the catalog a computation should see (an
    updater uses the live catalog; a snapshot reader gets the published
    committed catalog, which it shares with other readers and must not
    mutate), and the document lock of its transaction. *)

type t = { bm : Buffer_mgr.t; cat : Catalog.t; lock : string -> unit }
(** [lock name] takes the transaction's lock on document [name] in the
    mode the store was made for, raising [Lock_timeout] on a conflict;
    a reader's store, and the transactionless {!Database.store}, lock
    nothing. *)

val create : lock:(string -> unit) -> Buffer_mgr.t -> Catalog.t -> t

val document : t -> string -> Catalog.doc
(** Lock the document, then look it up ({!Catalog.get_document}).  Every
    site that turns a document name into storage goes through here or
    through [lock]. *)
