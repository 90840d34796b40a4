(** The storage context threaded through node-level operations: the
    buffer manager plus the catalog a computation should see (an
    updater uses the live catalog; a snapshot reader gets the published
    committed catalog, which it shares with other readers and must not
    mutate). *)

type t = { bm : Buffer_mgr.t; cat : Catalog.t }

val create : Buffer_mgr.t -> Catalog.t -> t
