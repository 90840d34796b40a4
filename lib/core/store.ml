(* The storage context threaded through node-level operations: the
   buffer manager, the catalog, and the document lock of the
   transaction the computation runs in.  Every name a statement turns
   into storage passes [lock] first (paper §6.2: document
   granularity). *)

type t = { bm : Buffer_mgr.t; cat : Catalog.t; lock : string -> unit }

let create ~lock bm cat = { bm; cat; lock }

let document st name =
  st.lock name;
  Catalog.get_document st.cat name
