(** Value indexes (DDL: CREATE INDEX): a path of element names below a
    document's root selects the indexed nodes; a second path selects
    the key value under each.  Entries map encoded keys to node
    handles. *)

val create :
  Store.t ->
  name:string ->
  doc:string ->
  path:string list ->
  key_path:string list ->
  kind:Catalog.index_kind ->
  Catalog.index_def
(** Register and build the index (fails if the name exists). *)

val drop : Store.t -> name:string -> unit

val build : Store.t -> Catalog.index_def -> unit
(** (Re)build from the document's current content. *)

val lookup_string : Store.t -> Catalog.index_def -> string -> Xptr.t list
val lookup_number : Store.t -> Catalog.index_def -> float -> Xptr.t list

val range_number :
  Store.t -> Catalog.index_def -> ?lo:float -> ?hi:float -> unit -> Xptr.t list

val range_string :
  Store.t -> Catalog.index_def -> ?lo:string -> ?hi:string -> unit -> Xptr.t list
(** Inclusive lexicographic range over a string index. *)

val entries_for :
  Store.t -> Catalog.index_def -> Node.desc -> (string * Xptr.t) list
(** The (key, handle) pairs a document currently contributes, sorted
    and duplicate-free: what a full build inserts.  Path steps are
    "name" (child elements; an empty namespace matches any) and "@name"
    (attributes by local name), walked through the per-schema child
    pointers. *)

val diff_entries : 'a list -> 'a list -> 'a list * 'a list
(** For two sorted lists, the elements only in the first and those only
    in the second, each in order. *)

val with_refresh : Store.t -> Node.handle -> (unit -> 'a) -> 'a
(** [with_refresh st anchor f] runs the mutation [f], which changes
    only nodes strictly below [anchor] and leaves [anchor] itself in
    place, and keeps every index on the anchor's document up to date.
    The affected targets are found from the anchor's ancestor chain and
    the index path below it, before and after [f]; only the pairs that
    differ are deleted from or inserted into the B-tree. *)
