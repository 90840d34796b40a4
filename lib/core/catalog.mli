(** The database catalog: descriptive schemas, the document and
    collection registries, index definitions, and allocation state for
    the text store and the indirection table.

    The descriptive schema (paper §4.1) is a relaxed DataGuide: every
    path in a document has exactly one path in the schema, so it is a
    tree.  It is generated from data and maintained incrementally —
    unlike a prescriptive DTD/XML-Schema it is always accurate and
    always available.  Every schema node points to the block chain that
    stores its nodes, making the schema "a naturally built index" for
    path evaluation.

    The catalog's persistent form is a Marshal blob carried by commit
    records (when it changed) and checkpoints, keeping recovery
    consistent with the replayed pages. *)

type kind = Document | Element | Attribute | Text | Comment | Pi

val kind_code : kind -> int
val kind_name : kind -> string

type snode = {
  id : int;
  kind : kind;
  name : Sedna_util.Xname.t option;
  mutable parent_id : int;  (** -1 for document roots *)
  mutable children : snode list;  (** order of first appearance *)
  mutable child_slot : int;
      (** this node's slot index in its parent's element descriptors *)
  mutable first_block : Xptr.t;
  mutable last_block : Xptr.t;
  mutable node_count : int;
  mutable block_count : int;
}

type index_kind = String_index | Number_index

type index_def = {
  idx_name : string;
  idx_doc : string;
  idx_path : string list;  (** element path below the root element *)
  idx_key_path : string list;  (** path from indexed node to the key *)
  idx_kind : index_kind;
  mutable idx_root : Xptr.t;  (** B-tree root *)
}

type doc = {
  doc_name : string;
  mutable in_collection : string option;
  schema_root_id : int;
  mutable doc_indir : Xptr.t;  (** the document node's handle *)
}

module Text_space : Hashtbl.S with type key = Xptr.t
(** The text store's free map.  Iterates in the same order as a table
    keyed by the pages' 64-bit on-page values, so text placement does
    not depend on the in-memory pointer representation. *)

type t = {
  mutable next_snode_id : int;
  snodes : (int, snode) Hashtbl.t;
  documents : (string, doc) Hashtbl.t;
  doc_roots : (int, string) Hashtbl.t;
      (** schema root id -> document name, kept by {!add_document} and
          {!remove_document} *)
  collections : (string, string list) Hashtbl.t;
  indexes : (string, index_def) Hashtbl.t;
  text_space : int Text_space.t;  (** text page -> free bytes *)
  mutable indir_free_head : Xptr.t;
  mutable indir_pages : Xptr.t list;
  mutable dirty : bool;
}

val create : unit -> t

val mark_dirty : t -> unit
val is_dirty : t -> bool
val clear_dirty : t -> unit

(** {1 Schema} *)

val snode_by_id : t -> int -> snode
val parent_snode : t -> snode -> snode option

val new_snode :
  t -> parent:snode option -> kind:kind -> name:Sedna_util.Xname.t option ->
  snode

val find_or_add_child :
  t -> snode -> kind:kind -> name:Sedna_util.Xname.t option -> snode * bool
(** The incremental maintenance step: the child schema node for a
    (kind, name), created on first appearance ([true] = new). *)

val find_child :
  snode -> kind:kind -> name:Sedna_util.Xname.t option -> snode option

val schema_descendants : snode -> snode list
(** Preorder, excluding the node itself. *)

val schema_size : snode -> int
val schema_path : t -> snode -> string list

(** {1 Documents and collections} *)

val add_document : t -> name:string -> schema_root_id:int -> doc
val find_document : t -> string -> doc option
val get_document : t -> string -> doc
(** Raises [No_such_document]. *)

val document_of_schema_root : t -> int -> doc option
(** The document whose document node belongs to the given schema root:
    resolves a stored node's document from its tree's root, without
    scanning the registry. *)

val remove_document : t -> string -> unit
val document_names : t -> string list

val add_collection : t -> string -> unit
val collection_documents : t -> string -> string list
val add_document_to_collection : t -> collection:string -> doc:string -> unit
val collection_names : t -> string list
val remove_collection : t -> string -> unit

(** {1 Indexes} *)

val add_index : t -> index_def -> unit
val find_index : t -> string -> index_def option
val get_index : t -> string -> index_def
val remove_index : t -> string -> unit
val indexes_for_document : t -> string -> index_def list

(** {1 Schema path resolution} *)

val snode_matches_name : Sedna_util.Xname.t -> snode -> bool
(** Element-name match with query-side namespace leniency: an empty uri
    on the wanted name matches any namespace. *)

val resolve_steps :
  t -> root:snode -> (bool * Sedna_util.Xname.t) list -> snode list
(** Resolve a structural path against the schema tree ([true] = a
    descendant step, [false] = a child step).  Main-memory only; result
    sorted by schema-node id, duplicate-free. *)

val index_target_snodes : t -> index_def -> snode list
(** The schema nodes an index's element path covers (empty if the
    indexed document does not exist). *)

(** {1 Allocation state} *)

val text_space_set : t -> Xptr.t -> int -> unit
val text_space_find : t -> need:int -> Xptr.t option

(** {1 Persistence} *)

type persistent = {
  p_catalog : t;
  p_page_count : int;
  p_free_pages : int list;
}

val format_tag : string
(** Prefix of every serialized catalog: names the in-memory layout the
    Marshal image after it was written with. *)

val serialize : t -> page_count:int -> free_pages:int list -> string

val deserialize : string -> persistent
(** Raises [Storage_corruption] (SE-STORAGE-CORRUPTION) on a blob that
    does not start with {!format_tag} — a [catalog.sdb] or WAL commit
    record from an incompatible version — instead of unmarshaling it. *)
