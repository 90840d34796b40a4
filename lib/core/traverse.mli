(** Axis evaluation over the storage (paper §4.1, §5).

    Two styles coexist: pointer traversal (direct sibling/child
    pointers, indirect parent), and schema-driven scans for descending
    axes — locate the matching schema nodes first, then scan only their
    block chains, filtering with the numbering-scheme ancestor test.
    Sequences are lazy so the executor can pipeline. *)

type test = {
  t_kind : Catalog.kind option;  (** [None] = any principal kind *)
  t_name : Sedna_util.Xname.t option;
      (** [None] = wildcard; names match as {!Sedna_util.Xname.matches}
          (an empty uri matches any namespace) *)
}

val any_test : test
val element_test : Sedna_util.Xname.t option -> test

val snode_matches : test -> Catalog.snode -> bool
val node_matches : Store.t -> test -> Node.desc -> bool

(** {1 Pointer axes} *)

val self : Store.t -> Node.desc -> Node.desc Seq.t
val parent : Store.t -> Node.desc -> Node.desc Seq.t
val ancestors : Store.t -> Node.desc -> Node.desc Seq.t
val ancestor_or_self : Store.t -> Node.desc -> Node.desc Seq.t
val children : Store.t -> Node.desc -> Node.desc Seq.t
val attributes : Store.t -> Node.desc -> Node.desc Seq.t
val following_siblings : Store.t -> Node.desc -> Node.desc Seq.t

val preceding_siblings : Store.t -> Node.desc -> Node.desc Seq.t
(** In reverse document order, as the axis requires. *)

val descendants_walk : Store.t -> Node.desc -> Node.desc Seq.t
(** Subtree walk in document order (the naive strategy benches E9
    compare against). *)

val descendant_or_self_walk : Store.t -> Node.desc -> Node.desc Seq.t

val following : Store.t -> Node.desc -> Node.desc Seq.t
val preceding : Store.t -> Node.desc -> Node.desc Seq.t

(** {1 Schema-driven scans} *)

val scan_snode : Store.t -> Catalog.snode -> Node.desc Seq.t
(** All descriptors of one schema node; block-chain order = document
    order. *)

val merge_by_doc_order :
  Store.t -> Node.desc Seq.t list -> Node.desc Seq.t
(** k-way merge of document-ordered sequences by label. *)

val descendants_schema :
  Store.t -> ?test:test -> Node.desc -> Node.desc Seq.t
(** The descendant axis via the descriptive schema: scans only matching
    schema nodes' chains, filters by the label ancestor test, merges.
    Nodes that cannot match are never fetched (paper §4.1: the schema
    is "a naturally built index"). *)

val children_schema : Store.t -> ?test:test -> Node.desc -> Node.desc Seq.t
(** The children matching [test] (default: any principal kind), via the
    parent's per-schema first-child pointers of the matching child
    schema nodes, merged by label when several match: children of other
    schema nodes are never fetched.  An attribute test selects
    attributes.  Used by the child step with a name test and by index
    path walks. *)

(** {1 Key chains}

    A value predicate [P[K op v]] over a structural path scans the block
    chain of [K]'s schema node and merges the matches with [P]'s chain
    (path partitioning: the schema says which chains hold the keys and
    their owners). *)

val ancestors_in_chain :
  Store.t -> Catalog.snode -> Node.desc Seq.t -> Node.desc Seq.t
(** [ancestors_in_chain st p keys]: for document-ordered [keys] from
    [p]'s schema subtree, their ancestors among [p]'s nodes, in
    document order without duplicates.  Walks [p]'s block chain forward
    by label, skipping blocks that cannot hold an ancestor; reads no
    indirection cell. *)

val next_in_document : Store.t -> Node.desc -> Node.desc option

val filter_test : Store.t -> test -> Node.desc Seq.t -> Node.desc Seq.t
