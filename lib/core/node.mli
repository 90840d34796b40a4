(** Typed view over stored node descriptors.

    A {!handle} (the node's indirection-cell address) is the stable
    identity of a node (paper §4.1.2): it survives descriptor
    relocation.  A {!desc} (descriptor address) is the node's current
    physical location — valid only until the next relocation, which is
    why update code re-derives descriptors from handles. *)

type desc = Xptr.t
type handle = Xptr.t

val snode : Store.t -> desc -> Catalog.snode
(** The descriptive-schema node governing this descriptor (from its
    block header). *)

val kind : Store.t -> desc -> Catalog.kind
val name : Store.t -> desc -> Sedna_util.Xname.t option

val handle : Store.t -> desc -> handle
val by_handle : Store.t -> handle -> desc

val label : Store.t -> desc -> Sedna_nid.Nid.t

val parent : Store.t -> desc -> desc option
(** Follows the indirect parent pointer through the indirection table. *)

val left_sibling : Store.t -> desc -> desc option
val right_sibling : Store.t -> desc -> desc option

val text_value : Store.t -> desc -> string
(** Value of a text-carrying node (text/attribute/comment/PI); [""]
    when absent. *)

val first_child_any : Store.t -> desc -> desc option
(** First node of the sibling chain, attributes included. *)

val first_child : Store.t -> desc -> desc option
(** First non-attribute child. *)

val next_sibling_no_attr : Store.t -> desc -> desc option

val children : Store.t -> desc -> desc list
(** All children in document order, attributes excluded. *)

val attributes : Store.t -> desc -> desc list

val first_child_of_schema : Store.t -> desc -> Catalog.snode -> desc option
(** The per-schema first-child pointer — the schema-driven fast path. *)

val children_of_schema : Store.t -> desc -> Catalog.snode -> desc Seq.t
(** Children under one schema node, lazily, via the first-child pointer
    and the next-in-block chain (contiguous in the schema node's
    sequence). *)

val relocate_desc :
  Store.t -> src:desc -> dst_block:Xptr.t -> order_after:int option -> desc
(** Move a descriptor to a fresh slot.  Updates exactly: the indirection
    cell, the two sibling neighbours, and at most one parent child-slot
    pointer — the paper's constant-field relocation.  The caller must
    have unlinked [src] from its in-block order chain and must free its
    slot afterwards. *)

val document_order : Store.t -> desc -> desc -> int
val is_ancestor_node : Store.t -> ancestor:desc -> desc -> bool

val pp : Store.t -> Format.formatter -> desc -> unit
