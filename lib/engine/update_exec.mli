(** XUpdate execution (paper §3, §5.2): the plan's first part selects
    the target nodes, the second updates them.  Selected targets are
    converted to node handles before any mutation starts — direct
    pointers are invalidated by the relocations updates perform.

    Inserted content is always a copy (XQuery constructor semantics);
    virtual constructor results are serialized into the store without
    an intermediate deep copy.  Every mutation runs inside
    {!Sedna_core.Index_mgr.with_refresh}, which applies only the index
    entries the mutation changed. *)

val execute : Executor.ctx -> Sedna_xquery.Xq_ast.update_stmt -> int
(** Returns the number of target nodes affected. *)

val insert_item :
  Sedna_core.Store.t ->
  parent_handle:Sedna_core.Xptr.t ->
  left_handle:Sedna_core.Xptr.t option ->
  Xdm.item ->
  Sedna_core.Xptr.t
(** Insert one item (atomics become text nodes) after [left_handle];
    returns the new node's handle. *)

val insert_node_copy :
  Sedna_core.Store.t ->
  parent_handle:Sedna_core.Xptr.t ->
  left_handle:Sedna_core.Xptr.t option ->
  Xdm.node ->
  Sedna_core.Xptr.t
