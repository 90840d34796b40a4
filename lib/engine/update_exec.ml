(* XUpdate execution (paper §3, §5.2).

   The execution plan of an update statement has two parts: the first
   selects the target nodes, the second updates them.  Targets selected
   by the query part are direct pointers; since direct pointers are
   invalidated by node moves, the set of target nodes is converted to
   node handles before any modification starts (paper §5.2). *)

open Sedna_util
open Sedna_core
module Ast = Sedna_xquery.Xq_ast

let dynamic_error fmt = Error.raise_error Error.Xquery_dynamic fmt

(* evaluate an expression to the handles of the stored nodes it selects *)
let stored_handles (ctx : Executor.ctx) (e : Ast.expr) : Xptr.t list =
  List.of_seq (Executor.eval ctx e)
  |> List.map (function
       | Xdm.N (Xdm.Stored d) -> Node.handle ctx.Executor.st d
       | Xdm.N (Xdm.Temp _) ->
         dynamic_error "update target must be a stored node"
       | Xdm.A _ -> dynamic_error "update target must be a node")

(* ---- inserting evaluated content into the store ------------------------- *)

(* Insert one XDM item as a node under [parent_handle], after
   [left_handle]; returns the new node's handle. *)
let rec insert_item (st : Store.t) ~parent_handle ~left_handle (it : Xdm.item) :
    Xptr.t =
  match it with
  | Xdm.A a ->
    Update_ops.insert_child st ~parent_handle ~left:left_handle ~right:None
      ~kind:Catalog.Text ~name:None
      ~value:(Some (Xdm.string_of_atomic a))
  | Xdm.N n -> insert_node_copy st ~parent_handle ~left_handle n

and insert_node_copy (st : Store.t) ~parent_handle ~left_handle (n : Xdm.node) :
    Xptr.t =
  let kind = Xdm.node_kind st n in
  match kind with
  | Catalog.Element | Catalog.Document ->
    let name = Xdm.node_name st n in
    let kind = if kind = Catalog.Document then Catalog.Element else kind in
    let h =
      Update_ops.insert_child st ~parent_handle ~left:left_handle ~right:None
        ~kind ~name ~value:None
    in
    (* attributes first, then children *)
    let last = ref None in
    List.iter
      (fun a ->
        let ah =
          Update_ops.insert_child st ~parent_handle:h ~left:!last ~right:None
            ~kind:Catalog.Attribute ~name:(Xdm.node_name st a)
            ~value:(Some (Xdm.node_string_value st a))
        in
        last := Some ah)
      (Xdm.node_attributes st n);
    List.iter
      (fun c ->
        let ch = insert_node_copy st ~parent_handle:h ~left_handle:!last c in
        last := Some ch)
      (Xdm.node_children st n);
    h
  | Catalog.Attribute | Catalog.Text | Catalog.Comment | Catalog.Pi ->
    Update_ops.insert_child st ~parent_handle ~left:left_handle ~right:None
      ~kind ~name:(Xdm.node_name st n)
      ~value:(Some (Xdm.node_string_value st n))

(* Insert a sequence of items as the last children of [parent];
   returns the handles of the inserted top-level nodes. *)
let insert_into (st : Store.t) ~parent_handle (items : Xdm.item list) :
    Xptr.t list =
  let pd = Indirection.get st.Store.bm parent_handle in
  (* the insertion point is after the last node in the sibling chain,
     attributes included (attributes precede other children) *)
  let last_child =
    let rec last = function
      | [] -> None
      | [ x ] -> Some (Node.handle st x)
      | _ :: rest -> last rest
    in
    last (Node.attributes st pd @ Node.children st pd)
  in
  let left = ref last_child in
  List.map
    (fun it ->
      let h = insert_item st ~parent_handle ~left_handle:!left it in
      left := Some h;
      h)
    items

(* Insert items as following siblings of [target]. *)
let insert_following_h (st : Store.t) ~target_handle (items : Xdm.item list) :
    Xptr.t list =
  let td = Indirection.get st.Store.bm target_handle in
  let parent_handle =
    let p = Node_block.parent_indir st.Store.bm td in
    if Xptr.is_null p then dynamic_error "cannot insert a sibling of a root node"
    else p
  in
  let left = ref (Some target_handle) in
  List.map
    (fun it ->
      let h = insert_item st ~parent_handle ~left_handle:!left it in
      left := Some h;
      h)
    items

(* Insert items as preceding siblings of [target]. *)
let insert_preceding_h (st : Store.t) ~target_handle (items : Xdm.item list) :
    Xptr.t list =
  let td = Indirection.get st.Store.bm target_handle in
  let parent_handle =
    let p = Node_block.parent_indir st.Store.bm td in
    if Xptr.is_null p then dynamic_error "cannot insert a sibling of a root node"
    else p
  in
  let left_sib = Node.left_sibling st td in
  let left = ref (Option.map (Node.handle st) left_sib) in
  List.map
    (fun it ->
      let h = insert_item st ~parent_handle ~left_handle:!left it in
      left := Some h;
      h)
    items

(* ---- the statement executor ---------------------------------------------- *)

let parent_handle_of (st : Store.t) (h : Xptr.t) : Xptr.t =
  Node_block.parent_indir st.Store.bm (Indirection.get st.Store.bm h)

(* Returns the number of affected target nodes.  Every mutation runs
   inside [Index_mgr.with_refresh] on an anchor that survives it: the
   target itself for insert-into, otherwise the target's parent. *)
let execute (ctx : Executor.ctx) (u : Ast.update_stmt) : int =
  let st = ctx.Executor.st in
  let eval_src src =
    List.of_seq (Executor.eval { ctx with Executor.virtual_ok = true } src)
  in
  match u with
  | Ast.Insert_into (src, target) ->
    let targets = stored_handles ctx target in
    let items = eval_src src in
    List.iter
      (fun th ->
        Index_mgr.with_refresh st th (fun () ->
            ignore (insert_into st ~parent_handle:th items)))
      targets;
    List.length targets
  | Ast.Insert_following (src, target) ->
    let targets = stored_handles ctx target in
    let items = eval_src src in
    List.iter
      (fun th ->
        Index_mgr.with_refresh st (parent_handle_of st th) (fun () ->
            ignore (insert_following_h st ~target_handle:th items)))
      targets;
    List.length targets
  | Ast.Insert_preceding (src, target) ->
    let targets = stored_handles ctx target in
    let items = eval_src src in
    List.iter
      (fun th ->
        Index_mgr.with_refresh st (parent_handle_of st th) (fun () ->
            ignore (insert_preceding_h st ~target_handle:th items)))
      targets;
    List.length targets
  | Ast.Delete target ->
    let targets = stored_handles ctx target in
    List.iter
      (fun th ->
        let anchor = parent_handle_of st th in
        if Xptr.is_null anchor then Update_ops.delete_node st th
        else
          Index_mgr.with_refresh st anchor (fun () -> Update_ops.delete_node st th))
      targets;
    List.length targets
  | Ast.Delete_undeep target ->
    let targets = stored_handles ctx target in
    List.iter
      (fun th ->
        let anchor = parent_handle_of st th in
        let lift () =
          (* copy the children out as preceding siblings, then delete
             the wrapper with whatever remains inside *)
          let d = Indirection.get st.Store.bm th in
          let children = Xdm.node_children st (Xdm.Stored d) in
          ignore
            (insert_preceding_h st ~target_handle:th
               (List.map (fun c -> Xdm.N c) children));
          Update_ops.delete_node st th
        in
        if Xptr.is_null anchor then dynamic_error "cannot undeep a root node"
        else Index_mgr.with_refresh st anchor lift)
      targets;
    List.length targets
  | Ast.Replace (v, target, with_e) ->
    let targets = stored_handles ctx target in
    List.iter
      (fun th ->
        let anchor = parent_handle_of st th in
        let replace () =
          let d = Indirection.get st.Store.bm th in
          let ctx' =
            {
              ctx with
              Executor.vars = (v, [ Xdm.N (Xdm.Stored d) ]) :: ctx.Executor.vars;
              Executor.virtual_ok = true;
            }
          in
          let items = List.of_seq (Executor.eval ctx' with_e) in
          ignore (insert_following_h st ~target_handle:th items);
          Update_ops.delete_node st th
        in
        if Xptr.is_null anchor then dynamic_error "cannot replace a root node"
        else Index_mgr.with_refresh st anchor replace)
      targets;
    List.length targets
  | Ast.Rename (target, new_name) ->
    let targets = stored_handles ctx target in
    List.iter
      (fun th ->
        let anchor = parent_handle_of st th in
        let rename () =
          let d = Indirection.get st.Store.bm th in
          match Node.kind st d with
          | Catalog.Attribute ->
            let v = Node.text_value st d in
            let parent =
              match Node.parent st d with
              | Some p -> Node.handle st p
              | None -> dynamic_error "cannot rename a parentless attribute"
            in
            Update_ops.delete_node st th;
            ignore
              (Update_ops.insert_child st ~parent_handle:parent ~left:None
                 ~right:None ~kind:Catalog.Attribute ~name:(Some new_name)
                 ~value:(Some v))
          | Catalog.Element ->
            (* renaming moves the subtree to a different schema node:
               rebuild it under the new name next to the original *)
            let atts = Xdm.node_attributes st (Xdm.Stored d) in
            let kids = Xdm.node_children st (Xdm.Stored d) in
            let parent_handle =
              let p = Node_block.parent_indir st.Store.bm d in
              if Xptr.is_null p then dynamic_error "cannot rename a root node"
              else p
            in
            let h =
              Update_ops.insert_child st ~parent_handle ~left:(Some th)
                ~right:None ~kind:Catalog.Element ~name:(Some new_name)
                ~value:None
            in
            let last = ref None in
            List.iter
              (fun a ->
                let ah =
                  Update_ops.insert_child st ~parent_handle:h ~left:!last
                    ~right:None ~kind:Catalog.Attribute
                    ~name:(Xdm.node_name st a)
                    ~value:(Some (Xdm.node_string_value st a))
                in
                last := Some ah)
              atts;
            List.iter
              (fun c ->
                let ch = insert_node_copy st ~parent_handle:h ~left_handle:!last c in
                last := Some ch)
              kids;
            Update_ops.delete_node st th
          | _ -> dynamic_error "rename applies to elements and attributes"
        in
        if Xptr.is_null anchor then dynamic_error "cannot rename a root node"
        else Index_mgr.with_refresh st anchor rename)
      targets;
    List.length targets
