(* Node-level update operations (paper §4.1).

   The data organization is designed so that each update touches a
   constant number of fields per affected node:

   - fixed-size descriptors within a block make free-space management
     trivial (slot free lists);
   - the indirect parent pointer makes descriptor relocation O(1) in
     the node's fan-out;
   - partial ordering (unordered within a block) means an insertion
     never shifts other descriptors.

   Block splits and schema widening relocate descriptors through
   {!Node.relocate_desc}, which updates exactly: the indirection cell,
   the two sibling neighbours, and at most one parent child-slot. *)

open Sedna_util

(* ---- schema widening --------------------------------------------------- *)

(* Ensure the descriptor of [d] lives in a block with at least
   [need_slots] child slots.  If its block is too narrow, a new block
   with the schema's current width is inserted right after it and [d]
   plus its in-block order successors move there, preserving the
   partial order of the block chain.  Returns the (possibly new)
   descriptor address of [d]. *)
let ensure_child_slots (st : Store.t) (d : Node.desc) ~need_slots : Node.desc =
  let bm = st.Store.bm in
  let block = Node_block.block_of_desc d in
  if Node_block.child_slots bm block >= need_slots then d
  else begin
    let s = Node.snode st d in
    let width = max need_slots (List.length s.Catalog.children) in
    let my_handle = Node.handle st d in
    (* collect [d] and its in-block successors, in order *)
    let rec successors acc cur =
      match Node_block.next_in_block bm cur with
      | Some slot -> successors (slot :: acc) (Node_block.desc_addr bm block slot)
      | None -> List.rev acc
    in
    let to_move = Node_block.slot_of_desc bm d :: successors [] d in
    (* wider descriptors fit fewer per block: chain as many new blocks
       as the move needs, preserving the partial order *)
    let cur_block =
      ref
        (Node_block.create_block bm st.Store.cat s ~child_slots:width
           ~after:(Some block))
    in
    let last_new = ref None in
    List.iter
      (fun slot ->
        if not (Node_block.has_room bm !cur_block) then begin
          cur_block :=
            Node_block.create_block bm st.Store.cat s ~child_slots:width
              ~after:(Some !cur_block);
          last_new := None
        end;
        let src = Node_block.desc_addr bm block slot in
        Node_block.unlink_in_order bm block slot;
        let dst =
          Node.relocate_desc st ~src ~dst_block:!cur_block ~order_after:!last_new
        in
        Node_block.free_slot bm block slot;
        last_new := Some (Node_block.slot_of_desc bm dst))
      to_move;
    if Node_block.count bm block = 0 then
      Node_block.destroy_block bm st.Store.cat s block;
    Indirection.get bm my_handle
  end

(* ---- block split ------------------------------------------------------- *)

(* Split [block]: move the upper half of its order chain into a fresh
   block inserted right after it.  Returns the new block. *)
let split_block (st : Store.t) (snode : Catalog.snode) (block : Xptr.t) : Xptr.t =
  let bm = st.Store.bm in
  let cs = Node_block.child_slots bm block in
  let nb = Node_block.create_block bm st.Store.cat snode ~child_slots:cs
      ~after:(Some block) in
  let n = Node_block.count bm block in
  let keep = n / 2 in
  (* walk the order chain to the first descriptor that moves *)
  let rec nth_desc i cur =
    if i = 0 then cur
    else
      match Node_block.next_in_block bm cur with
      | Some slot -> nth_desc (i - 1) (Node_block.desc_addr bm block slot)
      | None -> cur
  in
  (match Node_block.first_slot bm block with
   | None -> ()
   | Some s0 ->
     let first_moved = nth_desc keep (Node_block.desc_addr bm block s0) in
     let rec slots acc cur =
       let acc = Node_block.slot_of_desc bm cur :: acc in
       match Node_block.next_in_block bm cur with
       | Some slot -> slots acc (Node_block.desc_addr bm block slot)
       | None -> List.rev acc
     in
     let to_move = slots [] first_moved in
     let last_new = ref None in
     List.iter
       (fun slot ->
         let src = Node_block.desc_addr bm block slot in
         Node_block.unlink_in_order bm block slot;
         let dst =
           Node.relocate_desc st ~src ~dst_block:nb ~order_after:!last_new
         in
         Node_block.free_slot bm block slot;
         last_new := Some (Node_block.slot_of_desc bm dst))
       to_move);
  nb

(* ---- locating the insertion position ----------------------------------- *)

(* Find, within [snode]'s block chain, the descriptor with the greatest
   label strictly below [lbl]: the in-chain predecessor of the node
   being inserted.  Returns [None] when [lbl] precedes every node. *)
let locate_predecessor (st : Store.t) (snode : Catalog.snode) (lbl : Sedna_nid.Nid.t)
    : Node.desc option =
  let bm = st.Store.bm in
  let before d = Sedna_nid.Nid.compare (Node.label st d) lbl < 0 in
  let rec scan_blocks block best =
    if Xptr.is_null block then best
    else begin
      incr Counters.block_touch_cell;
      match Node_block.first_slot bm block with
      | None -> scan_blocks (Node_block.next_block bm block) best
      | Some s0 ->
        let first = Node_block.desc_addr bm block s0 in
        if not (before first) then best
        else begin
          (* the predecessor is in this block or a later one *)
          let last =
            match Node_block.last_slot bm block with
            | Some s -> Node_block.desc_addr bm block s
            | None -> first
          in
          if before last then scan_blocks (Node_block.next_block bm block) (Some last)
          else begin
            (* strictly inside this block: walk the order chain *)
            let rec walk cur =
              match Node_block.next_in_block bm cur with
              | Some slot ->
                let n = Node_block.desc_addr bm block slot in
                if before n then walk n else cur
              | None -> cur
            in
            Some (walk first)
          end
        end
    end
  in
  scan_blocks snode.Catalog.first_block None

(* ---- descriptor initialization ----------------------------------------- *)

let write_fresh_desc (st : Store.t) ~(snode : Catalog.snode) ~(block : Xptr.t)
    ~(order_after : int option) ~(lbl : Sedna_nid.Nid.t)
    ~(parent_handle : Xptr.t) ~(value : string option) : Node.desc =
  let bm = st.Store.bm in
  let slot = Node_block.alloc_slot bm block in
  let d = Node_block.desc_addr bm block slot in
  Node_block.set_label bm st.Store.cat d lbl;
  let cell = Indirection.alloc bm st.Store.cat in
  Indirection.set bm cell d;
  Node_block.set_indir bm d cell;
  Node_block.set_parent_indir bm d parent_handle;
  (match snode.Catalog.kind with
   | Catalog.Element | Catalog.Document -> ()
   | Catalog.Attribute | Catalog.Text | Catalog.Comment | Catalog.Pi ->
     (match value with
      | Some v when v <> "" ->
        let r = Text_store.insert bm st.Store.cat v in
        Node_block.set_text_ref bm d r;
        Node_block.set_text_len bm d (String.length v)
      | _ ->
        Node_block.set_text_ref bm d Xptr.null;
        Node_block.set_text_len bm d 0));
  Node_block.link_in_order bm block ~slot ~after:order_after;
  snode.Catalog.node_count <- snode.Catalog.node_count + 1;
  Catalog.mark_dirty st.Store.cat;
  d

(* Wire the new node into the sibling chain between [left] and [right]
   (descriptor addresses, either may be absent). *)
let link_siblings (st : Store.t) (d : Node.desc) ~(left : Node.desc option)
    ~(right : Node.desc option) =
  let bm = st.Store.bm in
  (match left with
   | Some l ->
     Node_block.set_left_sibling bm d l;
     Node_block.set_right_sibling bm l d
   | None -> Node_block.set_left_sibling bm d Xptr.null);
  match right with
  | Some r ->
    Node_block.set_right_sibling bm d r;
    Node_block.set_left_sibling bm r d
  | None -> Node_block.set_right_sibling bm d Xptr.null

(* Update the parent's per-schema first-child pointer if the new node
   now precedes the current first child of its schema (or none was
   set).  May widen the parent's block; returns nothing — the caller
   must re-derive the parent descriptor from its handle afterwards. *)
let update_parent_child_ptr (st : Store.t) ~(parent_handle : Xptr.t)
    ~(snode : Catalog.snode) (d : Node.desc) =
  if not (Xptr.is_null parent_handle) then begin
    let bm = st.Store.bm in
    let pd = Indirection.get bm parent_handle in
    let k = snode.Catalog.child_slot in
    let pd = ensure_child_slots st pd ~need_slots:(k + 1) in
    let cur = Node_block.child bm pd k in
    if Xptr.is_null cur
       || Sedna_nid.Nid.compare (Node.label st d) (Node.label st cur) < 0
    then Node_block.set_child bm pd k d
  end

(* ---- the public insertion entry points ---------------------------------- *)

(* Append [kind/name/value] as the LAST child of [parent_handle], with
   [prev_handle] the current last child (bulk-load fast path: ordinal
   labels, no comparisons, always appends to the schema node's last
   block). *)
let append_child (st : Store.t) ~(parent_handle : Xptr.t)
    ~(prev_handle : Xptr.t option) ~(kind : Catalog.kind)
    ~(name : Xname.t option) ~(value : string option) ~(ordinal : int) :
    Xptr.t =
  let bm = st.Store.bm in
  let pd = Indirection.get bm parent_handle in
  let psnode = Node.snode st pd in
  let snode, _is_new = Catalog.find_or_add_child st.Store.cat psnode ~kind ~name in
  let parent_label = Node.label st pd in
  let lbl = Sedna_nid.Nid.ordinal_child ~parent:parent_label ordinal in
  (* target block: the schema node's last block *)
  let block =
    let last = snode.Catalog.last_block in
    if (not (Xptr.is_null last)) && Node_block.has_room bm last then last
    else
      Node_block.create_block bm st.Store.cat snode
        ~child_slots:(match kind with
          | Catalog.Element | Catalog.Document ->
            max 2 (List.length snode.Catalog.children)
          | _ -> 0)
        ~after:None
  in
  let order_after = Node_block.last_slot bm block in
  let d =
    write_fresh_desc st ~snode ~block ~order_after ~lbl
      ~parent_handle ~value
  in
  let left = Option.map (Indirection.get bm) prev_handle in
  link_siblings st d ~left ~right:None;
  update_parent_child_ptr st ~parent_handle ~snode d;
  Node.handle st d

(* General insertion: new node under [parent_handle] placed between
   sibling handles [left] and [right] (either may be [None]).  Splits
   the target block when full; never relabels any existing node. *)
let insert_child (st : Store.t) ~(parent_handle : Xptr.t)
    ~(left : Xptr.t option) ~(right : Xptr.t option) ~(kind : Catalog.kind)
    ~(name : Xname.t option) ~(value : string option) : Xptr.t =
  let bm = st.Store.bm in
  let pd = Indirection.get bm parent_handle in
  let psnode = Node.snode st pd in
  let snode, _ = Catalog.find_or_add_child st.Store.cat psnode ~kind ~name in
  let parent_label = Node.label st pd in
  (* resolve the effective neighbours FIRST: the label must be computed
     against the nodes the new one actually lands between *)
  let left_d = Option.map (Indirection.get bm) left in
  let right_d = Option.map (Indirection.get bm) right in
  let left_d, right_d =
    match (left_d, right_d) with
    | None, None ->
      (* insert as first child: right = current first child, if any *)
      (None, Node.first_child_any st pd)
    | (Some ld as l), None -> (l, Node.right_sibling st ld)
    | None, (Some rd as r) -> (Node.left_sibling st rd, r)
    | l, r -> (l, r)
  in
  let left_lbl = Option.map (Node.label st) left_d in
  let right_lbl = Option.map (Node.label st) right_d in
  let lbl =
    Sedna_nid.Nid.child_between ~parent:parent_label ~left:left_lbl
      ~right:right_lbl
  in
  (* descriptor addresses may be invalidated below (splits); keep the
     neighbours by handle *)
  let left_h = Option.map (Node.handle st) left_d in
  let right_h = Option.map (Node.handle st) right_d in
  (* position within the schema node's chain *)
  let pred = locate_predecessor st snode lbl in
  let block, order_after =
    match pred with
    | Some p ->
      let b = Node_block.block_of_desc p in
      (b, Some (Node_block.slot_of_desc bm p))
    | None ->
      let b = snode.Catalog.first_block in
      if Xptr.is_null b then
        (Node_block.create_block bm st.Store.cat snode
           ~child_slots:(match kind with
             | Catalog.Element | Catalog.Document ->
               max 2 (List.length snode.Catalog.children)
             | _ -> 0)
           ~after:None,
         None)
      else (b, None)
  in
  (* split on overflow, then recompute the position *)
  let block, order_after =
    if Node_block.has_room bm block then (block, order_after)
    else begin
      let pred_handle = Option.map (fun p -> Node.handle st p) pred in
      ignore (split_block st snode block);
      match pred_handle with
      | Some h ->
        let p = Indirection.get bm h in
        (Node_block.block_of_desc p, Some (Node_block.slot_of_desc bm p))
      | None -> (snode.Catalog.first_block, None)
    end
  in
  let d =
    write_fresh_desc st ~snode ~block ~order_after ~lbl ~parent_handle ~value
  in
  link_siblings st d
    ~left:(Option.map (Indirection.get bm) left_h)
    ~right:(Option.map (Indirection.get bm) right_h);
  update_parent_child_ptr st ~parent_handle ~snode d;
  Node.handle st d

(* ---- deletion ------------------------------------------------------------ *)

let rec delete_node (st : Store.t) (h : Xptr.t) =
  let bm = st.Store.bm in
  (* children first (including attributes) *)
  let rec kill_children () =
    match Node.first_child_any st (Indirection.get bm h) with
    | Some c ->
      delete_node st (Node.handle st c);
      kill_children ()
    | None -> ()
  in
  kill_children ();
  let d = Indirection.get bm h in
  let snode = Node.snode st d in
  (* unlink from the sibling chain *)
  let l = Node_block.left_sibling bm d and r = Node_block.right_sibling bm d in
  if not (Xptr.is_null l) then Node_block.set_right_sibling bm l r;
  if not (Xptr.is_null r) then Node_block.set_left_sibling bm r l;
  (* fix the parent's first-child pointer for this schema *)
  let p = Node_block.parent_indir bm d in
  if not (Xptr.is_null p) then begin
    let pd = Indirection.get bm p in
    let k = snode.Catalog.child_slot in
    if Xptr.equal (Node_block.child bm pd k) d then begin
      (* successor of the same schema node under the same parent *)
      let succ =
        match Node_block.next_desc bm d with
        | Some n when Xptr.equal (Node_block.parent_indir bm n) p -> n
        | _ -> Xptr.null
      in
      Node_block.set_child bm pd k succ
    end
  end;
  (* release text and label storage *)
  (match snode.Catalog.kind with
   | Catalog.Element | Catalog.Document -> ()
   | _ ->
     let r = Node_block.text_ref bm d in
     if not (Xptr.is_null r) then Text_store.delete bm st.Store.cat r);
  Node_block.release_label bm st.Store.cat d;
  (* free the slot and, when the block empties, the block *)
  let block = Node_block.block_of_desc d in
  let slot = Node_block.slot_of_desc bm d in
  Node_block.unlink_in_order bm block slot;
  Node_block.free_slot bm block slot;
  if Node_block.count bm block = 0 then
    Node_block.destroy_block bm st.Store.cat snode block;
  Indirection.free bm st.Store.cat h;
  snode.Catalog.node_count <- snode.Catalog.node_count - 1;
  Catalog.mark_dirty st.Store.cat

(* ---- value replacement ----------------------------------------------------- *)

(* Replace the string value of a text-carrying node: a constant-field
   update (the text slot may move; one descriptor field changes). *)
let set_text_value (st : Store.t) (h : Xptr.t) (v : string) =
  let bm = st.Store.bm in
  let d = Indirection.get bm h in
  let old = Node_block.text_ref bm d in
  let r =
    if Xptr.is_null old then
      if v = "" then Xptr.null else Text_store.insert bm st.Store.cat v
    else if v = "" then begin
      Text_store.delete bm st.Store.cat old;
      Xptr.null
    end
    else Text_store.update bm st.Store.cat old v
  in
  Node_block.set_text_ref bm d r;
  Node_block.set_text_len bm d (String.length v)
