(* Typed view over node descriptors: kinds and names come from the
   descriptive schema (the block header identifies the schema node),
   values come from the text store, and navigation follows the direct
   sibling/child pointers and the indirect parent pointer.

   A [handle] (the node's indirection-cell xptr) is the stable identity
   of a node; a [desc] (descriptor xptr) is its current physical
   address, valid until the next descriptor relocation. *)

open Sedna_util

type desc = Xptr.t
type handle = Xptr.t

let snode (st : Store.t) (d : desc) : Catalog.snode =
  let block = Node_block.block_of_desc d in
  Node_block.check st.Store.bm block;
  Catalog.snode_by_id st.Store.cat (Node_block.schema_id st.Store.bm block)

let kind st d = (snode st d).Catalog.kind
let name st d = (snode st d).Catalog.name

let handle (st : Store.t) (d : desc) : handle = Node_block.indir st.Store.bm d

let by_handle (st : Store.t) (h : handle) : desc =
  Indirection.get st.Store.bm h

let label (st : Store.t) (d : desc) = Node_block.label st.Store.bm d

let parent (st : Store.t) (d : desc) : desc option =
  let p = Node_block.parent_indir st.Store.bm d in
  if Xptr.is_null p then None else Some (by_handle st p)

let left_sibling (st : Store.t) (d : desc) : desc option =
  let s = Node_block.left_sibling st.Store.bm d in
  if Xptr.is_null s then None else Some s

let right_sibling (st : Store.t) (d : desc) : desc option =
  let s = Node_block.right_sibling st.Store.bm d in
  if Xptr.is_null s then None else Some s

(* String value of a text-carrying node; the empty string when the
   value reference is null. *)
let text_value (st : Store.t) (d : desc) : string =
  let r = Node_block.text_ref st.Store.bm d in
  if Xptr.is_null r then "" else Text_store.read st.Store.bm r

(* ---- children --------------------------------------------------------- *)

(* First child in document order: among the per-schema first-child
   pointers, the one with no left sibling.  Attributes are part of the
   sibling chain (they precede other children); [include_attributes]
   controls whether they are visible. *)
let first_child_any (st : Store.t) (d : desc) : desc option =
  let s = snode st d in
  match s.Catalog.kind with
  | Catalog.Element | Catalog.Document ->
    let bm = st.Store.bm in
    let slots = List.length s.Catalog.children in
    let rec scan k =
      if k >= slots then None
      else
        let c = Node_block.child bm d k in
        if Xptr.is_null c then scan (k + 1)
        else begin
          (* walk left to the very first sibling: cheaper in the common
             case than comparing labels across slots *)
          let rec leftmost n =
            let l = Node_block.left_sibling bm n in
            if Xptr.is_null l then n else leftmost l
          in
          Some (leftmost c)
        end
    in
    scan 0
  | _ -> None

let rec skip_attributes st = function
  | None -> None
  | Some d ->
    if kind st d = Catalog.Attribute then
      skip_attributes st (right_sibling st d)
    else Some d

let first_child st d = skip_attributes st (first_child_any st d)

let next_sibling_no_attr st d = skip_attributes st (right_sibling st d)

(* All children in document order (excluding attributes). *)
let children (st : Store.t) (d : desc) : desc list =
  let rec go acc = function
    | None -> List.rev acc
    | Some c -> go (c :: acc) (next_sibling_no_attr st c)
  in
  go [] (first_child st d)

let attributes (st : Store.t) (d : desc) : desc list =
  let rec go acc = function
    | None -> List.rev acc
    | Some c ->
      if kind st c = Catalog.Attribute then go (c :: acc) (right_sibling st c)
      else List.rev acc
  in
  go [] (first_child_any st d)

(* First child belonging to a specific child schema node, using the
   parent's per-schema child pointer — the schema-driven fast path. *)
let first_child_of_schema (st : Store.t) (d : desc) (child_snode : Catalog.snode)
    : desc option =
  let c = Node_block.child st.Store.bm d child_snode.Catalog.child_slot in
  if Xptr.is_null c then None else Some c

(* Children of [d] under schema node [cs], via the first-child pointer
   and the next-in-block chain filtered by parent (paper §4.1): all
   children of one parent and one schema node are contiguous in the
   snode sequence. *)
let children_of_schema (st : Store.t) (d : desc) (cs : Catalog.snode) :
    desc Seq.t =
 fun () ->
  match first_child_of_schema st d cs with
  | None -> Seq.Nil
  | Some c ->
    let bm = st.Store.bm in
    let my = handle st d in
    let rec after cur () =
      match Node_block.next_desc bm cur with
      | Some n when Xptr.equal (Node_block.parent_indir bm n) my ->
        Seq.Cons (n, after n)
      | _ -> Seq.Nil
    in
    Seq.Cons (c, after c)

(* ---- relocation -------------------------------------------------------- *)

(* Move the descriptor at [src] into [dst_block] at a fresh slot,
   appending at the given order position.  This is the paper's
   constant-field update: besides copying the descriptor we touch
   (1) the indirection cell, (2) the two sibling neighbours, and
   (3) at most one parent child-slot pointer.  Children are untouched —
   their parent pointer is the indirection cell.

   Returns the new descriptor address.  The caller is responsible for
   having already unlinked [src] from its in-block order chain and for
   freeing its slot. *)
let relocate_desc (st : Store.t) ~(src : desc) ~(dst_block : Xptr.t)
    ~(order_after : int option) : desc =
  let bm = st.Store.bm in
  let slot = Node_block.alloc_slot bm dst_block in
  let dst = Node_block.desc_addr bm dst_block slot in
  let fields = ref 0 in
  (* copy common fields *)
  Node_block.copy_label_area bm ~src ~dst;
  Node_block.set_indir bm dst (Node_block.indir bm src);
  Node_block.set_parent_indir bm dst (Node_block.parent_indir bm src);
  Node_block.set_left_sibling bm dst (Node_block.left_sibling bm src);
  Node_block.set_right_sibling bm dst (Node_block.right_sibling bm src);
  (* payload *)
  let src_block = Node_block.block_of_desc src in
  let s = Catalog.snode_by_id st.Store.cat (Node_block.schema_id bm src_block) in
  (match s.Catalog.kind with
   | Catalog.Element | Catalog.Document ->
     let src_slots = Node_block.child_slots bm src_block in
     let dst_slots = Node_block.child_slots bm dst_block in
     for k = 0 to min src_slots dst_slots - 1 do
       Node_block.set_child bm dst k (Node_block.child bm src k)
     done
   | _ ->
     Node_block.set_text_ref bm dst (Node_block.text_ref bm src);
     Node_block.set_text_len bm dst (Node_block.text_len bm src));
  Node_block.link_in_order bm dst_block ~slot ~after:order_after;
  (* (1) the node handle *)
  Indirection.set bm (Node_block.indir bm dst) dst;
  incr fields;
  (* (2) sibling neighbours *)
  let l = Node_block.left_sibling bm dst in
  if not (Xptr.is_null l) then begin
    Node_block.set_right_sibling bm l dst;
    incr fields
  end;
  let r = Node_block.right_sibling bm dst in
  if not (Xptr.is_null r) then begin
    Node_block.set_left_sibling bm r dst;
    incr fields
  end;
  (* (3) the parent's per-schema first-child pointer, if it aimed here *)
  let p = Node_block.parent_indir bm dst in
  if not (Xptr.is_null p) then begin
    let pd = Indirection.get bm p in
    if Xptr.equal (Node_block.child bm pd s.Catalog.child_slot) src then begin
      Node_block.set_child bm pd s.Catalog.child_slot dst;
      incr fields
    end
  end;
  Counters.bump Counters.node_moved;
  Counters.bump ~n:!fields Counters.fields_updated;
  dst

(* ---- misc -------------------------------------------------------------- *)

let document_order (st : Store.t) a b =
  Sedna_nid.Nid.compare (label st a) (label st b)

let is_ancestor_node (st : Store.t) ~ancestor d =
  Sedna_nid.Nid.is_ancestor ~ancestor:(label st ancestor) (label st d)

let pp (st : Store.t) ppf (d : desc) =
  let s = snode st d in
  match s.Catalog.kind with
  | Catalog.Element ->
    Format.fprintf ppf "element(%s)"
      (match s.Catalog.name with Some n -> Xname.to_string n | None -> "?")
  | Catalog.Document -> Format.fprintf ppf "document"
  | Catalog.Attribute ->
    Format.fprintf ppf "attribute(%s=%S)"
      (match s.Catalog.name with Some n -> Xname.to_string n | None -> "?")
      (text_value st d)
  | Catalog.Text -> Format.fprintf ppf "text(%S)" (text_value st d)
  | Catalog.Comment -> Format.fprintf ppf "comment(%S)" (text_value st d)
  | Catalog.Pi ->
    Format.fprintf ppf "pi(%s)"
      (match s.Catalog.name with Some n -> Xname.to_string n | None -> "?")
