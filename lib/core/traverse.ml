(* Axis evaluation over the storage (paper §4.1, §5).

   Two evaluation styles coexist:

   - pointer traversal: follow direct child/sibling pointers and the
     indirect parent pointer (the paper's fast path for navigation);
   - schema-driven scans: for descending axes, locate the matching
     schema nodes first, then scan only their block chains, filtering
     by the numbering-scheme ancestor test — unnecessary nodes are
     never fetched ("naturally built index", paper §4.1).

   Sequences are lazy ([Seq.t]) so the executor can pipeline. *)

open Sedna_util

type test = {
  t_kind : Catalog.kind option; (* None = any principal kind *)
  t_name : Xname.t option; (* None = wildcard *)
}

let any_test = { t_kind = None; t_name = None }
let element_test name = { t_kind = Some Catalog.Element; t_name = name }

let snode_matches (test : test) (s : Catalog.snode) =
  (match test.t_kind with
   | Some k -> s.Catalog.kind = k
   | None ->
     (* principal node kinds for non-attribute axes *)
     s.Catalog.kind <> Catalog.Attribute && s.Catalog.kind <> Catalog.Document)
  &&
  match test.t_name with
  | None -> true
  | Some n -> (
    match s.Catalog.name with Some m -> Xname.matches ~want:n m | None -> false)

let node_matches (st : Store.t) (test : test) (d : Node.desc) =
  snode_matches test (Node.snode st d)

(* ---- simple pointer axes --------------------------------------------- *)

let self (_st : Store.t) d : Node.desc Seq.t = Seq.return d

let parent (st : Store.t) d : Node.desc Seq.t =
  match Node.parent st d with None -> Seq.empty | Some p -> Seq.return p

let rec ancestors (st : Store.t) d : Node.desc Seq.t =
  match Node.parent st d with
  | None -> Seq.empty
  | Some p -> fun () -> Seq.Cons (p, ancestors st p)

let ancestor_or_self st d : Node.desc Seq.t =
  Seq.cons d (ancestors st d)

let children (st : Store.t) d : Node.desc Seq.t =
  let rec from c () =
    match c with
    | None -> Seq.Nil
    | Some c -> Seq.Cons (c, from (Node.next_sibling_no_attr st c))
  in
  from (Node.first_child st d)

let attributes (st : Store.t) d : Node.desc Seq.t =
  List.to_seq (Node.attributes st d)

let following_siblings (st : Store.t) d : Node.desc Seq.t =
  let rec from c () =
    match c with
    | None -> Seq.Nil
    | Some c -> Seq.Cons (c, from (Node.next_sibling_no_attr st c))
  in
  from (Node.next_sibling_no_attr st d)

let preceding_siblings (st : Store.t) d : Node.desc Seq.t =
  (* reverse document order, as the axis requires *)
  let rec from c () =
    match c with
    | None -> Seq.Nil
    | Some c ->
      if Node.kind st c = Catalog.Attribute then Seq.Nil
      else Seq.Cons (c, from (Node.left_sibling st c))
  in
  from (Node.left_sibling st d)

(* Subtree walk in document order (excluding attributes). *)
let rec descendants_walk (st : Store.t) d : Node.desc Seq.t =
  Seq.concat_map
    (fun c -> Seq.cons c (descendants_walk st c))
    (children st d)

let descendant_or_self_walk st d = Seq.cons d (descendants_walk st d)

(* ---- schema-driven scans ---------------------------------------------- *)

(* All descriptors of one schema node, block-chain order = doc order.
   Each block's descriptor size is read once, on entering the block. *)
let scan_snode (st : Store.t) (s : Catalog.snode) : Node.desc Seq.t =
  let bm = st.Store.bm in
  let rec from cur () =
    match cur with
    | None -> Seq.Nil
    | Some ((d, _) as c) -> Seq.Cons (d, fun () -> from (Node_block.next_sized bm c) ())
  in
  fun () -> from (Node_block.first_sized_from bm s.Catalog.first_block) ()

(* k-way merge of document-ordered descriptor sequences, by label. *)
let merge_by_doc_order (st : Store.t) (seqs : Node.desc Seq.t list) :
    Node.desc Seq.t =
  let key d = Node.label st d in
  let rec go (heads : (Sedna_nid.Nid.t * Node.desc * Node.desc Seq.t) list) () =
    match heads with
    | [] -> Seq.Nil
    | _ ->
      let best =
        List.fold_left
          (fun acc h ->
            match acc with
            | None -> Some h
            | Some (bk, _, _) ->
              let k, _, _ = h in
              if Sedna_nid.Nid.compare k bk < 0 then Some h else acc)
          None heads
      in
      (match best with
       | None -> Seq.Nil
       | Some ((bk, bd, brest) as b) ->
         ignore bk;
         let heads = List.filter (fun h -> h != b) heads in
         let heads =
           match brest () with
           | Seq.Nil -> heads
           | Seq.Cons (d, rest) -> (key d, d, rest) :: heads
         in
         Seq.Cons (bd, go heads))
  in
  let heads =
    List.filter_map
      (fun s ->
        match s () with
        | Seq.Nil -> None
        | Seq.Cons (d, rest) -> Some (key d, d, rest))
      seqs
  in
  go heads

(* Descendant axis via the descriptive schema: scan only matching
   schema nodes' chains, filter by the label ancestor test, merge. *)
let descendants_schema (st : Store.t) ?(test = any_test) (d : Node.desc) :
    Node.desc Seq.t =
  let s = Node.snode st d in
  let targets = List.filter (snode_matches test) (Catalog.schema_descendants s) in
  let anchor = Node.label st d in
  let filter seq =
    Seq.filter
      (fun n -> Sedna_nid.Nid.is_ancestor ~ancestor:anchor (Node.label st n))
      seq
  in
  (* When [d] is the only instance of its schema node (e.g. the
     document node), every node in the target chains is a descendant:
     no label filtering is needed.  Detect the cheap common case. *)
  let sole_instance = s.Catalog.node_count = 1 && s.Catalog.parent_id = -1 in
  let seqs =
    List.map
      (fun t ->
        let seq = scan_snode st t in
        if sole_instance then seq else filter seq)
      targets
  in
  match seqs with [ one ] -> one | seqs -> merge_by_doc_order st seqs

(* Children via the schema: follow [d]'s per-schema first-child
   pointers of the matching child schema nodes, merged by label when
   several match.  Children of other schema nodes are never fetched.
   Attribute schema nodes are children too, so an attribute test
   selects attributes. *)
let children_schema (st : Store.t) ?(test = any_test) (d : Node.desc) :
    Node.desc Seq.t =
 fun () ->
  let s = Node.snode st d in
  match List.filter (snode_matches test) s.Catalog.children with
  | [] -> Seq.Nil
  | [ cs ] -> Node.children_of_schema st d cs ()
  | css -> merge_by_doc_order st (List.map (Node.children_of_schema st d) css) ()

(* ---- key chains: value predicates on the schema ------------------------- *)

(* The ancestors among schema node [p]'s nodes of document-ordered
   [keys] from [p]'s schema subtree, in document order without
   duplicates.  A cursor walks [p]'s chain forward by label, so no
   indirection cell is read: the nodes of one schema node are disjoint
   subtrees, so a block whose last node precedes a key without being
   its ancestor holds no ancestor of it (or of any later key) and is
   skipped after one label read. *)
let ancestors_in_chain (st : Store.t) (p : Catalog.snode) (keys : Node.desc Seq.t)
    : Node.desc Seq.t =
  let bm = st.Store.bm in
  let label d = Node_block.label bm d in
  let covers a l = Sedna_nid.Nid.is_ancestor ~ancestor:a l in
  (* the cursor: a node of [p], its label, its block's descriptor size *)
  let rec enter block l =
    if Xptr.is_null block then
      Error.raise_error Error.Storage_corruption "key without an ancestor in its chain"
    else
      match (Node_block.first_slot bm block, Node_block.last_slot bm block) with
      | Some first, Some last ->
        let dsz = Node_block.desc_size bm block in
        let addr = Node_block.desc_addr_sized block dsz in
        let ll = label (addr last) in
        if Sedna_nid.Nid.compare ll l < 0 && not (covers ll l) then
          enter (Node_block.next_block bm block) l
        else
          let d = addr first in
          seek (d, label d, dsz) l
      | _ -> enter (Node_block.next_block bm block) l
  and seek ((d, dl, dsz) as cur) l =
    if covers dl l then cur
    else begin
      incr Counters.block_touch_cell;
      let block = Node_block.block_of_desc d in
      match Node_block.next_in_block bm d with
      | Some slot ->
        let d' = Node_block.desc_addr_sized block dsz slot in
        seek (d', label d', dsz) l
      | None -> enter (Node_block.next_block bm block) l
    end
  in
  let rec go cur keys () =
    match keys () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (k, rest) -> (
      let l = label k in
      match cur with
      | Some c ->
        let ((d, _, _) as c') = seek c l in
        let (d0, _, _) = c in
        if Xptr.equal d d0 then go cur rest () else Seq.Cons (d, go (Some c') rest)
      | None ->
        let ((d, _, _) as c') = enter p.Catalog.first_block l in
        Seq.Cons (d, go (Some c') rest))
  in
  go None keys

(* ---- document-order successors, and the long axes ---------------------- *)

(* next node in global document order, subtree-walk style *)
let next_in_document (st : Store.t) d : Node.desc option =
  match Node.first_child st d with
  | Some c -> Some c
  | None ->
    let rec up n =
      match Node.next_sibling_no_attr st n with
      | Some s -> Some s
      | None -> (
        match Node.parent st n with None -> None | Some p -> up p)
    in
    up d

let following (st : Store.t) d : Node.desc Seq.t =
  (* subtrees of following siblings of self and of each ancestor *)
  Seq.concat_map
    (fun anc ->
      Seq.concat_map (fun s -> descendant_or_self_walk st s)
        (following_siblings st anc))
    (ancestor_or_self st d)

let preceding (st : Store.t) d : Node.desc Seq.t =
  (* nodes before d in doc order, excluding ancestors; evaluated in
     reverse document order per XPath *)
  let anc = List.of_seq (ancestor_or_self st d) in
  let before_subtrees =
    List.concat_map
      (fun a -> List.of_seq (preceding_siblings st a) |> List.concat_map
          (fun s -> List.rev (List.of_seq (descendant_or_self_walk st s))))
      anc
  in
  List.to_seq before_subtrees

(* ---- filtering helper --------------------------------------------------- *)

let filter_test (st : Store.t) (test : test) (seq : Node.desc Seq.t) =
  Seq.filter (node_matches st test) seq
