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

(* All descriptors of one schema node, block-chain order = doc order. *)
let scan_snode (st : Store.t) (s : Catalog.snode) : Node.desc Seq.t =
  let bm = st.Store.bm in
  let rec from d () =
    match d with
    | None -> Seq.Nil
    | Some d -> Seq.Cons (d, from (Node_block.next_desc bm d))
  in
  from (Node_block.first_desc bm s)

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
