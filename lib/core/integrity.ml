(* Structural consistency checker: walks a document and verifies the
   §4.1 invariants the storage design promises.  Used by the test suite
   after every mutating scenario and exposed in the shell as \check.

   Checked invariants:
   - the sibling chain is doubly consistent (left/right mirror);
   - every child's indirect parent pointer dereferences to its parent;
   - labels strictly increase along the sibling chain, and along every
     schema node's block chain (the partial-order invariant);
   - each parent's per-schema child slot aims at its first child of
     that schema (and is null iff there are none);
   - every schema node's node_count matches its stored population;
   - every descriptor's indirection cell points back at it;
   - every value index on the document holds exactly the (key, handle)
     entries a rebuild from the document would insert.

   A storage error raised mid-walk (a dangling node handle, an unknown
   schema node) ends that document's check as one more problem line;
   [check_all] goes on with the next document. *)

module F = Format

let check_into (st : Store.t) (doc_name : string) errors =
  let bm = st.Store.bm in
  let doc = Store.document st doc_name in
  let dd = Indirection.get bm doc.Catalog.doc_indir in
  let err fmt = F.kasprintf (fun s -> errors := s :: !errors) fmt in
  let rec walk d =
    let my_handle = Node.handle st d in
    (* handle round-trip *)
    if not (Xptr.equal (Indirection.get bm my_handle) d) then
      err "handle %a does not dereference to its descriptor" Xptr.pp my_handle;
    let kids =
      let rec from acc = function
        | None -> List.rev acc
        | Some c -> from (c :: acc) (Node.right_sibling st c)
      in
      from [] (Node.first_child_any st d)
    in
    List.iteri
      (fun i c ->
        (match Node.parent st c with
         | Some p when Xptr.equal (Node.handle st p) my_handle -> ()
         | _ -> err "child %d of %a has a wrong parent" i Xptr.pp my_handle);
        let l = Node.left_sibling st c in
        match (i, l) with
        | 0, Some _ -> err "first child of %a has a left sibling" Xptr.pp my_handle
        | 0, None -> ()
        | _, Some l ->
          if not (Xptr.equal (Node_block.right_sibling bm l) c) then
            err "sibling chain broken at child %d of %a" i Xptr.pp my_handle
        | _, None -> err "child %d of %a misses its left sibling" i Xptr.pp my_handle)
      kids;
    let rec order = function
      | a :: (b :: _ as rest) ->
        if Sedna_nid.Nid.compare (Node.label st a) (Node.label st b) >= 0 then
          err "sibling labels out of order under %a" Xptr.pp my_handle;
        order rest
      | _ -> ()
    in
    order kids;
    (* labels of children must sit inside the parent's label range *)
    let parent_label = Node.label st d in
    List.iter
      (fun c ->
        if not (Sedna_nid.Nid.is_ancestor ~ancestor:parent_label (Node.label st c))
        then err "child label escapes its parent range under %a" Xptr.pp my_handle)
      kids;
    let snode = Node.snode st d in
    (match snode.Catalog.kind with
     | Catalog.Element | Catalog.Document ->
       List.iter
         (fun (cs : Catalog.snode) ->
           let actual_first =
             List.find_opt
               (fun c -> (Node.snode st c).Catalog.id = cs.Catalog.id)
               kids
           in
           let stored = Node_block.child bm d cs.Catalog.child_slot in
           match (actual_first, Xptr.is_null stored) with
           | Some f, false ->
             if not (Xptr.equal f stored) then
               err "child slot %d of %a not at the first %s child"
                 cs.Catalog.child_slot Xptr.pp my_handle
                 (Catalog.kind_name cs.Catalog.kind)
           | Some _, true ->
             err "child slot %d of %a is null but children exist"
               cs.Catalog.child_slot Xptr.pp my_handle
           | None, false ->
             err "child slot %d of %a is stale" cs.Catalog.child_slot Xptr.pp
               my_handle
           | None, true -> ())
         snode.Catalog.children
     | _ -> ());
    List.iter walk kids
  in
  walk dd;
  (* per-schema-node chain order and population *)
  let root = Catalog.snode_by_id st.Store.cat doc.Catalog.schema_root_id in
  List.iter
    (fun (s : Catalog.snode) ->
      let count = ref 0 in
      let last = ref None in
      Seq.iter
        (fun d ->
          incr count;
          let l = Node.label st d in
          (match !last with
           | Some prev when Sedna_nid.Nid.compare prev l >= 0 ->
             err "labels out of order in the chain of schema node %d" s.Catalog.id
           | _ -> ());
          last := Some l)
        (Traverse.scan_snode st s);
      if !count <> s.Catalog.node_count then
        err "schema node %d: node_count %d but %d stored" s.Catalog.id
          s.Catalog.node_count !count)
    (root :: Catalog.schema_descendants root);
  (* every index holds exactly what a rebuild from the document would *)
  List.iter
    (fun (def : Catalog.index_def) ->
      let name = def.Catalog.idx_name in
      let extra, missing =
        Index_mgr.diff_entries
          (List.sort compare (Btree.range (Btree.of_root bm def.Catalog.idx_root) ()))
          (Index_mgr.entries_for st def dd)
      in
      List.iter
        (fun (k, h) ->
          err "index %S holds an entry (%S, %a) no node produces" name k Xptr.pp h)
        extra;
      List.iter
        (fun (k, h) -> err "index %S misses the entry (%S, %a)" name k Xptr.pp h)
        missing)
    (Catalog.indexes_for_document st.Store.cat doc_name)

let check_document (st : Store.t) (doc_name : string) : string list =
  let errors = ref [] in
  (try check_into st doc_name errors
   with Sedna_util.Error.Sedna_error _ as e ->
     errors := ("check stopped: " ^ Sedna_util.Error.to_string e) :: !errors);
  List.rev !errors

let check_all (st : Store.t) : (string * string list) list =
  Catalog.document_names st.Store.cat
  |> List.map (fun name -> (name, check_document st name))
  |> List.filter (fun (_, errs) -> errs <> [])
