(* Value indexes: CREATE INDEX maps a path of element names (below the
   document's root element) to a B-tree keyed by the string or numeric
   value reachable by a second path.  Entries point to node handles,
   which survive descriptor relocation (paper §4.1.2).

   Both paths are walked through the descriptive schema: a step follows
   the parent's per-schema child pointers of the matching child schema
   nodes, so a walk fetches only nodes on the path (paper §4.1: the
   schema is "a naturally built index").  Maintenance under updates is
   local to the changed region and applies only the entries that
   changed. *)

open Sedna_util

let encode_key (def : Catalog.index_def) (raw : string) : string option =
  match def.Catalog.idx_kind with
  | Catalog.String_index -> Some raw
  | Catalog.Number_index -> (
    match float_of_string_opt (String.trim raw) with
    | Some f -> Some (Btree.encode_number f)
    | None -> None (* non-numeric values are not indexed *))

(* The schema test of one path step: "name" selects child elements (an
   empty namespace matches any, as in queries), "@name" attributes by
   local name.  Attributes have no children, so an "@name" step that is
   not last selects nothing. *)
let step_test (step : string) : Traverse.test =
  let n = String.length step in
  if n > 0 && step.[0] = '@' then
    {
      Traverse.t_kind = Some Catalog.Attribute;
      t_name = Some (Xname.of_string (String.sub step 1 (n - 1)));
    }
  else Traverse.element_test (Some (Xname.of_string step))

(* nodes reached from [d] by a path of step tests, in document order *)
let walk (st : Store.t) (d : Node.desc) (tests : Traverse.test list) :
    Node.desc list =
  let rec go acc d = function
    | [] -> d :: acc
    | test :: rest ->
      Seq.fold_left (fun acc c -> go acc c rest) acc
        (Traverse.children_schema st ~test d)
  in
  List.rev (go [] d tests)

(* (key, handle) pairs the given targets contribute.  Every key node
   below a target contributes an entry (general-comparison semantics
   are existential); duplicate pairs are collapsed so maintenance stays
   symmetric. *)
let target_entries (st : Store.t) (def : Catalog.index_def)
    (targets : Node.desc list) : (string * Xptr.t) list =
  let key_tests = List.map step_test def.Catalog.idx_key_path in
  List.concat_map
    (fun target ->
      let h = Node.handle st target in
      walk st target key_tests
      |> List.filter_map (fun k ->
             Option.map (fun key -> (key, h))
               (encode_key def (Node_ser.string_value st k))))
    targets
  |> List.sort_uniq compare

(* the pairs the whole document rooted at [doc_desc] contributes *)
let entries_for (st : Store.t) (def : Catalog.index_def) (doc_desc : Node.desc)
    : (string * Xptr.t) list =
  target_entries st def (walk st doc_desc (List.map step_test def.Catalog.idx_path))

(* Build (or rebuild) the index for its document. *)
let build (st : Store.t) (def : Catalog.index_def) =
  let doc = Catalog.get_document st.Store.cat def.Catalog.idx_doc in
  let doc_desc = Indirection.get st.Store.bm doc.Catalog.doc_indir in
  let bt = Btree.create st.Store.bm in
  List.iter
    (fun (key, h) -> Btree.insert bt ~key ~value:h)
    (entries_for st def doc_desc);
  def.Catalog.idx_root <- Btree.root bt;
  Catalog.mark_dirty st.Store.cat

let create (st : Store.t) ~name ~doc ~path ~key_path ~kind =
  let def =
    {
      Catalog.idx_name = name;
      idx_doc = doc;
      idx_path = path;
      idx_key_path = key_path;
      idx_kind = kind;
      idx_root = Xptr.null;
    }
  in
  Catalog.add_index st.Store.cat def;
  build st def;
  def

let drop (st : Store.t) ~name = Catalog.remove_index st.Store.cat name

(* point lookup: handles of indexed nodes with the given key *)
let lookup_string (st : Store.t) (def : Catalog.index_def) (key : string) :
    Xptr.t list =
  match encode_key def key with
  | None -> []
  | Some k -> Btree.lookup (Btree.of_root st.Store.bm def.Catalog.idx_root) k

let lookup_number (st : Store.t) (def : Catalog.index_def) (f : float) :
    Xptr.t list =
  Btree.lookup
    (Btree.of_root st.Store.bm def.Catalog.idx_root)
    (Btree.encode_number f)

let range_number (st : Store.t) (def : Catalog.index_def) ?lo ?hi () :
    Xptr.t list =
  let enc = Option.map Btree.encode_number in
  Btree.range
    (Btree.of_root st.Store.bm def.Catalog.idx_root)
    ?lo:(enc lo) ?hi:(enc hi) ()
  |> List.map snd

let range_string (st : Store.t) (def : Catalog.index_def) ?lo ?hi () :
    Xptr.t list =
  (* string keys are stored raw, so the B-tree's lexicographic key order
     is the comparison order *)
  Btree.range (Btree.of_root st.Store.bm def.Catalog.idx_root) ?lo ?hi ()
  |> List.map snd

(* ---- maintenance under updates ------------------------------------------ *)

(* The targets whose entries a change strictly below the anchor can
   alter, given the anchor's ancestor-or-self chain from the document
   node down.  A target's key nodes lie in its subtree, so only targets
   on the chain and targets below the anchor qualify.  The chain node
   at the index path's depth is the one target on the chain, if the
   chain matches the path that far; when the path reaches below the
   anchor, its rest is walked from the anchor.  The cost is the
   anchor's depth plus the nodes the index reaches under it. *)
let region_targets (st : Store.t) (def : Catalog.index_def)
    (chain : Node.desc list) : Node.desc list =
  let rec go tests chain =
    match (tests, chain) with
    | [], n :: _ -> [ n ]
    | _, [ anchor ] -> walk st anchor tests
    | t :: ts, _ :: (below :: _ as rest) ->
      if Traverse.node_matches st t below then go ts rest else []
    | _, [] -> []
  in
  go (List.map step_test def.Catalog.idx_path) chain

let diff_entries a b =
  let rec go only_a only_b a b =
    match (a, b) with
    | [], rest -> (List.rev only_a, List.rev_append only_b rest)
    | rest, [] -> (List.rev_append only_a rest, List.rev only_b)
    | x :: xs, y :: ys ->
      let c = compare x y in
      if c = 0 then go only_a only_b xs ys
      else if c < 0 then go (x :: only_a) only_b xs b
      else go only_a (y :: only_b) a ys
  in
  go [] [] a b

(* Pairs only in [before] are deleted, pairs only in [after] inserted;
   pairs present in both never touch the B-tree. *)
let apply_diff (st : Store.t) (def : Catalog.index_def) before after =
  match diff_entries before after with
  | [], [] -> ()
  | dels, adds ->
    let bt = Btree.of_root st.Store.bm def.Catalog.idx_root in
    List.iter (fun (key, h) -> ignore (Btree.delete bt ~key ~value:h)) dels;
    List.iter (fun (key, h) -> Btree.insert bt ~key ~value:h) adds;
    if not (Xptr.equal (Btree.root bt) def.Catalog.idx_root) then begin
      (* a split moved the root: the catalog must carry it *)
      def.Catalog.idx_root <- Btree.root bt;
      Catalog.mark_dirty st.Store.cat
    end

let with_refresh (st : Store.t) (anchor : Node.handle) (f : unit -> 'a) : 'a =
  (* document node first; re-derived after [f], which may relocate *)
  let chain () =
    List.rev (List.of_seq (Traverse.ancestor_or_self st (Node.by_handle st anchor)))
  in
  let entries def chain = target_entries st def (region_targets st def chain) in
  let chain0 = chain () in
  let defs =
    match
      Catalog.document_of_schema_root st.Store.cat
        (Node.snode st (List.hd chain0)).Catalog.id
    with
    | None -> []
    | Some doc -> Catalog.indexes_for_document st.Store.cat doc.Catalog.doc_name
  in
  if defs = [] then f ()
  else begin
    let before = List.map (fun def -> (def, entries def chain0)) defs in
    let r = f () in
    let chain1 = chain () in
    List.iter (fun (def, b) -> apply_diff st def b (entries def chain1)) before;
    r
  end
