(* Property-based axis testing: random documents are loaded into the
   store, and every axis is compared node-by-node against a trivial
   reference DOM implementation. *)

open Sedna_core

(* ---- random document generator ---------------------------------------- *)

type rtree = Elem of string * rtree list | Txt of string

let rec rtree_to_xml = function
  | Txt s -> s
  | Elem (n, kids) ->
    Printf.sprintf "<%s>%s</%s>" n
      (String.concat "" (List.map rtree_to_xml kids))
      n

let doc_gen =
  QCheck.Gen.(
    let name = oneofl [ "a"; "b"; "c"; "d" ] in
    let rec tree depth =
      if depth = 0 then map (fun n -> Elem (n, [])) name
      else
        frequency
          [
            (1, map (fun n -> Elem (n, [])) name);
            (1, return (Txt "t"));
            ( 3,
              map2
                (fun n kids -> Elem (n, kids))
                name
                (list_size (int_range 0 4) (tree (depth - 1))) );
          ]
    in
    map2 (fun n kids -> Elem (n, kids)) name (list_size (int_range 1 5) (tree 3)))

(* adjacent text siblings would merge on reparse: normalize them away
   so the reference and the loaded document agree node-for-node *)
let rec merge_texts (t : rtree) : rtree =
  match t with
  | Txt _ -> t
  | Elem (n, kids) ->
    let rec go = function
      | Txt a :: Txt b :: rest -> go (Txt (a ^ b) :: rest)
      | k :: rest -> merge_texts k :: go rest
      | [] -> []
    in
    Elem (n, go kids)

let arb_doc =
  QCheck.make ~print:(fun t -> rtree_to_xml t)
    (QCheck.Gen.map merge_texts doc_gen)

(* ---- reference axes ------------------------------------------------------ *)

(* nodes identified by their preorder index over the whole tree *)
let flatten (root : rtree) : (int * rtree) list =
  let out = ref [] in
  let ctr = ref 0 in
  let rec go t =
    let id = !ctr in
    incr ctr;
    out := (id, t) :: !out;
    match t with Elem (_, kids) -> List.iter go kids | Txt _ -> ()
  in
  go root;
  List.rev !out

let parent_map (root : rtree) : (int, int) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  let ctr = ref 0 in
  let rec go parent t =
    let id = !ctr in
    incr ctr;
    (match parent with Some p -> Hashtbl.add tbl id p | None -> ());
    match t with Elem (_, kids) -> List.iter (go (Some id)) kids | Txt _ -> ()
  in
  go None root;
  tbl

let ref_axis_counts (root : rtree) :
    (int * int * int * int * int * int) list =
  (* per node (preorder id order):
     children, descendants, ancestors, foll-siblings, following, preceding *)
  let nodes = flatten root in
  let parents = parent_map root in
  let n = List.length nodes in
  let subtree_size = Hashtbl.create 64 in
  let rec size t =
    match t with
    | Txt _ -> 1
    | Elem (_, kids) -> 1 + List.fold_left (fun a k -> a + size k) 0 kids
  in
  List.iter (fun (id, t) -> Hashtbl.add subtree_size id (size t)) nodes;
  let ancestors id =
    let rec go id acc =
      match Hashtbl.find_opt parents id with
      | Some p -> go p (p :: acc)
      | None -> acc
    in
    List.length (go id [])
  in
  List.map
    (fun (id, t) ->
      let kids = match t with Elem (_, k) -> List.length k | Txt _ -> 0 in
      let desc = Hashtbl.find subtree_size id - 1 in
      let anc = ancestors id in
      (* following siblings: siblings with a greater preorder id *)
      let fsib =
        match Hashtbl.find_opt parents id with
        | None -> 0
        | Some p ->
          List.length
            (List.filter
               (fun (cid, _) ->
                 cid > id && Hashtbl.find_opt parents cid = Some p)
               nodes)
      in
      (* following: nodes after id in document order, minus descendants *)
      let following = n - id - 1 - desc in
      (* preceding: nodes before id, minus ancestors *)
      let preceding = id - anc in
      (id, kids) |> fun (id, kids) -> (kids, desc, anc, fsib, following, preceding) |> fun x -> ignore id; x)
    nodes

let prop_axes_match (root : rtree) : bool =
  let ok = ref true in
  Test_util.with_db (fun db ->
      let xml = rtree_to_xml root in
      (* text nodes "t" between elements survive because they are not
         whitespace *)
      ignore (Test_util.load db "d" xml);
      Database.with_txn db (fun _ st ->
          let dd = Test_util.doc_desc st "d" in
          let stored =
            List.hd (Node.children st dd)
            :: List.of_seq
                 (Traverse.descendants_walk st (List.hd (Node.children st dd)))
          in
          let expected = ref_axis_counts root in
          if List.length stored <> List.length expected then ok := false
          else
            List.iter2
              (fun d (kids, desc, anc, fsib, following, preceding) ->
                let len seq = Seq.length seq in
                let checks =
                  [
                    ("children", List.length (Node.children st d), kids);
                    ("descendants", len (Traverse.descendants_walk st d), desc);
                    (* the stored tree has a document node above the
                       root element: one extra ancestor *)
                    ("ancestors", len (Traverse.ancestors st d), anc + 1);
                    ("fsib", len (Traverse.following_siblings st d), fsib);
                    ("following", len (Traverse.following st d), following);
                    ("preceding", len (Traverse.preceding st d), preceding);
                  ]
                in
                List.iter
                  (fun (name, got, want) ->
                    if got <> want then begin
                      Printf.printf "axis %s: got %d want %d (doc %s)\n" name
                        got want xml;
                      ok := false
                    end)
                  checks)
              stored expected));
  !ok

(* schema-driven descendant scans agree with walks on random docs *)
let prop_schema_scan_agrees (root : rtree) : bool =
  let ok = ref true in
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" (rtree_to_xml root));
      Database.with_txn db (fun _ st ->
          let dd = Test_util.doc_desc st "d" in
          List.iter
            (fun nm ->
              let test = Traverse.element_test (Some (Sedna_util.Xname.make nm)) in
              let a =
                List.of_seq (Traverse.descendants_schema st ~test dd)
                |> List.map (fun d -> Node.handle st d)
              in
              let b =
                List.of_seq
                  (Traverse.filter_test st test (Traverse.descendants_walk st dd))
                |> List.map (fun d -> Node.handle st d)
              in
              if not (List.length a = List.length b && List.for_all2 Xptr.equal a b)
              then ok := false)
            [ "a"; "b"; "c"; "d" ]));
  !ok

let suite =
  [
    Test_util.qcheck_case ~count:60 "axes match reference DOM" arb_doc
      prop_axes_match;
    Test_util.qcheck_case ~count:60 "schema scan = walk on random docs" arb_doc
      prop_schema_scan_agrees;
  ]
