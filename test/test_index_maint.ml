(* Value-index maintenance and the schema-driven child step, checked
   differentially: random update scripts against a full rebuild of
   every index, and random child steps against a plain sibling walk.
   Fixed scripts covering each anchor level are kept as regression
   cases; a shrunk counterexample found by either property belongs
   beside them. *)

open Sedna_core
module Ast = Sedna_xquery.Xq_ast
module Executor = Sedna_engine.Executor
module Xdm = Sedna_engine.Xdm

(* ---- index audit --------------------------------------------------------- *)

(* (sorted B-tree contents, full rebuild) of every index on [doc] *)
let index_states (st : Store.t) doc =
  let dd = Test_util.doc_desc st doc in
  List.map
    (fun (def : Catalog.index_def) ->
      ( def.Catalog.idx_name,
        List.sort compare
          (Btree.range (Btree.of_root st.Store.bm def.Catalog.idx_root) ()),
        Index_mgr.entries_for st def dd ))
    (Catalog.indexes_for_document st.Store.cat doc)
  |> List.sort compare

let with_read db f = Database.with_txn db (fun _ st -> f st)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_audit_reports_btree_drift () =
  Test_util.with_db (fun db ->
      ignore
        (Test_util.load db "d"
           {|<r><p id="a"><k>1</k></p><p id="b"><k>2</k></p></r>|});
      ignore
        (Test_util.exec db {|CREATE INDEX "pid" ON doc("d")/r/p BY @id AS xs:string|});
      let drift f =
        Database.with_txn db (fun _ st ->
            let def = Catalog.get_index st.Store.cat "pid" in
            let bt = Btree.of_root st.Store.bm def.Catalog.idx_root in
            f st bt;
            def.Catalog.idx_root <- Btree.root bt;
            Integrity.check_document st "d")
      in
      Alcotest.(check (list string)) "clean after build" [] (drift (fun _ _ -> ()));
      let h = ref Xptr.null in
      let errs =
        drift (fun st bt ->
            h := List.hd (Index_mgr.lookup_string st (Catalog.get_index st.Store.cat "pid") "a");
            Alcotest.(check bool) "deleted" true (Btree.delete bt ~key:"a" ~value:!h))
      in
      Alcotest.(check int) "one error for a deleted entry" 1 (List.length errs);
      Alcotest.(check bool) "names the missing entry" true
        (contains (List.hd errs) "misses the entry (\"a\"");
      let errs =
        drift (fun _ bt ->
            (* put the deleted entry back, then add a stray one *)
            Btree.insert bt ~key:"a" ~value:!h;
            Btree.insert bt ~key:"zz" ~value:!h)
      in
      Alcotest.(check int) "one error for an extra entry" 1 (List.length errs);
      Alcotest.(check bool) "names the extra entry" true
        (contains (List.hd errs) "holds an entry (\"zz\""))

(* ---- differential index maintenance --------------------------------------- *)

let fixture =
  {|<r><g id="g1"><p id="p1"><k>1</k><k>2</k></p><p id="p2"><k>3</k></p></g><g id="g2"><p id="p3"><k>4</k></p></g></r>|}

(* key paths: an attribute, a child element, two levels down, and the
   target itself; targets at depths 2, 3 and 4 *)
let indexes =
  [
    {|CREATE INDEX "pid" ON doc("d")/r/g/p BY @id AS xs:string|};
    {|CREATE INDEX "pk" ON doc("d")/r/g/p BY k AS xs:integer|};
    {|CREATE INDEX "gk" ON doc("d")/r/g BY p/k AS xs:string|};
    {|CREATE INDEX "kv" ON doc("d")/r/g/p/k BY text() AS xs:integer|};
  ]

(* each statement's anchor (the node [Index_mgr.with_refresh] brackets)
   sits above, at or below the indexed levels *)
type op =
  | Ins_g of int (* anchor r *)
  | Ins_p of int * int (* anchor g *)
  | Ins_k of int * int (* anchor p *)
  | Ins_text of int * int (* anchor k *)
  | Ins_before_p of int * int
  | Ins_after_k of int * int
  | Del_g of int
  | Del_p of int
  | Del_k of int
  | Del_id of int
  | Repl_k of int * int
  | Repl_p of int * int
  | Ren_p of int
  | Ren_q of int
  | Ren_id of int
  | Undeep_p of int

let stmt = function
  | Ins_g v ->
    Printf.sprintf {|UPDATE insert <g id="g%d"><p id="p%d"><k>%d</k></p></g> into doc("d")/r|} v v v
  | Ins_p (i, v) ->
    Printf.sprintf {|UPDATE insert <p id="p%d"><k>%d</k></p> into (doc("d")/r/g)[%d]|} v v i
  | Ins_k (i, v) -> Printf.sprintf {|UPDATE insert <k>%d</k> into (doc("d")//p)[%d]|} v i
  | Ins_text (i, v) -> Printf.sprintf {|UPDATE insert "%d" into (doc("d")//k)[%d]|} v i
  | Ins_before_p (i, v) ->
    Printf.sprintf {|UPDATE insert <p id="p%d"><k>%d</k></p> preceding (doc("d")//p)[%d]|} v v i
  | Ins_after_k (i, v) ->
    Printf.sprintf {|UPDATE insert <k>%d</k> following (doc("d")//k)[%d]|} v i
  | Del_g i -> Printf.sprintf {|UPDATE delete (doc("d")/r/g)[%d]|} i
  | Del_p i -> Printf.sprintf {|UPDATE delete (doc("d")//p)[%d]|} i
  | Del_k i -> Printf.sprintf {|UPDATE delete (doc("d")//k)[%d]|} i
  | Del_id i -> Printf.sprintf {|UPDATE delete (doc("d")//p)[%d]/@id|} i
  | Repl_k (i, v) ->
    Printf.sprintf {|UPDATE replace $x in (doc("d")//k)[%d] with <k>%d</k>|} i v
  | Repl_p (i, v) ->
    Printf.sprintf {|UPDATE replace $x in (doc("d")//p)[%d] with <p id="p%d"><k>%d</k></p>|} i v v
  | Ren_p i -> Printf.sprintf {|UPDATE rename (doc("d")//p)[%d] on q|} i
  | Ren_q i -> Printf.sprintf {|UPDATE rename (doc("d")//q)[%d] on p|} i
  | Ren_id i -> Printf.sprintf {|UPDATE rename (doc("d")//p)[%d]/@id on ident|} i
  | Undeep_p i -> Printf.sprintf {|UPDATE delete_undeep (doc("d")//p)[%d]|} i

let op_gen =
  QCheck.Gen.(
    let pos = int_range 1 4 and v = int_range 0 9 in
    frequency
      [
        (1, map (fun v -> Ins_g v) v);
        (3, map2 (fun i v -> Ins_p (i, v)) pos v);
        (3, map2 (fun i v -> Ins_k (i, v)) pos v);
        (2, map2 (fun i v -> Ins_text (i, v)) pos v);
        (1, map2 (fun i v -> Ins_before_p (i, v)) pos v);
        (1, map2 (fun i v -> Ins_after_k (i, v)) pos v);
        (1, map (fun i -> Del_g i) pos);
        (2, map (fun i -> Del_p i) pos);
        (2, map (fun i -> Del_k i) pos);
        (1, map (fun i -> Del_id i) pos);
        (2, map2 (fun i v -> Repl_k (i, v)) pos v);
        (1, map2 (fun i v -> Repl_p (i, v)) pos v);
        (1, map (fun i -> Ren_p i) pos);
        (1, map (fun i -> Ren_q i) pos);
        (1, map (fun i -> Ren_id i) pos);
        (1, map (fun i -> Undeep_p i) pos);
      ])

let arb_script =
  QCheck.make
    ~print:(fun ops -> String.concat "\n" (List.map stmt ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 12) op_gen)

(* Run the script; after every statement each index must equal a full
   build and the document must pass the integrity checker. *)
let script_keeps_indexes (ops : op list) : bool =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" fixture);
      List.iter (fun ddl -> ignore (Test_util.exec db ddl)) indexes;
      List.for_all
        (fun op ->
          (try ignore (Test_util.exec db (stmt op))
           with Sedna_util.Error.Sedna_error _ -> ());
          with_read db (fun st ->
              let ok =
                List.for_all (fun (_, stored, want) -> stored = want) (index_states st "d")
              in
              if not ok then Printf.printf "index drift after: %s\n" (stmt op);
              ok && Integrity.check_document st "d" = []))
        ops)

(* fixed scripts: an anchor below the indexed levels, renames that move
   targets out of and back into an index path, key deletion and
   renaming, and replacements around an unwrapped target *)
let regression_scripts =
  [
    [ Ins_text (1, 7) ];
    [ Ren_p 1; Ins_k (1, 5); Ren_q 1 ];
    [ Del_id 2; Ren_id 1 ];
    [ Undeep_p 1; Ins_g 3; Del_g 1 ];
    [ Repl_p (2, 2); Ins_before_p (1, 2) ];
  ]

let test_regressions () =
  List.iter
    (fun ops ->
      Alcotest.(check bool) (String.concat "; " (List.map stmt ops)) true
        (script_keeps_indexes ops))
    regression_scripts

(* ---- documents resolved from the root, in a large collection -------------- *)

let test_many_documents () =
  Test_util.with_db (fun db ->
      let run q = Test_util.exec db q in
      ignore (run {|CREATE COLLECTION "c"|});
      let names = List.init 40 (Printf.sprintf "c%02d") in
      List.iter
        (fun n ->
          ignore (run (Printf.sprintf {|CREATE DOCUMENT "%s" IN COLLECTION "c"|} n));
          ignore
            (run (Printf.sprintf {|UPDATE insert <r><p id="%s-0"/></r> into doc("%s")|} n n)))
        names;
      ignore (run {|CREATE INDEX "i17" ON doc("c17")/r/p BY @id AS xs:string|});
      ignore (run {|CREATE INDEX "i33" ON doc("c33")/r/p BY @id AS xs:string|});
      (* updates on every document: only the indexed ones change an index *)
      List.iter
        (fun n ->
          ignore
            (run (Printf.sprintf {|UPDATE insert <p id="%s-1"/> into doc("%s")/r|} n n)))
        names;
      Database.with_txn db (fun _ st ->
          List.iter
            (fun n ->
              let root = Test_util.doc_desc st n in
              let doc =
                Catalog.document_of_schema_root st.Store.cat (Node.snode st root).Catalog.id
              in
              Alcotest.(check (option string)) ("resolves " ^ n) (Some n)
                (Option.map (fun (d : Catalog.doc) -> d.Catalog.doc_name) doc);
              Test_util.check_invariants st n)
            names;
          let ids name =
            List.map (fun (k, _) -> k)
              (Btree.range
                 (Btree.of_root st.Store.bm (Catalog.get_index st.Store.cat name).Catalog.idx_root)
                 ())
          in
          Alcotest.(check (list string)) "i17" [ "c17-0"; "c17-1" ] (ids "i17");
          Alcotest.(check (list string)) "i33" [ "c33-0"; "c33-1" ] (ids "i33"));
      ignore (run {|DROP DOCUMENT "c17"|});
      Database.with_txn db (fun _ st ->
          Alcotest.(check int) "dropped document unregistered" 39
            (Hashtbl.length st.Store.cat.Catalog.doc_roots)))

(* ---- differential child steps ---------------------------------------------- *)

type tree = E of int * tree list | T of int

let elem_names = [| "a"; "b"; "c"; "p:a"; "p:b" |]

let tree_gen =
  QCheck.Gen.(
    sized_size (int_range 0 4)
    @@ fix (fun self depth ->
           if depth = 0 then map (fun v -> T v) (int_range 0 3)
           else
             frequency
               [
                 (1, map (fun v -> T v) (int_range 0 3));
                 ( 4,
                   map2
                     (fun n kids -> E (n, kids))
                     (int_range 0 (Array.length elem_names - 1))
                     (list_size (int_range 0 5) (self (depth - 1))) );
               ]))

(* the namespaced variant binds the default namespace and "p"; the
   plain one maps "p:x" to plain "x" *)
let to_xml ~ns kids =
  let b = Buffer.create 256 in
  let rec go = function
    | T v -> Buffer.add_string b (Printf.sprintf "t%d" v)
    | E (n, kids) ->
      let name =
        let s = elem_names.(n) in
        if ns then s else List.nth (String.split_on_char ':' s) (if String.contains s ':' then 1 else 0)
      in
      Buffer.add_string b (Printf.sprintf "<%s x=\"%d\">" name n);
      List.iter go kids;
      Buffer.add_string b (Printf.sprintf "</%s>" name)
  in
  Buffer.add_string b
    (if ns then {|<root xmlns="urn:d" xmlns:p="urn:p">|} else "<root>");
  List.iter go kids;
  Buffer.add_string b "</root>";
  Buffer.contents b

let tests =
  let open Sedna_util in
  [|
    Ast.Name_test (Xname.make "a");
    Ast.Name_test (Xname.make "b");
    Ast.Name_test (Xname.make ~uri:"urn:p" "a");
    Ast.Name_test (Xname.make ~uri:"urn:d" "b");
    Ast.Name_test (Xname.make "zz");
    Ast.Kind_element (Some (Xname.make "a"));
    Ast.Wildcard;
    Ast.Kind_text;
    Ast.Kind_any;
  |]

let arb_child_case =
  QCheck.make
    ~print:(fun (ns, kids, t, pos) ->
      Printf.sprintf "%s  test #%d  pos %s" (to_xml ~ns kids) t
        (match pos with None -> "-" | Some p -> string_of_int p))
    QCheck.Gen.(
      quad bool
        (list_size (int_range 1 5) tree_gen)
        (int_range 0 (Array.length tests - 1))
        (opt (int_range 1 3)))

(* For every stored element, the executor's child step must select
   exactly what a sibling walk filtered by the same test selects. *)
let child_step_matches_walk (ns, kids, t, pos) : bool =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" (to_xml ~ns kids));
      with_read db (fun st ->
          let ctx0 = Executor.initial_ctx st in
          let test = tests.(t) in
          let step =
            {
              Ast.axis = Ast.Child;
              test;
              preds = (match pos with None -> [] | Some p -> [ Ast.Int_lit p ]);
            }
          in
          let show ds = String.concat "" (List.map (Node_ser.to_string st) ds) in
          Traverse.descendant_or_self_walk st (Test_util.doc_desc st "d")
          |> Seq.filter (fun d -> Node.kind st d <> Catalog.Text)
          |> Seq.for_all (fun d ->
                 let ctx = { ctx0 with Executor.item = Some (Xdm.N (Xdm.Stored d)) } in
                 let got =
                   Executor.eval ctx (Ast.Path (Ast.Context_item, [ step ]))
                   |> List.of_seq
                   |> List.map (function
                        | Xdm.N (Xdm.Stored c) -> c
                        | _ -> Alcotest.fail "child step returned a non-stored item")
                 in
                 let all =
                   Traverse.children st d
                   |> Seq.filter (fun c -> Executor.test_matches ctx test (Xdm.Stored c))
                   |> List.of_seq
                 in
                 let want =
                   match pos with
                   | None -> all
                   | Some p -> Option.to_list (List.nth_opt all (p - 1))
                 in
                 let ok = List.map (Node.handle st) got = List.map (Node.handle st) want in
                 if not ok then
                   Printf.printf "child step differs under %s: got %s want %s\n"
                     (Node_ser.to_string st d) (show got) (show want);
                 ok)))

let test_namespaced_child_step () =
  (* an unprefixed name test matches both namespaces, in document order *)
  Alcotest.(check bool) "merged by label" true
    (child_step_matches_walk
       (true, [ E (3, []); E (0, [ T 1 ]); E (3, []); E (0, []) ], 0, None));
  Alcotest.(check bool) "positional over the merge" true
    (child_step_matches_walk (true, [ E (0, []); E (3, []); E (0, []) ], 0, Some 2))

let suite =
  [
    Alcotest.test_case "index audit reports B-tree drift" `Quick
      test_audit_reports_btree_drift;
    Test_util.qcheck_case ~count:40 "random updates keep every index equal to a rebuild"
      arb_script script_keeps_indexes;
    Alcotest.test_case "index maintenance regression scripts" `Quick test_regressions;
    Alcotest.test_case "document resolved from its root among 40" `Quick
      test_many_documents;
    Test_util.qcheck_case ~count:60 "child step equals sibling walk + filter"
      arb_child_case child_step_matches_walk;
    Alcotest.test_case "child step on a namespaced document" `Quick
      test_namespaced_child_step;
  ]
