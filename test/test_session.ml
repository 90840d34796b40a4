(* Session, governor, DDL, collections and index tests. *)

open Sedna_core

let test_autocommit_isolation () =
  Test_util.with_db (fun db ->
      ignore (Test_util.exec db {|CREATE DOCUMENT "d"|});
      ignore (Test_util.exec db {|UPDATE insert <a><b>1</b></a> into doc("d")|});
      Alcotest.(check string) "visible" "1" (Test_util.exec db {|string(doc("d")//b)|}))

let test_collections () =
  Test_util.with_db (fun db ->
      ignore (Test_util.exec db {|CREATE COLLECTION "col"|});
      ignore (Test_util.exec db {|CREATE DOCUMENT "d1" IN COLLECTION "col"|});
      ignore (Test_util.exec db {|CREATE DOCUMENT "d2" IN COLLECTION "col"|});
      ignore (Test_util.exec db {|UPDATE insert <x>1</x> into doc("d1")|});
      ignore (Test_util.exec db {|UPDATE insert <x>2</x> into doc("d2")|});
      Alcotest.(check string) "collection()" "2"
        (Test_util.exec db {|count(collection("col")//x)|});
      ignore (Test_util.exec db {|DROP COLLECTION "col"|});
      Alcotest.(check bool) "docs gone" true
        (Catalog.find_document (Database.catalog db) "d1" = None))

(* collection() names documents wherever it sits in the tree: every one
   of these must lock the collection's member. *)
let test_collection_locks () =
  Test_util.with_db (fun db ->
      ignore (Test_util.exec db {|CREATE COLLECTION "c"|});
      ignore (Test_util.exec db {|CREATE DOCUMENT "d1" IN COLLECTION "c"|});
      ignore (Test_util.exec db {|UPDATE insert <r><x/><y/></r> into doc("d1")|});
      let locks q =
        Sedna_db.Session.statement_locks db (Sedna_xquery.Xq_parser.parse_statement q)
      in
      Alcotest.(check bool) "update under if" true
        (locks {|UPDATE delete if (1 = 1) then collection("c")/r/x else ()|}
         = [ ("d1", Lock_mgr.Exclusive) ]);
      List.iter
        (fun q ->
          Alcotest.(check bool) q true (locks q = [ ("d1", Lock_mgr.Shared) ]))
        [
          {|count(collection("c")/r/x)|};
          {|count(collection("c"))|};
          {|<a>{collection("c")/r}</a>|};
          {|some $x in (1) satisfies exists(collection("c")/r)|};
          {|for $i in (1, 2) order by count(collection("c")/r/x) return $i|};
          {|declare variable $v := collection("c"); count($v)|};
        ];
      ignore (Test_util.exec db {|UPDATE delete if (1 = 1) then collection("c")/r/x else ()|});
      Alcotest.(check string) "update applied" "<r><y/></r>"
        (Test_util.exec db {|doc("d1")/r|}))

let test_drop_document () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a><b/></a>");
      let before = Catalog.schema_size
          (Catalog.snode_by_id (Database.catalog db)
             (Catalog.get_document (Database.catalog db) "d").Catalog.schema_root_id)
      in
      Alcotest.(check bool) "schema built" true (before >= 3);
      ignore (Test_util.exec db {|DROP DOCUMENT "d"|});
      Alcotest.(check bool) "document gone" true
        (Catalog.find_document (Database.catalog db) "d" = None);
      (match Test_util.exec db {|doc("d")|} with
       | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.No_such_document, _) -> ()
       | r -> Alcotest.failf "doc() on dropped document returned %s" r))

let test_governor () =
  let g = Sedna_db.Governor.create () in
  Test_util.with_dir @@ fun dir ->
  ignore (Sedna_db.Governor.create_database g ~name:"main" ~dir);
  let _id, s = Sedna_db.Governor.connect g ~database:"main" in
  ignore (Sedna_db.Session.execute s {|CREATE DOCUMENT "d"|});
  Alcotest.(check int) "one session" 1 (Sedna_db.Governor.session_count g);
  let id2, s2 = Sedna_db.Governor.connect g ~database:"main" in
  Sedna_db.Session.begin_txn s2;
  (* disconnecting rolls back the open transaction *)
  Sedna_db.Governor.disconnect g id2;
  Alcotest.(check int) "one session again" 1 (Sedna_db.Governor.session_count g);
  (match Sedna_db.Governor.connect g ~database:"nope" with
   | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.No_such_document, _) -> ()
   | _ -> Alcotest.fail "connect to unknown database succeeded");
  Sedna_db.Governor.shutdown g;
  Alcotest.(check int) "no sessions" 0 (Sedna_db.Governor.session_count g)

let test_multi_statement_txn () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a><n>0</n></a>");
      let s = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn s;
      ignore (Sedna_db.Session.execute s {|UPDATE replace $n in doc("d")/a/n with <n>1</n>|});
      (* the same transaction reads its own write *)
      Alcotest.(check string) "read own write" "1"
        (Sedna_db.Session.execute_string s {|string(doc("d")/a/n)|});
      ignore (Sedna_db.Session.execute s {|UPDATE insert <m/> into doc("d")/a|});
      Sedna_db.Session.commit s;
      Alcotest.(check string) "both applied" "1 1"
        (Test_util.exec db {|(string(doc("d")/a/n), count(doc("d")/a/m))|}))

(* ---- indexes ---------------------------------------------------------- *)

let test_index_lifecycle () =
  Test_util.with_db (fun db ->
      let events = Sedna_workloads.Generators.library ~books:80 () in
      ignore (Test_util.load_events db "lib" events);
      ignore
        (Test_util.exec db
           {|CREATE INDEX "price" ON doc("lib")/library/book BY price AS xs:integer|});
      (* point lookup returns the same books as a scan *)
      let via_scan =
        Test_util.exec db {|count(doc("lib")/library/book[price = 50])|}
      in
      let via_index = Test_util.exec db {|count(index-scan("price", 50))|} in
      Alcotest.(check string) "index agrees with scan" via_scan via_index;
      (* range scan *)
      let ge90_scan = Test_util.exec db {|count(doc("lib")//book[price >= 90])|} in
      let ge90_idx = Test_util.exec db {|count(index-scan("price", 90, "GE"))|} in
      Alcotest.(check string) "range agrees" ge90_scan ge90_idx;
      ignore (Test_util.exec db {|DROP INDEX "price"|});
      match Test_util.exec db {|index-scan("price", 50)|} with
      | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.No_such_index, _) -> ()
      | r -> Alcotest.failf "dropped index still answered: %s" r)

let test_index_maintenance () =
  Test_util.with_db (fun db ->
      ignore
        (Test_util.load db "s"
           {|<shop><it><nm>apple</nm></it><it><nm>pear</nm></it></shop>|});
      ignore
        (Test_util.exec db
           {|CREATE INDEX "nm" ON doc("s")/shop/it BY nm AS xs:string|});
      Alcotest.(check string) "initial" "1"
        (Test_util.exec db {|count(index-scan("nm", "apple"))|});
      (* insert a new item: the index sees it *)
      ignore
        (Test_util.exec db {|UPDATE insert <it><nm>apple</nm></it> into doc("s")/shop|});
      Alcotest.(check string) "after insert" "2"
        (Test_util.exec db {|count(index-scan("nm", "apple"))|});
      (* delete one: entry removed *)
      ignore (Test_util.exec db {|UPDATE delete doc("s")/shop/it[1]|});
      Alcotest.(check string) "after delete" "1"
        (Test_util.exec db {|count(index-scan("nm", "apple"))|});
      Alcotest.(check string) "pear untouched" "1"
        (Test_util.exec db {|count(index-scan("nm", "pear"))|}))

let test_index_survives_restart () =
  Test_util.with_dir @@ fun dir ->
  let db = Database.create dir in
  ignore (Test_util.load db "s" {|<shop><it><nm>kiwi</nm></it></shop>|});
  ignore
    (Test_util.exec db {|CREATE INDEX "nm" ON doc("s")/shop/it BY nm AS xs:string|});
  Database.close db;
  let db2 = Database.open_existing dir in
  Alcotest.(check string) "index after restart" "1"
    (Test_util.exec db2 {|count(index-scan("nm", "kiwi"))|});
  Database.close db2

let suite =
  [
    Alcotest.test_case "autocommit" `Quick test_autocommit_isolation;
    Alcotest.test_case "collections" `Quick test_collections;
    Alcotest.test_case "collection locks anywhere in the tree" `Quick test_collection_locks;
    Alcotest.test_case "drop document" `Quick test_drop_document;
    Alcotest.test_case "governor" `Quick test_governor;
    Alcotest.test_case "multi-statement txn" `Quick test_multi_statement_txn;
    Alcotest.test_case "index lifecycle" `Quick test_index_lifecycle;
    Alcotest.test_case "index maintenance" `Quick test_index_maintenance;
    Alcotest.test_case "index survives restart" `Quick test_index_survives_restart;
  ]
