(* A moderate-scale integration pass: tens of thousands of nodes,
   mixed queries, updates, persistence across close/reopen, and a final
   integrity check — the whole stack under one roof. *)

open Sedna_core

let test_scale () =
  Test_util.with_dir @@ fun dir ->
  let db = Database.create ~buffer_frames:512 dir in
  let events =
    Sedna_workloads.Generators.auction ~items:500 ~people:400 ~auctions:300 ()
  in
  let _, nodes = Test_util.load_events db "a" events in
  Alcotest.(check bool) "tens of thousands of nodes" true (nodes > 20_000);
  (* the document spans many pages and several layers' worth of blocks *)
  let exec q = Test_util.exec db q in
  let items = exec {|count(doc("a")/site/regions/namerica/item)|} in
  Alcotest.(check string) "items" "500" items;
  let bidders = int_of_string (exec {|count(doc("a")//bidder)|}) in
  Alcotest.(check bool) "bidders populated" true (bidders > 300);
  (* index over a numeric field *)
  ignore
    (exec
       {|CREATE INDEX "qty" ON doc("a")/site/regions/namerica/item BY quantity AS xs:integer|});
  let by_scan = exec {|count(doc("a")//item[quantity = 3])|} in
  let by_index = exec {|count(index-scan("qty", 3))|} in
  Alcotest.(check string) "index agrees at scale" by_scan by_index;
  (* a batch of updates *)
  ignore (exec {|UPDATE delete doc("a")//item[quantity = 1]|});
  Alcotest.(check string) "index reflects the deletions" "0"
    (exec {|count(index-scan("qty", 1))|});
  let left = exec {|count(doc("a")//item)|} in
  ignore
    (exec {|UPDATE insert <audited/> into doc("a")/site/open_auctions/open_auction[bidder]|});
  (* persistence across close/reopen *)
  Database.close db;
  let db2 = Database.open_existing ~buffer_frames:512 dir in
  Alcotest.(check string) "item count stable" left
    (Test_util.exec db2 {|count(doc("a")//item)|});
  let audited = int_of_string (Test_util.exec db2 {|count(doc("a")//audited)|}) in
  Alcotest.(check bool) "audited inserted everywhere" true (audited > 200);
  Database.with_txn db2 (fun _ st ->
      Test_util.check_invariants st "a");
  Database.close db2

let test_many_documents () =
  Test_util.with_db (fun db ->
      for i = 1 to 40 do
        ignore
          (Test_util.load db
             (Printf.sprintf "doc%02d" i)
             (Printf.sprintf "<d n=\"%d\"><v>%d</v></d>" i (i * i)))
      done;
      Alcotest.(check int) "catalog holds all" 40
        (List.length (Catalog.document_names (Database.catalog db)));
      Alcotest.(check string) "query across picks the right one" "625"
        (Test_util.exec db {|string(doc("doc25")//v)|});
      ignore (Test_util.exec db {|DROP DOCUMENT "doc13"|});
      Alcotest.(check int) "one fewer" 39
        (List.length (Catalog.document_names (Database.catalog db)));
      (* the others are untouched *)
      Alcotest.(check string) "neighbours fine" "144 196"
        (Test_util.exec db
           {|(string(doc("doc12")//v), string(doc("doc14")//v))|}))

let suite =
  [
    Alcotest.test_case "auction at scale" `Slow test_scale;
    Alcotest.test_case "many documents" `Quick test_many_documents;
  ]
