(* XUpdate statement tests, each validated against the storage
   invariant checker. *)

open Sedna_core

let fixture = {|<inv><item sku="a"><qty>5</qty></item><item sku="b"><qty>3</qty></item></inv>|}

let with_inv f =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "inv" fixture);
      f db (fun q -> Test_util.exec db q);
      Database.with_txn db (fun _ st ->
          Test_util.check_invariants st "inv"))

let test_insert_into () =
  with_inv (fun _db run ->
      ignore (run {|UPDATE insert <item sku="c"><qty>9</qty></item> into doc("inv")/inv|});
      Alcotest.(check string) "appended last" "c"
        (run {|string(doc("inv")/inv/item[last()]/@sku)|});
      Alcotest.(check string) "count" "3" (run {|count(doc("inv")//item)|}))

let test_insert_preceding_following () =
  with_inv (fun _db run ->
      ignore (run {|UPDATE insert <item sku="x"/> preceding doc("inv")/inv/item[1]|});
      Alcotest.(check string) "first" "x" (run {|string(doc("inv")/inv/item[1]/@sku)|});
      ignore (run {|UPDATE insert <item sku="y"/> following doc("inv")/inv/item[@sku="a"]|});
      Alcotest.(check string) "order" "x a y b"
        (run {|string-join(for $i in doc("inv")/inv/item return string($i/@sku), " ")|}))

let test_insert_multiple_items () =
  with_inv (fun _db run ->
      ignore (run {|UPDATE insert (<note>one</note>, "two", <note>three</note>) into doc("inv")/inv/item[1]|});
      Alcotest.(check string) "notes" "2" (run {|count(doc("inv")//item[1]/note)|});
      (* string value concatenates every descendant text node in order *)
      Alcotest.(check string) "text item too" "5onetwothree"
        (run {|string(doc("inv")/inv/item[1])|}))

let test_insert_computed_content () =
  with_inv (fun _db run ->
      ignore
        (run
           {|UPDATE insert <total>{sum(doc("inv")//qty)}</total> into doc("inv")/inv|});
      Alcotest.(check string) "computed total" "8"
        (run {|string(doc("inv")/inv/total)|}))

let test_delete () =
  with_inv (fun _db run ->
      ignore (run {|UPDATE delete doc("inv")//item[@sku="a"]|});
      Alcotest.(check string) "one left" "1" (run {|count(doc("inv")//item)|});
      Alcotest.(check string) "b remains" "b"
        (run {|string(doc("inv")/inv/item[1]/@sku)|}))

let test_delete_all_matching () =
  with_inv (fun _db run ->
      ignore (run {|UPDATE delete doc("inv")//qty|});
      Alcotest.(check string) "no qty" "0" (run {|count(doc("inv")//qty)|});
      Alcotest.(check string) "items intact" "2" (run {|count(doc("inv")//item)|}))

let test_delete_undeep () =
  with_inv (fun _db run ->
      (* remove the item wrapper, keep its children *)
      ignore (run {|UPDATE delete_undeep doc("inv")/inv/item[@sku="a"]|});
      Alcotest.(check string) "qty lifted to inv" "5"
        (run {|string(doc("inv")/inv/qty[1])|});
      Alcotest.(check string) "one item left" "1" (run {|count(doc("inv")//item)|}))

let test_replace () =
  with_inv (fun _db run ->
      ignore
        (run
           {|UPDATE replace $q in doc("inv")//qty
             with <qty>{xs:integer(string($q)) * 10}</qty>|});
      Alcotest.(check string) "both scaled" "50 30"
        (run {|string-join(for $q in doc("inv")//qty return string($q), " ")|}))

let test_rename () =
  with_inv (fun _db run ->
      ignore (run {|UPDATE rename doc("inv")//item on product|});
      Alcotest.(check string) "renamed" "2" (run {|count(doc("inv")//product)|});
      Alcotest.(check string) "none left" "0" (run {|count(doc("inv")//item)|});
      (* content and attributes survive the rename *)
      Alcotest.(check string) "attrs survive" "a b"
        (run {|string-join(for $p in doc("inv")//product return string($p/@sku), " ")|});
      Alcotest.(check string) "content survives" "5 3"
        (run {|string-join(for $p in doc("inv")//product return string($p/qty), " ")|}))

let test_rename_attribute () =
  with_inv (fun _db run ->
      ignore (run {|UPDATE rename doc("inv")//item[1]/@sku on code|});
      Alcotest.(check string) "new attr" "a"
        (run {|string(doc("inv")/inv/item[1]/@code)|});
      Alcotest.(check string) "old gone" ""
        (run {|string(doc("inv")/inv/item[1]/@sku)|}))

let test_update_with_moved_targets () =
  (* many targets selected up front; handles stay valid while earlier
     updates relocate descriptors (paper §5.2) *)
  Test_util.with_db (fun db ->
      let events = Sedna_workloads.Generators.wide ~kinds:1 ~children:300 () in
      ignore (Test_util.load_events db "w" events);
      ignore
        (Test_util.exec db
           {|UPDATE insert <mark/> into doc("w")/root/kind0|});
      Alcotest.(check string) "all 300 updated" "300"
        (Test_util.exec db {|count(doc("w")//mark)|});
      Database.with_txn db (fun _ st ->
          Test_util.check_invariants st "w"))

let test_update_copies_not_aliases () =
  with_inv (fun _db run ->
      (* inserting an existing node inserts a copy: the original stays *)
      ignore (run {|UPDATE insert doc("inv")/inv/item[1]/qty into doc("inv")/inv/item[2]|});
      Alcotest.(check string) "copied" "2" (run {|count(doc("inv")/inv/item[2]/qty)|});
      Alcotest.(check string) "original intact" "1"
        (run {|count(doc("inv")/inv/item[1]/qty)|}))

let suite =
  [
    Alcotest.test_case "insert into" `Quick test_insert_into;
    Alcotest.test_case "insert preceding/following" `Quick test_insert_preceding_following;
    Alcotest.test_case "insert sequence" `Quick test_insert_multiple_items;
    Alcotest.test_case "insert computed" `Quick test_insert_computed_content;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "delete all matching" `Quick test_delete_all_matching;
    Alcotest.test_case "delete_undeep" `Quick test_delete_undeep;
    Alcotest.test_case "replace" `Quick test_replace;
    Alcotest.test_case "rename element" `Quick test_rename;
    Alcotest.test_case "rename attribute" `Quick test_rename_attribute;
    Alcotest.test_case "many targets" `Quick test_update_with_moved_targets;
    Alcotest.test_case "insert copies" `Quick test_update_copies_not_aliases;
  ]
