(* Second executor battery: namespaces, mixed node kinds (comments,
   processing instructions), deep labels spilling to the text store,
   serializer options, and miscellaneous edge cases. *)

open Sedna_core

let ns_fixture =
  {|<cat:root xmlns:cat="urn:catalog" xmlns="urn:default"><cat:entry n="1"/><entry n="2"/><plain/></cat:root>|}

let test_namespace_queries () =
  Test_util.with_doc ns_fixture (fun _db run ->
      (* unprefixed name tests match by local name when the query has
         no namespace context for them *)
      Alcotest.(check string) "local-name match crosses ns" "2"
        (run {|count(doc("d")//entry)|});
      Alcotest.(check string) "namespace-uri accessible" "urn:catalog"
        (run {|namespace-uri((doc("d")//*)[1])|});
      Alcotest.(check string) "prefixed name fn" "cat:root"
        (run {|name((doc("d")//*)[1])|}))

let mixed_fixture =
  {|<doc><!--intro--><?format page?><p>one</p><!--mid--><p>two</p></doc>|}

let test_mixed_kinds () =
  Test_util.with_doc mixed_fixture (fun _db run ->
      Alcotest.(check string) "comments" "2"
        (run {|count(doc("d")/doc/comment())|});
      Alcotest.(check string) "pi" "1"
        (run {|count(doc("d")/doc/processing-instruction())|});
      Alcotest.(check string) "pi by target" "1"
        (run {|count(doc("d")/doc/processing-instruction("format"))|});
      Alcotest.(check string) "pi target mismatch" "0"
        (run {|count(doc("d")/doc/processing-instruction("other"))|});
      Alcotest.(check string) "all node kinds" "5"
        (run {|count(doc("d")/doc/node())|});
      Alcotest.(check string) "comment content" "intro"
        (run {|string((doc("d")//comment())[1])|}))

let test_deep_labels_overflow () =
  (* depth ~40 exceeds the 15-byte inline label area: labels overflow
     into the text store and navigation keeps working *)
  Test_util.with_db (fun db ->
      let events = Sedna_workloads.Generators.deep ~depth:40 () in
      ignore (Test_util.load_events db "deep" events);
      Database.with_txn db (fun _ st ->
          Test_util.check_invariants st "deep";
          let dd = Test_util.doc_desc st "deep" in
          let leaf =
            List.of_seq
              (Traverse.descendants_schema st
                 ~test:(Traverse.element_test (Some (Sedna_util.Xname.make "leaf")))
                 dd)
            |> List.hd
          in
          let lbl = Node.label st leaf in
          Alcotest.(check bool) "label long enough to overflow" true
            (String.length (Sedna_nid.Nid.to_raw lbl) > 15);
          (* ancestor tests still work through the overflow *)
          let root_elem = List.hd (Node.children st dd) in
          Alcotest.(check bool) "ancestor across overflow" true
            (Sedna_nid.Nid.is_ancestor
               ~ancestor:(Node.label st root_elem) lbl);
          (* delete the deep chain: overflow labels are released without
             corrupting the text store *)
          Update_ops.delete_node st (Node.handle st (List.hd (Node.children st root_elem)));
          Test_util.check_invariants st "deep"));
  ()

(* XDM: the string value of an element or document is its descendant
   text only — comments and processing instructions among the children
   (or deeper) add nothing, on stored and constructed nodes alike. *)
let test_string_value_skips_comments_and_pis () =
  Test_util.with_db (fun db ->
      ignore
        (Test_util.load db "sv"
           "<a>x<!--c-->y<?p q?>z<b>w<!--d--><?e f?></b></a>");
      let q = Test_util.exec db in
      Alcotest.(check string) "stored element" "xyzw" (q {|string(doc("sv")/a)|});
      Alcotest.(check string) "stored document" "xyzw" (q {|string(doc("sv"))|});
      Alcotest.(check string) "stored leaf" "w" (q {|string(doc("sv")/a/b)|});
      Alcotest.(check string) "stored comment itself" "c"
        (q {|string(doc("sv")/a/comment())|});
      Alcotest.(check string) "constructed element" "xyzw"
        (q {|string(<a>x<!--c-->y<?p q?>z<b>w<!--d--></b></a>)|});
      Alcotest.(check string) "computed constructors" "tu"
        (q {|string(element e { text { "t" }, comment { "c" }, <?p i?>, element f { "u" } })|}))

let test_serializer_options () =
  let events = Sedna_xml.Xml_parser.events "<a><b>x</b><c/></a>" in
  let plain = Sedna_xml.Serializer.to_string events in
  Alcotest.(check string) "compact" "<a><b>x</b><c/></a>" plain;
  let opts = { Sedna_xml.Serializer.indent = true; xml_declaration = true } in
  let pretty = Sedna_xml.Serializer.to_string ~options:opts events in
  Alcotest.(check bool) "declaration" true
    (String.length pretty > 5 && String.sub pretty 0 5 = "<?xml");
  Alcotest.(check bool) "indented" true (String.contains pretty '\n')

let test_empty_document_queries () =
  Test_util.with_db (fun db ->
      ignore (Test_util.exec db {|CREATE DOCUMENT "empty"|});
      Alcotest.(check string) "no children" "0"
        (Test_util.exec db {|count(doc("empty")/*)|});
      Alcotest.(check string) "descendants" "0"
        (Test_util.exec db {|count(doc("empty")//node())|});
      (* and it can be filled afterwards *)
      ignore (Test_util.exec db {|UPDATE insert <late/> into doc("empty")|});
      Alcotest.(check string) "filled" "1"
        (Test_util.exec db {|count(doc("empty")/late)|}))

let test_long_text_values_via_query () =
  Test_util.with_db (fun db ->
      let big = String.make 30_000 'q' in
      ignore (Test_util.load db "d" (Printf.sprintf "<a><t>%s</t></a>" big));
      Alcotest.(check string) "length through the engine" "30000"
        (Test_util.exec db {|string-length(string(doc("d")/a/t))|});
      ignore
        (Test_util.exec db {|UPDATE replace $t in doc("d")/a/t with <t>small</t>|});
      Alcotest.(check string) "replaced" "small"
        (Test_util.exec db {|string(doc("d")/a/t)|}))

let test_multi_document_queries () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d1" "<r><x>1</x></r>");
      ignore (Test_util.load db "d2" "<r><x>2</x></r>");
      Alcotest.(check string) "cross-document sequence" "1 2"
        (Test_util.exec db
           {|for $x in (doc("d1")//x, doc("d2")//x) return string($x)|});
      Alcotest.(check string) "union across documents" "2"
        (Test_util.exec db {|count(doc("d1")//x | doc("d2")//x)|});
      Alcotest.(check string) "no cross-document identity" "false"
        (Test_util.exec db {|doc("d1")//x[1] is doc("d2")//x[1]|}))

let test_where_multiple_clauses () =
  Test_util.with_doc {|<r><i a="1" b="x"/><i a="2" b="y"/><i a="3" b="x"/></r>|}
    (fun _db run ->
      Alcotest.(check string) "two wheres" "3"
        (run
           {|for $i in doc("d")//i where $i/@a > 1 where $i/@b = "x"
             return string($i/@a)|});
      Alcotest.(check string) "let between fors" "2 6"
        (run
           {|for $i in doc("d")//i[@b = "x"]
             let $v := xs:integer(string($i/@a)) * 2
             return $v|}))

let test_constructor_in_predicate_is_materialized () =
  (* constructors inside predicates are NOT marked virtual: identity
     and navigation must behave *)
  Test_util.with_doc {|<r><x>1</x></r>|} (fun _db run ->
      Alcotest.(check string) "nav into constructed" "ok"
        (run {|if ((<w><i>5</i></w>)/i = 5) then "ok" else "bad"|}))

let test_comment_pi_updates () =
  Test_util.with_doc {|<r><a/></r>|} (fun db run ->
      ignore db;
      ignore (run {|UPDATE insert <!--note--> into doc("d")/r|});
      Alcotest.(check string) "comment inserted" "1"
        (run {|count(doc("d")/r/comment())|});
      ignore (run {|UPDATE delete doc("d")/r/comment()|});
      Alcotest.(check string) "comment deleted" "0"
        (run {|count(doc("d")/r/comment())|}))

let suite =
  [
    Alcotest.test_case "namespaces" `Quick test_namespace_queries;
    Alcotest.test_case "mixed node kinds" `Quick test_mixed_kinds;
    Alcotest.test_case "deep labels overflow" `Quick test_deep_labels_overflow;
    Alcotest.test_case "serializer options" `Quick test_serializer_options;
    Alcotest.test_case "string value: text only" `Quick
      test_string_value_skips_comments_and_pis;
    Alcotest.test_case "empty document" `Quick test_empty_document_queries;
    Alcotest.test_case "long text values" `Quick test_long_text_values_via_query;
    Alcotest.test_case "multi-document" `Quick test_multi_document_queries;
    Alcotest.test_case "where chains" `Quick test_where_multiple_clauses;
    Alcotest.test_case "constructor in predicate" `Quick
      test_constructor_in_predicate_is_materialized;
    Alcotest.test_case "comment/pi updates" `Quick test_comment_pi_updates;
  ]
