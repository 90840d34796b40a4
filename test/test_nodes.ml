(* Node storage tests: bulk loading, navigation, schema-driven scans,
   and structural updates — each followed by the full invariant check
   of Test_util. *)

open Sedna_core

let fig2 =
  {|<library><book><title>Foundations of Databases</title><author>Abiteboul</author><author>Hull</author><author>Vianu</author></book><book><title>An Introduction to Database Systems</title><author>Date</author><issue><publisher>Addison-Wesley</publisher><year>2004</year></issue></book><paper><title>A Relational Model for Large Shared Data Banks</title><author>Codd</author></paper></library>|}

let with_fig2 f =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" fig2);
      Database.with_txn db (fun _ st ->
          f st))

let names st ds =
  List.map
    (fun d ->
      match Node.name st d with
      | Some n -> Sedna_util.Xname.to_string n
      | None -> Catalog.kind_name (Node.kind st d))
    ds

let test_load_structure () =
  with_fig2 (fun st ->
      Test_util.check_invariants st "d";
      let dd = Test_util.doc_desc st "d" in
      let lib = List.hd (Node.children st dd) in
      Alcotest.(check (list string)) "library children"
        [ "book"; "book"; "paper" ]
        (names st (Node.children st lib));
      let b1 = List.hd (Node.children st lib) in
      Alcotest.(check (list string)) "book1 children"
        [ "title"; "author"; "author"; "author" ]
        (names st (Node.children st b1)))

let test_schema_shape () =
  with_fig2 (fun st ->
      let doc = Catalog.get_document st.Store.cat "d" in
      let root = Catalog.snode_by_id st.Store.cat doc.Catalog.schema_root_id in
      (* descriptive schema: every distinct path appears exactly once *)
      let lib = List.hd root.Catalog.children in
      Alcotest.(check int) "library has 2 element children in schema" 2
        (List.length
           (List.filter
              (fun (s : Catalog.snode) -> s.Catalog.kind = Catalog.Element)
              lib.Catalog.children));
      let book =
        List.find
          (fun (s : Catalog.snode) ->
            match s.Catalog.name with
            | Some n -> Sedna_util.Xname.local n = "book"
            | None -> false)
          lib.Catalog.children
      in
      Alcotest.(check int) "book snode population" 2 book.Catalog.node_count)

let test_schema_scan_order () =
  with_fig2 (fun st ->
      let doc = Catalog.get_document st.Store.cat "d" in
      let root = Catalog.snode_by_id st.Store.cat doc.Catalog.schema_root_id in
      let authors =
        List.find_opt
          (fun (s : Catalog.snode) ->
            match s.Catalog.name with
            | Some n -> Sedna_util.Xname.local n = "author"
            | None -> false)
          (Catalog.schema_descendants root)
      in
      match authors with
      | None -> Alcotest.fail "no author schema node"
      | Some s ->
        let vals =
          List.of_seq (Traverse.scan_snode st s)
          |> List.map (fun d -> Node_ser.string_value st d)
        in
        (* nodes of one schema node come out in document order even
           though they live under different parents *)
        Alcotest.(check (list string)) "authors doc order"
          [ "Abiteboul"; "Hull"; "Vianu"; "Date" ]
          vals)

let test_descendants_schema_vs_walk () =
  (* the schema-driven descendant scan and the pointer walk agree *)
  Test_util.with_db (fun db ->
      let events =
        Sedna_workloads.Generators.auction ~items:30 ~people:20 ~auctions:15 ()
      in
      ignore (Test_util.load_events db "a" events);
      Database.with_txn db (fun _ st ->
          let dd = Test_util.doc_desc st "a" in
          List.iter
            (fun nm ->
              let test =
                Traverse.element_test (Some (Sedna_util.Xname.make nm))
              in
              let via_schema =
                List.of_seq (Traverse.descendants_schema st ~test dd)
              in
              let via_walk =
                List.of_seq
                  (Traverse.filter_test st test (Traverse.descendants_walk st dd))
              in
              Alcotest.(check int)
                (nm ^ " counts agree")
                (List.length via_walk) (List.length via_schema);
              List.iter2
                (fun a b ->
                  Alcotest.(check bool) "same node" true
                    (Xptr.equal (Node.handle st a) (Node.handle st b)))
                via_schema via_walk)
            [ "item"; "bidder"; "name"; "listitem" ]))

let test_middle_insert_order () =
  with_fig2 (fun st ->
      let dd = Test_util.doc_desc st "d" in
      let lib = List.hd (Node.children st dd) in
      let kids = Node.children st lib in
      let b1 = List.nth kids 0 and b2 = List.nth kids 1 in
      (* insert 50 books between book1 and book2 *)
      let left = ref (Node.handle st b1) in
      let right = Node.handle st b2 in
      for i = 1 to 50 do
        let h =
          Update_ops.insert_child st ~parent_handle:(Node.handle st lib)
            ~left:(Some !left) ~right:(Some right) ~kind:Catalog.Element
            ~name:(Some (Sedna_util.Xname.make "book"))
            ~value:None
        in
        ignore i;
        left := h
      done;
      Test_util.check_invariants st "d";
      let lib = List.hd (Node.children st (Test_util.doc_desc st "d")) in
      Alcotest.(check int) "children" 53 (List.length (Node.children st lib)))

let test_block_split_preserves_order () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<root><x>0</x><x>1</x></root>");
      Database.with_txn db (fun _ st ->
          let root () =
            List.hd (Node.children st (Test_util.doc_desc st "d"))
          in
          (* repeatedly insert right after the first x: forces splits in
             the middle of the chain *)
          let first () = List.hd (Node.children st (root ())) in
          for i = 0 to 400 do
            let f = first () in
            ignore
              (Update_ops.insert_child st
                 ~parent_handle:(Node.handle st (root ()))
                 ~left:(Some (Node.handle st f))
                 ~right:None ~kind:Catalog.Element
                 ~name:(Some (Sedna_util.Xname.make "x"))
                 ~value:None);
            if i mod 100 = 0 then Test_util.check_invariants st "d"
          done;
          Test_util.check_invariants st "d";
          Alcotest.(check int) "children" 403
            (List.length (Node.children st (root ())))))

let test_widening () =
  Test_util.with_db (fun db ->
      (* a parent acquires children of many new schema kinds after load:
         each new kind forces the delayed widening relocation *)
      ignore (Test_util.load db "d" "<root><p/><p/><p/></root>");
      Database.with_txn db (fun _ st ->
          let root = List.hd (Node.children st (Test_util.doc_desc st "d")) in
          (* capture handles, not descriptor addresses: relocations
             during widening invalidate direct pointers (paper §4.1.2) *)
          let phs = List.map (Node.handle st) (Node.children st root) in
          List.iteri
            (fun pi ph ->
              for k = 0 to 9 do
                let prev =
                  match List.rev (Node.children st (Node.by_handle st ph)) with
                  | [] -> None
                  | last :: _ -> Some (Node.handle st last)
                in
                ignore
                  (Update_ops.insert_child st ~parent_handle:ph ~left:prev
                     ~right:None ~kind:Catalog.Element
                     ~name:(Some (Sedna_util.Xname.make (Printf.sprintf "k%d%d" pi k)))
                     ~value:None)
              done)
            phs;
          Test_util.check_invariants st "d";
          List.iter
            (fun p ->
              Alcotest.(check int) "10 children" 10
                (List.length (Node.children st p)))
            (Node.children st (List.hd (Node.children st (Test_util.doc_desc st "d"))))))

let test_relocation_counts () =
  (* relocation = O(1) descriptor fields, independent of fan-out *)
  Test_util.with_db (fun db ->
      let mk_events fanout =
        (* two child kinds fill the root's slots: the insertion of a
           third kind below forces the widening relocation *)
        Sedna_workloads.Generators.wide ~kinds:2 ~children:fanout ()
      in
      let fields_for fanout =
        let name = Printf.sprintf "w%d" fanout in
        ignore (Test_util.load_events db name (mk_events fanout));
        Database.with_txn db (fun _ st ->
            let root = List.hd (Node.children st (Test_util.doc_desc st name)) in
            Sedna_util.Counters.reset Sedna_util.Counters.fields_updated;
            Sedna_util.Counters.reset Sedna_util.Counters.node_moved;
            ignore
              (Update_ops.insert_child st ~parent_handle:(Node.handle st root)
                 ~left:None ~right:None ~kind:Catalog.Element
                 ~name:(Some (Sedna_util.Xname.make "brandnew"))
                 ~value:None);
            let moved = Sedna_util.Counters.get Sedna_util.Counters.node_moved in
            let fields = Sedna_util.Counters.get Sedna_util.Counters.fields_updated in
            Alcotest.(check bool)
              (Printf.sprintf "widening relocated the root (fanout %d)" fanout)
              true (moved > 0);
            fields / moved)
      in
      let small = fields_for 5 in
      let large = fields_for 500 in
      Alcotest.(check int) "per-move fields independent of fan-out" small large;
      Alcotest.(check bool) "constant and small" true (small <= 4))

let test_delete_subtree () =
  with_fig2 (fun st ->
      let dd = Test_util.doc_desc st "d" in
      let lib = List.hd (Node.children st dd) in
      let kids = Node.children st lib in
      let b2 = List.nth kids 1 in
      Update_ops.delete_node st (Node.handle st b2);
      Test_util.check_invariants st "d";
      let lib = List.hd (Node.children st (Test_util.doc_desc st "d")) in
      Alcotest.(check (list string)) "after delete" [ "book"; "paper" ]
        (names st (Node.children st lib)))

let test_set_text_value () =
  with_fig2 (fun st ->
      let dd = Test_util.doc_desc st "d" in
      let title =
        List.of_seq
          (Traverse.descendants_schema st
             ~test:(Traverse.element_test (Some (Sedna_util.Xname.make "title")))
             dd)
        |> List.hd
      in
      let text = List.hd (Node.children st title) in
      Update_ops.set_text_value st (Node.handle st text) "New Title Text";
      Alcotest.(check string) "updated" "New Title Text"
        (Node_ser.string_value st title);
      (* grow it past the inline page capacity *)
      let big = String.make 50_000 'z' in
      Update_ops.set_text_value st (Node.handle st text) big;
      Alcotest.(check string) "big value" big (Node_ser.string_value st title);
      Test_util.check_invariants st "d")

let test_serializer_roundtrip () =
  Test_util.with_db (fun db ->
      let src = Sedna_workloads.Generators.library ~books:40 () in
      ignore (Test_util.load_events db "d" src);
      Database.with_txn db (fun _ st ->
          let dd = Test_util.doc_desc st "d" in
          let out = Node_ser.to_string st dd in
          let expect = Sedna_xml.Serializer.to_string src in
          Alcotest.(check string) "store round trip" expect out))

let test_axes_vs_reference () =
  with_fig2 (fun st ->
      let dd = Test_util.doc_desc st "d" in
      let all = List.of_seq (Traverse.descendants_walk st dd) in
      (* following/preceding partition the document for any node *)
      List.iter
        (fun n ->
          let f = List.of_seq (Traverse.following st n) in
          let p = List.of_seq (Traverse.preceding st n) in
          let anc = List.of_seq (Traverse.ancestors st n) in
          let desc = List.of_seq (Traverse.descendants_walk st n) in
          let total =
            List.length f + List.length p + List.length anc + List.length desc
            + 1
          in
          Alcotest.(check int) "partition" (List.length all + 1) total)
        (List.filteri (fun i _ -> i mod 3 = 0) all))

let test_deep_document () =
  Test_util.with_db (fun db ->
      let events = Sedna_workloads.Generators.deep ~depth:120 () in
      ignore (Test_util.load_events db "deep" events);
      Database.with_txn db (fun _ st ->
          Test_util.check_invariants st "deep";
          let dd = Test_util.doc_desc st "deep" in
          let leafs =
            List.of_seq
              (Traverse.descendants_schema st
                 ~test:(Traverse.element_test (Some (Sedna_util.Xname.make "leaf")))
                 dd)
          in
          Alcotest.(check int) "one leaf" 1 (List.length leafs);
          let leaf = List.hd leafs in
          Alcotest.(check int) "ancestors" 122
            (List.length (List.of_seq (Traverse.ancestors st leaf)))))

let suite =
  [
    Alcotest.test_case "load structure" `Quick test_load_structure;
    Alcotest.test_case "schema shape" `Quick test_schema_shape;
    Alcotest.test_case "schema scan order" `Quick test_schema_scan_order;
    Alcotest.test_case "schema scan = walk" `Quick test_descendants_schema_vs_walk;
    Alcotest.test_case "middle insert order" `Quick test_middle_insert_order;
    Alcotest.test_case "block split order" `Quick test_block_split_preserves_order;
    Alcotest.test_case "delayed widening" `Quick test_widening;
    Alcotest.test_case "relocation O(1) fields" `Quick test_relocation_counts;
    Alcotest.test_case "delete subtree" `Quick test_delete_subtree;
    Alcotest.test_case "set text value" `Quick test_set_text_value;
    Alcotest.test_case "serializer roundtrip" `Quick test_serializer_roundtrip;
    Alcotest.test_case "axis partition" `Quick test_axes_vs_reference;
    Alcotest.test_case "deep document" `Quick test_deep_document;
  ]
