(* The benchmark harness: one experiment per figure/claim of the paper
   (see DESIGN.md §5 and EXPERIMENTS.md).  The paper has no quantitative
   tables, so each experiment measures the *claim* a design section
   makes, against an in-repo baseline where the paper names one.

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe -- E7 E8   # a selection *)

open Bench_util

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1: the full pipeline, end to end                        *)
(* ------------------------------------------------------------------ *)

let queries_e1 =
  [
    ("Q1 child path", {|count(doc("a")/site/regions/namerica/item)|});
    ("Q2 descendants", {|count(doc("a")//listitem)|});
    ("Q3 predicate", {|count(doc("a")//item[quantity > 3])|});
    ("Q4 flwor+sort",
     {|for $x in doc("a")/site/open_auctions/open_auction
       let $n := count($x/bidder) where $n > 3
       order by $n descending return string($x/@id)|});
    ("Q5 join",
     {|count(for $a in doc("a")/site/open_auctions/open_auction
             for $i in doc("a")//item[@id = string($a/itemref)]
             return $i)|});
    ("Q6 construct",
     {|<out>{for $p in doc("a")/site/people/person[address]
             return <e c="{string($p/address/city)}"/>}</out>|});
    ("Q7 aggregation", {|sum(doc("a")//increase)|});
  ]

let e1 () =
  header "E1  Figure 1 — architecture: full query pipeline"
    "parse -> static analysis -> rewrite -> execute works end-to-end; \
     rewriting pays for itself";
  let db = fresh_db () in
  let _, n =
    load_events db "a"
      (Sedna_workloads.Generators.auction ~items:250 ~people:200 ~auctions:120 ())
  in
  pf "  document: %d nodes\n\n" n;
  let s_opt = session db in
  let s_raw = session ~opts:Sedna_xquery.Rewriter.no_options db in
  row3 "query" "optimized" "no rewriter";
  List.iter
    (fun (name, q) ->
      let t_opt = time_median (fun () -> exec s_opt q) in
      let t_raw = time_median (fun () -> exec s_raw q) in
      record_ms (Printf.sprintf "e1.%s.optimized_ms" name) t_opt;
      record_ms (Printf.sprintf "e1.%s.raw_ms" name) t_raw;
      row3 name
        (Printf.sprintf "%.2f ms" (ms t_opt))
        (Printf.sprintf "%.2f ms" (ms t_raw)))
    queries_e1;
  Sedna_core.Database.close db

(* ------------------------------------------------------------------ *)
(* E2 — Figure 2 / §2: schema-driven vs subtree clustering             *)
(* ------------------------------------------------------------------ *)

let e2 () =
  header "E2  Figure 2 / §2 — clustering strategies"
    "schema clustering fetches fewer pages for selective paths; \
     subtree clustering wins when reconstructing a whole element";
  let events = Sedna_workloads.Generators.library ~books:3000 () in
  (* Sedna: small pool so that cold scans hit the disk counters *)
  let db = fresh_db ~buffer_frames:64 () in
  ignore (load_events db "lib" events);
  let subtree = Sedna_baselines.Subtree_store.of_events events in
  let s = session db in
  (* (a) selective scan: every title (one small field of every book) *)
  let sedna_reads, _ =
    cold_reads db (fun () -> exec s {|count(doc("lib")//title)|})
  in
  Sedna_baselines.Subtree_store.reset_touches subtree;
  let lib = Option.get (Sedna_baselines.Subtree_store.find_first_named subtree "library") in
  ignore (Sedna_baselines.Subtree_store.scan_descendants_named subtree lib "title");
  let subtree_touches = Sedna_baselines.Subtree_store.touches subtree in
  row3 "selective scan (//title)" "pages read" "";
  row3 "  sedna (schema clustering)" (string_of_int sedna_reads) "";
  row3 "  subtree clustering" (string_of_int subtree_touches) "";
  (* (b) whole-element reconstruction: serialize single books *)
  let sedna_rec, _ =
    cold_reads db (fun () ->
        for i = 1 to 20 do
          ignore
            (exec s (Printf.sprintf {|doc("lib")/library/book[%d]|} (i * 25)))
        done)
  in
  let books =
    Sedna_baselines.Subtree_store.scan_descendants_named subtree lib "book"
  in
  (* reconstruction cost proper: locating the books is not charged *)
  Sedna_baselines.Subtree_store.reset_touches subtree;
  List.iteri
    (fun i b ->
      if i mod 25 = 0 && i < 500 then
        ignore (Sedna_baselines.Subtree_store.subtree_string subtree b))
    books;
  let subtree_rec = Sedna_baselines.Subtree_store.touches subtree in
  pf "\n";
  row3 "reconstruct 20 whole books" "pages read" "";
  row3 "  sedna (schema clustering)" (string_of_int sedna_rec) "";
  row3 "  subtree clustering" (string_of_int subtree_rec) "";
  pf "\n  (expected shape: sedna << subtree on the scan; subtree <= sedna on\n";
  pf "   reconstruction — the paper's §2 trade-off)\n";
  Sedna_core.Database.close db

(* ------------------------------------------------------------------ *)
(* E3 — §2: pointer traversal vs relational structural joins           *)
(* ------------------------------------------------------------------ *)

let e3 () =
  header "E3  §2 — element inclusion: pointers vs structural joins"
    "direct-pointer traversal answers path steps faster than \
     label-interval containment joins over an edge table";
  let events =
    Sedna_workloads.Generators.auction ~items:800 ~people:400 ~auctions:400 ()
  in
  let db = fresh_db ~buffer_frames:128 () in
  ignore (load_events db "a" events);
  let rel = Sedna_baselines.Edge_rel.of_events events in
  let s = session db in
  let cases =
    [
      ("/site/regions/namerica/item",
       {|count(doc("a")/site/regions/namerica/item)|},
       [ Sedna_baselines.Edge_rel.Child_step "site";
         Sedna_baselines.Edge_rel.Child_step "regions";
         Sedna_baselines.Edge_rel.Child_step "namerica";
         Sedna_baselines.Edge_rel.Child_step "item" ]);
      ("//bidder", {|count(doc("a")//bidder)|},
       [ Sedna_baselines.Edge_rel.Desc_step "bidder" ]);
      ("/site//item//listitem", {|count(doc("a")/site//item//listitem)|},
       [ Sedna_baselines.Edge_rel.Child_step "site";
         Sedna_baselines.Edge_rel.Desc_step "item";
         Sedna_baselines.Edge_rel.Desc_step "listitem" ]);
    ]
  in
  pf "  %-28s %11s %11s %11s %11s\n" "path" "sedna ms" "join ms" "sedna I/O" "join I/O";
  List.iter
    (fun (name, q, steps) ->
      let sedna_n = exec s q in
      let rel_n = List.length (Sedna_baselines.Edge_rel.eval_path rel steps) in
      if int_of_string sedna_n <> rel_n then
        pf "  WARNING: %s disagrees (%s vs %d)\n" name sedna_n rel_n;
      let t_sedna = time_median (fun () -> exec s q) in
      let t_rel =
        time_median (fun () -> Sedna_baselines.Edge_rel.eval_path rel steps)
      in
      (* page I/O comparison: cold buffer reads vs pages of touched rows *)
      let sedna_io, _ = cold_reads db (fun () -> exec s q) in
      Sedna_baselines.Edge_rel.reset_touches rel;
      ignore (Sedna_baselines.Edge_rel.eval_path rel steps);
      let rel_io = Sedna_baselines.Edge_rel.touches rel in
      pf "  %-28s %11s %11s %11d %11d\n" name
        (Printf.sprintf "%.2f" (ms t_sedna))
        (Printf.sprintf "%.2f" (ms t_rel))
        sedna_io rel_io)
    cases;
  pf "\n  (the in-memory join baseline has no buffer manager or tuple\n";
  pf "   materialization costs, so wall times flatter it; the page-I/O\n";
  pf "   columns show the paper's asymmetry directly)\n";
  Sedna_core.Database.close db

(* ------------------------------------------------------------------ *)
(* E4 — Figure 3 / §4.1: constant-field updates                        *)
(* ------------------------------------------------------------------ *)

let e4 () =
  header "E4  Figure 3 / §4.1 — updates touch O(1) fields per node"
    "relocating a node updates a constant number of fields thanks to \
     the indirect parent pointer; a direct-parent design would touch \
     one field per child";
  row4 "fan-out" "moved" "fields/move" "direct-parent would";
  List.iter
    (fun fanout ->
      let db = fresh_db () in
      let name = "w" in
      (* two existing child kinds fill the root's child slots, so the
         third (below) forces the widening relocation *)
      ignore
        (load_events db name
           (Sedna_workloads.Generators.wide ~kinds:2 ~children:fanout ()));
      Sedna_core.Database.with_txn db (fun _ st ->
          let doc = Sedna_core.Catalog.get_document st.Sedna_core.Store.cat name in
          let dd = Sedna_core.Indirection.get st.Sedna_core.Store.bm
              doc.Sedna_core.Catalog.doc_indir in
          let root = List.hd (Sedna_core.Node.children st dd) in
          Sedna_util.Counters.reset Sedna_util.Counters.fields_updated;
          Sedna_util.Counters.reset Sedna_util.Counters.node_moved;
          (* force the root (fan-out = [fanout]) to relocate by giving
             it a child of a brand-new schema kind *)
          ignore
            (Sedna_core.Update_ops.insert_child st
               ~parent_handle:(Sedna_core.Node.handle st root) ~left:None
               ~right:None ~kind:Sedna_core.Catalog.Element
               ~name:(Some (Sedna_util.Xname.make "brandnew"))
               ~value:None);
          let moved = Sedna_util.Counters.get Sedna_util.Counters.node_moved in
          let fields = Sedna_util.Counters.get Sedna_util.Counters.fields_updated in
          row4
            (string_of_int fanout)
            (string_of_int moved)
            (if moved = 0 then "-"
             else Printf.sprintf "%.1f" (float_of_int fields /. float_of_int moved))
            (Printf.sprintf "~%d" (fanout + 3)));
      Sedna_core.Database.close db)
    [ 10; 100; 1000; 5000 ];
  pf "\n  (fields/move stays constant; a direct parent pointer would force\n";
  pf "   one write per child of the moved node — the last column)\n"

(* block split cost ablation: same story, measured through real splits *)
let e4b () =
  header "E4b §4.1 — block split cost vs children of the moved nodes"
    "splitting a block of parents with many children never touches the \
     children (their parent pointer is the indirection cell)";
  row3 "children per moved node" "fields/move" "";
  List.iter
    (fun kids ->
      let db = fresh_db () in
      let xml =
        let b = Buffer.create 4096 in
        Buffer.add_string b "<root>";
        for _ = 0 to 80 do
          Buffer.add_string b "<p>";
          for _ = 1 to kids do
            Buffer.add_string b "<c/>"
          done;
          Buffer.add_string b "</p>"
        done;
        Buffer.add_string b "</root>";
        Buffer.contents b
      in
      Sedna_core.Database.with_txn db (fun _ st ->
          ignore (Sedna_core.Loader.load_string st ~doc_name:"d" xml);
          let doc = Sedna_core.Catalog.get_document st.Sedna_core.Store.cat "d" in
          let dd = Sedna_core.Indirection.get st.Sedna_core.Store.bm
              doc.Sedna_core.Catalog.doc_indir in
          let root = List.hd (Sedna_core.Node.children st dd) in
          let ps = Sedna_core.Node.children st root in
          let p1 = List.nth ps 10 and p2 = List.nth ps 11 in
          let h1 = Sedna_core.Node.handle st p1
          and h2 = Sedna_core.Node.handle st p2 in
          Sedna_util.Counters.reset Sedna_util.Counters.fields_updated;
          Sedna_util.Counters.reset Sedna_util.Counters.node_moved;
          (* middle insertions of <p> force the p-block to split *)
          let left = ref h1 in
          for _ = 1 to 60 do
            left :=
              Sedna_core.Update_ops.insert_child st
                ~parent_handle:(Sedna_core.Node.handle st root)
                ~left:(Some !left) ~right:(Some h2)
                ~kind:Sedna_core.Catalog.Element
                ~name:(Some (Sedna_util.Xname.make "p"))
                ~value:None
          done;
          let moved = Sedna_util.Counters.get Sedna_util.Counters.node_moved in
          let fields = Sedna_util.Counters.get Sedna_util.Counters.fields_updated in
          row3
            (string_of_int kids)
            (if moved = 0 then "(no split)"
             else Printf.sprintf "%.1f" (float_of_int fields /. float_of_int moved))
            "");
      Sedna_core.Database.close db)
    [ 0; 5; 50 ]

(* ------------------------------------------------------------------ *)
(* E5 — §4.1.1: numbering without relabeling                           *)
(* ------------------------------------------------------------------ *)

let e5 () =
  header "E5  §4.1.1 — insertions never relabel"
    "Sedna's string labels always have room between two labels; \
     integer (order,size) schemes must periodically relabel";
  row4 "middle inserts" "sedna relabels" "xiss relabels" "xiss nodes touched";
  List.iter
    (fun n ->
      (* Sedna scheme *)
      let a = Sedna_nid.Nid.ordinal_child ~parent:Sedna_nid.Nid.root 0 in
      let b = Sedna_nid.Nid.ordinal_child ~parent:Sedna_nid.Nid.root 1 in
      let lo = ref a and hi = ref b in
      let max_len = ref 0 in
      for i = 0 to n - 1 do
        let m =
          Sedna_nid.Nid.child_between ~parent:Sedna_nid.Nid.root ~left:(Some !lo)
            ~right:(Some !hi)
        in
        max_len := max !max_len (String.length (Sedna_nid.Nid.to_raw m));
        if i mod 2 = 0 then lo := m else hi := m
      done;
      (* XISS-style scheme *)
      let x = Sedna_baselines.Xiss.create () in
      Sedna_baselines.Xiss.append x;
      Sedna_baselines.Xiss.append x;
      for _ = 1 to n do
        Sedna_baselines.Xiss.insert_between x 0
      done;
      row4 (string_of_int n) "0"
        (string_of_int (Sedna_baselines.Xiss.relabels x))
        (string_of_int (Sedna_baselines.Xiss.relabeled_nodes x));
      pf "      (max sedna label length at n=%d: %d bytes)\n" n !max_len)
    [ 1_000; 5_000; 20_000 ]

(* ------------------------------------------------------------------ *)
(* E6 — §4.1.1: label operations are cheap comparisons                 *)
(* ------------------------------------------------------------------ *)

let bechamel_table (tests : Bechamel.Test.t list) =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> row3 name (Printf.sprintf "%.1f ns/op" est) ""
          | _ -> row3 name "n/a" "")
        analyzed)
    tests

let e6 () =
  header "E6  §4.1.1 — numbering-scheme operations"
    "ancestor tests and document-order comparisons are plain string \
     comparisons on labels";
  (* build a mixed label population *)
  let labels = Array.make 1024 Sedna_nid.Nid.root in
  let k = ref 0 in
  let rec build parent depth =
    if !k < 1024 then begin
      let l = Sedna_nid.Nid.ordinal_child ~parent (!k mod 50) in
      labels.(!k) <- l;
      incr k;
      if depth < 6 then build l (depth + 1);
      if !k < 1024 then build parent depth
    end
  in
  build Sedna_nid.Nid.root 0;
  let i = ref 0 in
  let pick () =
    i := (!i + 17) land 1023;
    labels.(!i)
  in
  let t1 =
    Bechamel.Test.make ~name:"nid compare (doc order)"
      (Bechamel.Staged.stage (fun () ->
           ignore (Sedna_nid.Nid.compare (pick ()) (pick ()))))
  in
  let t2 =
    Bechamel.Test.make ~name:"nid ancestor test"
      (Bechamel.Staged.stage (fun () ->
           ignore (Sedna_nid.Nid.is_ancestor ~ancestor:(pick ()) (pick ()))))
  in
  let t3 =
    Bechamel.Test.make ~name:"nid allocate between"
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Sedna_nid.Nid.child_between ~parent:Sedna_nid.Nid.root ~left:None
                ~right:None)))
  in
  bechamel_table [ t1; t2; t3 ]

(* inline vs overflow labels: the fixed-size descriptor keeps labels up
   to 15 bytes inline; deeper nodes pay a text-store hop per label read *)
let e6b () =
  header "E6b §4.1 — label storage: inline vs overflow"
    "short labels live inside the fixed-size descriptor; long labels
     cost one extra dereference into the text store";
  row3 "document depth" "ancestor-axis walk" "label bytes at leaf";
  List.iter
    (fun depth ->
      let db = fresh_db () in
      ignore (load_events db "deep" (Sedna_workloads.Generators.deep ~depth ()));
      let st = Sedna_core.Database.store db in
      let doc = Sedna_core.Catalog.get_document (Sedna_core.Database.catalog db) "deep" in
      let dd = Sedna_core.Indirection.get st.Sedna_core.Store.bm
          doc.Sedna_core.Catalog.doc_indir in
      let leaf =
        List.of_seq
          (Sedna_core.Traverse.descendants_schema st
             ~test:(Sedna_core.Traverse.element_test
                      (Some (Sedna_util.Xname.make "leaf")))
             dd)
        |> List.hd
      in
      let lbl_len =
        String.length (Sedna_nid.Nid.to_raw (Sedna_core.Node.label st leaf))
      in
      let walk () =
        Seq.length (Sedna_core.Traverse.ancestors st leaf)
      in
      let t = time_median walk in
      row3 (string_of_int depth)
        (Printf.sprintf "%.3f ms" (ms t))
        (Printf.sprintf "%d%s" lbl_len (if lbl_len > 15 then " (overflow)" else " (inline)"));
      Sedna_core.Database.close db)
    [ 4; 12; 60; 200 ]

(* ------------------------------------------------------------------ *)
(* E7 — Figure 4 / §4.2: dereferencing without swizzling               *)
(* ------------------------------------------------------------------ *)

let e7 () =
  header "E7  Figure 4 / §4.2 — pointer dereferencing"
    "equality-based layer mapping dereferences like an ordinary \
     pointer; swizzling tables pay a hash lookup per dereference";
  (* an isolated dereference kernel: a shuffled chain of 8-byte cells
     spread over pages in the SAS; each hop is one database-pointer
     dereference + one 8-byte read *)
  let n_pages = 900 in
  let cells_per_page = 16 in
  let db = fresh_db ~buffer_frames:2048 () in
  let bm = Sedna_core.Database.buffer db in
  let pages = Array.init n_pages (fun _ -> Sedna_core.Buffer_mgr.allocate_page bm) in
  let n_cells = n_pages * cells_per_page in
  let cell i =
    Sedna_core.Xptr.add pages.(i / cells_per_page) (64 + (8 * (i mod cells_per_page)))
  in
  let rng = Random.State.make [| 7 |] in
  let order = Array.init n_cells Fun.id in
  for i = n_cells - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  for k = 0 to n_cells - 1 do
    Sedna_core.Buffer_mgr.write_xptr bm (cell order.(k))
      (cell order.((k + 1) mod n_cells))
  done;
  let hops = 200_000 in
  let chase () =
    let p = ref (cell order.(0)) in
    for _ = 1 to hops do
      p := Sedna_core.Buffer_mgr.read_xptr bm !p
    done;
    !p
  in
  ignore (chase ());
  Sedna_core.Buffer_mgr.set_use_vas bm true;
  let t_vas = time_median chase in
  let fast, _ = counter_during Sedna_util.Counters.vas_fast_hit chase in
  Sedna_core.Buffer_mgr.set_use_vas bm false;
  let t_hash = time_median chase in
  Sedna_core.Buffer_mgr.set_use_vas bm true;
  (* a swizzling-table baseline chasing the same number of hops *)
  let sw, start = Sedna_baselines.Swizzle.build n_cells in
  let t_sw = time_median (fun () -> Sedna_baselines.Swizzle.chase sw start hops) in
  (* where queries run: the same chase inside a read-only transaction,
     first with nothing newer than its snapshot (no overlay), then with
     an open updater holding a dirty page of the chain (every page
     decision goes through the snapshot overlay) *)
  let in_snapshot () =
    let reader = Sedna_core.Database.begin_txn ~read_only:true db in
    let t = time_median (fun () -> Sedna_core.Database.run db reader chase) in
    let view = Sedna_core.Database.snapshot_view db in
    Sedna_core.Database.commit db reader;
    (t, view)
  in
  let t_snap, view_snap = in_snapshot () in
  let writer = Sedna_core.Database.begin_txn db in
  Sedna_core.Database.run db writer (fun () ->
      Sedna_core.Buffer_mgr.write_u8 bm pages.(0) 1);
  let t_dirty, view_dirty = in_snapshot () in
  Sedna_core.Database.abort db writer;
  row3 (Printf.sprintf "dereference kernel (%d hops)" hops) "time" "ns/hop";
  let ns_per t = t *. 1e9 /. float_of_int hops in
  record "e7.vas_ns_per_hop" (Sedna_util.Metrics.Float (ns_per t_vas));
  record "e7.hash_ns_per_hop" (Sedna_util.Metrics.Float (ns_per t_hash));
  record "e7.swizzle_ns_per_hop" (Sedna_util.Metrics.Float (ns_per t_sw));
  record "e7.snapshot_ns_per_hop" (Sedna_util.Metrics.Float (ns_per t_snap));
  record "e7.snapshot_dirty_ns_per_hop" (Sedna_util.Metrics.Float (ns_per t_dirty));
  let per t = Printf.sprintf "%.1f ns" (ns_per t) in
  let view = function
    | `Current -> "no overlay"
    | `Overlay n -> Printf.sprintf "overlay, %d page decisions" n
  in
  row3 "  VAS equality mapping (sedna)" (Printf.sprintf "%.2f ms" (ms t_vas)) (per t_vas);
  row3 "  per-deref translation (hash)" (Printf.sprintf "%.2f ms" (ms t_hash)) (per t_hash);
  row3 "  bare table chase (floor)" (Printf.sprintf "%.2f ms" (ms t_sw)) (per t_sw);
  row3 "  VAS in a read-only txn" (Printf.sprintf "%.2f ms" (ms t_snap)) (per t_snap);
  row3 "  same, updater holds a dirty page" (Printf.sprintf "%.2f ms" (ms t_dirty))
    (per t_dirty);
  pf "  (VAS fast hits during one chase: %d of %d; rows 1-2 run the same\n" fast hops;
  pf "   engine code path, row 3 is an idealized lower bound without the\n";
  pf "   page-accessor plumbing; rows 4-5 read through Database.run:\n";
  pf "   %s, then %s)\n" (view view_snap) (view view_dirty);
  Sedna_core.Database.close db

let e7b () =
  header "E7b §4.2 — buffer pool sweep (faults are the other cost)"
    "when data exceeds the pool, faults dominate; the mapping check \
     stays cheap either way, and a fault pays for its read, not its \
     checksum";
  row3 "pool frames" "scan time" "cold disk reads";
  List.iter
    (fun frames ->
      let db = fresh_db ~buffer_frames:frames () in
      ignore
        (load_events db "lib" (Sedna_workloads.Generators.library ~books:4000 ()));
      let s = session db in
      let reads, _ = cold_reads db (fun () -> exec s {|count(doc("lib")//author)|}) in
      let t = time_median ~runs:3 (fun () -> exec s {|count(doc("lib")//author)|}) in
      row3 (string_of_int frames)
        (Printf.sprintf "%.2f ms" (ms t))
        (string_of_int reads);
      record_ms (Printf.sprintf "e7b.frames_%d.scan_ms" frames) t;
      record_int (Printf.sprintf "e7b.frames_%d.cold_reads" frames) reads;
      Sedna_core.Database.close db)
    [ 16; 64; 256; 2048 ];
  (* What one fault costs below the pool: [File_store.read_page] over
     every page of the checkpointed file (pread from the OS page cache,
     then the CRC-32 verify against the sidecar), and the CRC alone over
     the same page images; the read is the difference. *)
  let db = fresh_db ~buffer_frames:16 () in
  ignore (load_events db "lib" (Sedna_workloads.Generators.library ~books:4000 ()));
  Sedna_core.Database.checkpoint db;
  let fs = Sedna_core.Buffer_mgr.store (Sedna_core.Database.buffer db) in
  let n = Sedna_core.File_store.page_count fs - 1 in
  let pages = Array.init n (fun _ -> Bytes.create Sedna_core.Page.page_size) in
  let read_all () =
    Array.iteri (fun i b -> Sedna_core.File_store.read_page fs (i + 1) b) pages
  in
  let crc_all () =
    Array.fold_left (fun acc b -> acc lxor Sedna_util.Bytes_util.crc32 b) 0 pages
  in
  let us_per_page t = t *. 1e6 /. float_of_int n in
  let t_fault = us_per_page (time_median read_all) in
  let t_crc = us_per_page (time_median crc_all) in
  let t_read = t_fault -. t_crc in
  pf "  fault cost below the pool, %d pages of %d B:
" n Sedna_core.Page.page_size;
  row3 "" "us/page" "share";
  let share t = Printf.sprintf "%.0f %%" (100. *. t /. t_fault) in
  row3 "  read_page (read + verify)" (Printf.sprintf "%.2f" t_fault) "100 %";
  row3 "    pread" (Printf.sprintf "%.2f" t_read) (share t_read);
  row3 "    CRC-32 verify" (Printf.sprintf "%.2f" t_crc) (share t_crc);
  record "e7b.fault_us" (Sedna_util.Metrics.Float t_fault);
  record "e7b.read_us" (Sedna_util.Metrics.Float t_read);
  record "e7b.crc_us" (Sedna_util.Metrics.Float t_crc);
  Sedna_core.Database.close db

(* ------------------------------------------------------------------ *)
(* E8..E11 — §5: rewriter optimizations                                *)
(* ------------------------------------------------------------------ *)

let rewrite_pair title claim q ~on ~off =
  header title claim;
  let db = fresh_db () in
  ignore
    (load_events db "a"
       (Sedna_workloads.Generators.auction ~items:500 ~people:400 ~auctions:400 ()));
  let s_on = session ~opts:on db in
  let s_off = session ~opts:off db in
  let r_on = exec s_on q and r_off = exec s_off q in
  if r_on <> r_off then pf "  WARNING: results differ!\n";
  let t_on = time_median (fun () -> exec s_on q) in
  let t_off = time_median (fun () -> exec s_off q) in
  row3 "rule enabled" (Printf.sprintf "%.2f ms" (ms t_on)) "";
  row3 "rule disabled" (Printf.sprintf "%.2f ms" (ms t_off)) "";
  pf "  result: %s%s\n"
    (String.sub r_on 0 (min 40 (String.length r_on)))
    (if String.length r_on > 40 then "..." else "");
  Sedna_core.Database.close db

let e8 () =
  let on = Sedna_xquery.Rewriter.default_options in
  let off = { on with Sedna_xquery.Rewriter.remove_ddo = false } in
  rewrite_pair "E8  §5.1.1 — removing unnecessary DDO operations"
    "redundant distinct-document-order operations break pipelining and \
     cost a sort per query"
    {|count(doc("a")/site/open_auctions/open_auction/bidder/increase)|}
    ~on ~off

let e9 () =
  let on = Sedna_xquery.Rewriter.default_options in
  let off =
    { on with Sedna_xquery.Rewriter.combine_descendant = false;
              Sedna_xquery.Rewriter.extract_structural = false }
  in
  rewrite_pair "E9  §5.1.2 — combining the abbreviated '//' step"
    "//x as descendant-or-self::node()/child::x visits every node; \
     /descendant::x uses the schema"
    {|count(doc("a")//increase)|} ~on ~off

let e10 () =
  let on = Sedna_xquery.Rewriter.default_options in
  let off = { on with Sedna_xquery.Rewriter.extract_structural = false } in
  rewrite_pair "E10 §5.1.4 — structural paths on the descriptive schema"
    "a path of descending name steps resolves against the in-memory \
     schema; only matching blocks are scanned"
    {|count(doc("a")/site/open_auctions/open_auction/bidder/increase)|}
    ~on ~off

let e10b () =
  let on = Sedna_xquery.Rewriter.default_options in
  let off = { on with Sedna_xquery.Rewriter.extract_structural = false } in
  header "E10b §5.1.4 — value predicates on schema chains"
    "P[K op v] over a structural path scans K's block chain and merges \
     the matches with P's chain, instead of navigating from every P and atomizing K through its children";
  let db = fresh_db ~buffer_frames:4096 () in
  let items, people, auctions = if quick () then (500, 400, 400) else (2000, 1500, 1500) in
  ignore
    (load_events db "a"
       (Sedna_workloads.Generators.auction ~items ~people ~auctions ()));
  let s_on = session ~opts:on db and s_off = session ~opts:off db in
  row4 "shape" "rule" "time" "derefs";
  List.iter
    (fun (shape, q) ->
      let r_on = exec s_on q and r_off = exec s_off q in
      if r_on <> r_off then pf "  WARNING: results differ!\n";
      List.iter
        (fun (rule, s) ->
          let derefs, _ = counter_during Sedna_util.Counters.deref (fun () -> exec s q) in
          let t = time_median (fun () -> exec s q) in
          record_ms (Printf.sprintf "e10b.%s.%s_ms" shape rule) t;
          record_int (Printf.sprintf "e10b.%s.%s_derefs" shape rule) derefs;
          row4 shape rule (Printf.sprintf "%.2f ms" (ms t)) (string_of_int derefs))
        [ ("on", s_on); ("off", s_off) ])
    [
      ("item_quantity", {|count(doc("a")/site/regions/namerica/item[quantity > 2])|});
      ( "city_people",
        {|for $p in doc("a")/site/people/person[address/city = "City5"] return string($p/@id)|}
      );
    ];
  Sedna_core.Database.close db

let e11 () =
  header "E11 §5.2.1 — element constructor optimizations"
    "virtual constructors avoid deep copies when the result is only \
     serialized";
  let db = fresh_db () in
  ignore
    (load_events db "a"
       (Sedna_workloads.Generators.auction ~items:300 ~people:200 ~auctions:200 ()));
  let q = {|<report>{doc("a")/site/regions/namerica/item}</report>|} in
  let on = session db in
  let off =
    session
      ~opts:{ Sedna_xquery.Rewriter.default_options with
              Sedna_xquery.Rewriter.virtual_constructors = false }
      db
  in
  let copies_on, _ = counter_during Sedna_util.Counters.deep_copies (fun () -> exec on q) in
  let copies_off, _ = counter_during Sedna_util.Counters.deep_copies (fun () -> exec off q) in
  let t_on = time_median (fun () -> exec on q) in
  let t_off = time_median (fun () -> exec off q) in
  row4 "" "time" "deep copies" "";
  row4 "virtual constructors" (Printf.sprintf "%.2f ms" (ms t_on))
    (string_of_int copies_on) "";
  row4 "always deep-copy" (Printf.sprintf "%.2f ms" (ms t_off))
    (string_of_int copies_off) "";
  Sedna_core.Database.close db

(* ------------------------------------------------------------------ *)
(* E12 — §6: transactions                                              *)
(* ------------------------------------------------------------------ *)

let e12 () =
  header "E12 §6 — snapshots, versions, recovery"
    "read-only transactions read a snapshot without blocking behind \
     the updater; recovery replays committed work";
  let db = fresh_db () in
  ignore (load_events db "b" (Sedna_workloads.Generators.library ~books:400 ()));
  (* updater holds the X lock and has uncommitted changes *)
  let writer = Sedna_db.Session.connect db in
  Sedna_db.Session.begin_txn writer;
  ignore
    (Sedna_db.Session.execute writer
       {|UPDATE insert <pending/> into doc("b")/library|});
  (* a read-only transaction proceeds against its snapshot *)
  let reader = Sedna_core.Database.begin_txn ~read_only:true db in
  let read_query () =
    Sedna_core.Database.run db reader (fun () ->
        let st = Sedna_core.Database.txn_store db reader ~mode:Sedna_core.Lock_mgr.Shared in
        let doc = Sedna_core.Catalog.get_document st.Sedna_core.Store.cat "b" in
        let dd = Sedna_core.Indirection.get st.Sedna_core.Store.bm
            doc.Sedna_core.Catalog.doc_indir in
        let n = ref 0 in
        Seq.iter (fun _ -> incr n)
          (Sedna_core.Traverse.descendants_walk st dd);
        !n)
  in
  let t_reader = time_median read_query in
  row3 "snapshot read under writer lock"
    (Printf.sprintf "%.2f ms" (ms t_reader))
    "(no blocking, paper §6.3)";
  row3 "  saved page versions"
    (string_of_int (Sedna_core.Versions.version_count (Sedna_core.Database.versions db)))
    "";
  Sedna_core.Database.commit db reader;
  Sedna_db.Session.commit writer;
  (* recovery time as a function of committed work since checkpoint *)
  pf "\n";
  row3 "updates since checkpoint" "recovery time" "wal size";
  List.iter
    (fun updates ->
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "sedna-rec-%d-%d" (Unix.getpid ()) updates)
      in
      if Sys.file_exists dir then
        Sedna_util.Sysutil.rm_rf dir;
      let db2 = Sedna_core.Database.create dir in
      ignore (load_events db2 "b" (Sedna_workloads.Generators.library ~books:50 ()));
      Sedna_core.Database.checkpoint db2;
      let s2 = session db2 in
      for i = 1 to updates do
        ignore
          (exec s2
             (Printf.sprintf
                {|UPDATE insert <entry n="%d"/> into doc("b")/library|} i))
      done;
      let wal_size = (Unix.stat (Filename.concat dir "wal.sdb")).Unix.st_size in
      Sedna_core.Database.crash db2;
      let t, db3 = time_once (fun () -> Sedna_core.Database.open_existing dir) in
      let n = exec (session db3) {|count(doc("b")/library/entry)|} in
      if int_of_string n <> updates then pf "  WARNING: recovery lost entries\n";
      row3 (string_of_int updates)
        (Printf.sprintf "%.2f ms" (ms t))
        (Printf.sprintf "%d KiB" (wal_size / 1024));
      Sedna_core.Database.close db3)
    [ 10; 100; 400 ];
  Sedna_core.Database.close db

(* ------------------------------------------------------------------ *)
(* E13 — §5.1/§4.3: automatic index selection                         *)
(* ------------------------------------------------------------------ *)

let e13 () =
  header "E13 §5.1/§4.3 — automatic index selection"
    "a selective value predicate over an indexed path becomes a B-tree \
     probe (rewriter rule 7) instead of a block scan";
  let db = fresh_db ~buffer_frames:256 () in
  let books = if quick () then 1200 else 5000 in
  let _, n = load_events db "lib" (Sedna_workloads.Generators.library ~books ()) in
  pf "  document: %d nodes\n" n;
  ignore
    (exec (session db)
       {|CREATE INDEX "price" ON doc("lib")/library/book BY price AS xs:integer|});
  let s_idx = session db in
  let s_seq =
    session
      ~opts:{ Sedna_xquery.Rewriter.default_options with
              Sedna_xquery.Rewriter.use_indexes = false }
      db
  in
  (* page touches = buffer pins, hit or fault *)
  let touches f =
    let d, r = deltas_during f in
    let get k = Option.value (List.assoc_opt k d) ~default:0 in
    (get Sedna_util.Counters.buffer_hit + get Sedna_util.Counters.buffer_fault, r)
  in
  pf "\n";
  pf "  %-30s %10s %10s %8s %9s %9s\n" "query" "probe ms" "scan ms" "speedup"
    "probe pg" "scan pg";
  List.iter
    (fun (name, q) ->
      let r_idx = exec s_idx q and r_seq = exec s_seq q in
      if r_idx <> r_seq then pf "  WARNING: %s disagrees (%s vs %s)\n" name r_idx r_seq;
      let probes, _ =
        counter_during Sedna_util.Counters.index_probe (fun () -> exec s_idx q)
      in
      if probes = 0 then pf "  WARNING: %s did not use the index\n" name;
      let t_idx = time_median (fun () -> exec s_idx q) in
      let t_seq = time_median (fun () -> exec s_seq q) in
      let pg_idx, _ = touches (fun () -> exec s_idx q) in
      let pg_seq, _ = touches (fun () -> exec s_seq q) in
      record_ms (Printf.sprintf "e13.%s.probe_ms" name) t_idx;
      record_ms (Printf.sprintf "e13.%s.scan_ms" name) t_seq;
      record_int (Printf.sprintf "e13.%s.probe_pages" name) pg_idx;
      record_int (Printf.sprintf "e13.%s.scan_pages" name) pg_seq;
      pf "  %-30s %10s %10s %8s %9d %9d\n" name
        (Printf.sprintf "%.3f" (ms t_idx))
        (Printf.sprintf "%.3f" (ms t_seq))
        (Printf.sprintf "%.1fx" (t_seq /. t_idx))
        pg_idx pg_seq)
    [
      ("point [price = 42]", {|count(doc("lib")/library/book[price = 42])|});
      ("range [price >= 95]", {|count(doc("lib")/library/book[price >= 95])|});
      ("descendant //book[price=42]", {|count(doc("lib")//book[price = 42])|});
      ("probe + suffix steps", {|count(doc("lib")/library/book[price = 42]/title)|});
    ];
  pf "\n  (ablation: use_indexes = false restores the sequential plans in\n";
  pf "   the 'scan' columns; every statement compiles against the live\n";
  pf "   catalog, so DDL changes the next plan — see test/test_plan_cache.ml)\n";
  Sedna_core.Database.close db

(* ------------------------------------------------------------------ *)
(* E14 — §3/§6.3: concurrent multi-session server                      *)
(* ------------------------------------------------------------------ *)

(* N concurrent clients over real TCP connections against the serving
   layer: a mixed read/update workload (throughput and latency
   percentiles), the §6.3 demonstration that a snapshot reader
   completes while a writer transaction is uncommitted, admission
   control under a session limit, and a graceful shutdown whose store
   reopens clean. *)
let e14 () =
  header "E14 §3/§6.3 — concurrent multi-session server"
    "snapshot readers complete while a writer transaction is \
     uncommitted on another connection; admission control sheds load \
     with SE-OVERLOADED; a drained shutdown leaves a recoverable store";
  let module G = Sedna_db.Governor in
  let module Server = Sedna_server.Server in
  let module Client = Sedna_server.Server_client in
  let exec_remote c q = Client.execute_string c q in
  let clients = if quick () then 4 else 8 in
  let per_client = if quick () then 25 else 100 in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sedna-bench-srv-%d-%f" (Unix.getpid ())
         (Unix.gettimeofday ()))
  in
  Sedna_util.Sysutil.rm_rf dir;
  let g = G.create () in
  ignore (G.create_database g ~name:"main" ~dir);
  let srv =
    Server.start
      ~config:{ Server.default_config with pool_size = clients + 4 }
      g
  in
  let port = Server.port srv in
  let new_client () =
    let c = Client.connect ~port () in
    ignore (Client.open_db c "main");
    c
  in
  let seed = new_client () in
  ignore (Client.execute seed {|CREATE DOCUMENT "d"|});
  ignore
    (Client.execute seed
       ("UPDATE insert <r>"
        ^ String.concat ""
            (List.init 200 (fun i -> Printf.sprintf "<item v=\"%d\"/>" i))
        ^ {|</r> into doc("d")|}));
  Client.close seed;
  pf "  %d clients x %d requests each, port %d\n" clients per_client port;

  (* ---- §6.3: snapshot reader vs uncommitted writer ---------------- *)
  let writer = new_client () in
  let reader = new_client () in
  ignore (Client.execute writer "BEGIN");
  ignore (Client.execute writer {|UPDATE insert <item v="-1"/> into doc("d")/r|});
  (* the writer now holds the document X lock, uncommitted; the
     snapshot reader must complete anyway, on the pre-writer state *)
  let t_read, seen =
    time_once (fun () -> exec_remote reader {|count(doc("d")/r/item)|})
  in
  ignore (Client.execute writer "COMMIT");
  let after = exec_remote reader {|count(doc("d")/r/item)|} in
  Client.close writer;
  Client.close reader;
  record_ms "e14.snapshot_reader_ms" t_read;
  row3 "reader under uncommitted writer"
    (Printf.sprintf "%.2f ms" (ms t_read))
    (Printf.sprintf "saw %s, %s after commit" seen after);
  if seen <> "200" || after <> "201" then begin
    pf "  E14 FAILED: snapshot reader saw %s (want 200), %s after commit (want 201)\n"
      seen after;
    exit 1
  end;

  (* ---- mixed workload: 1 writer, N-1 readers ----------------------- *)
  let read_h = Sedna_util.Metrics.histogram "e14.read.latency" in
  let write_h = Sedna_util.Metrics.histogram "e14.write.latency" in
  let read_qs =
    [|
      {|count(doc("d")/r/item)|};
      {|count(doc("d")/r/item[@v >= 100])|};
      {|string(doc("d")/r/item[1]/@v)|};
    |]
  in
  let failures = ref 0 in
  let fail_mu = Mutex.create () in
  let body i () =
    try
      let c = new_client () in
      for j = 1 to per_client do
        if i = 0 then begin
          let t, _ =
            time_once (fun () ->
                Client.execute c
                  (Printf.sprintf
                     {|UPDATE insert <w c="%d"/> into doc("d")/r|} j))
          in
          Sedna_util.Metrics.observe write_h t
        end
        else begin
          let t, _ =
            time_once (fun () ->
                Client.execute c read_qs.(j mod Array.length read_qs))
          in
          Sedna_util.Metrics.observe read_h t
        end
      done;
      Client.close c
    with e ->
      Mutex.lock fail_mu;
      incr failures;
      Mutex.unlock fail_mu;
      pf "  client %d failed: %s\n" i (Printexc.to_string e)
  in
  let t_wall, () =
    time_once (fun () ->
        let ts = List.init clients (fun i -> Thread.create (body i) ()) in
        List.iter Thread.join ts)
  in
  let total = clients * per_client in
  let rps = float_of_int total /. t_wall in
  let p h q = Sedna_util.Metrics.percentile h q in
  record_int "e14.clients" clients;
  record_int "e14.requests" total;
  record_int "e14.client_failures" !failures;
  record "e14.throughput_rps" (Sedna_util.Metrics.Float rps);
  record_ms "e14.read_p50_ms" (p read_h 0.5);
  record_ms "e14.read_p95_ms" (p read_h 0.95);
  record_ms "e14.write_p50_ms" (p write_h 0.5);
  record_ms "e14.write_p95_ms" (p write_h 0.95);
  row3 "mixed workload"
    (Printf.sprintf "%d reqs in %.2f s" total t_wall)
    (Printf.sprintf "%.0f req/s" rps);
  row3 "read latency"
    (Printf.sprintf "p50 %.2f ms" (ms (p read_h 0.5)))
    (Printf.sprintf "p95 %.2f ms" (ms (p read_h 0.95)));
  row3 "write latency"
    (Printf.sprintf "p50 %.2f ms" (ms (p write_h 0.5)))
    (Printf.sprintf "p95 %.2f ms" (ms (p write_h 0.95)));
  if !failures > 0 then begin
    pf "  E14 FAILED: %d clients errored\n" !failures;
    exit 1
  end;

  (* ---- admission control ------------------------------------------- *)
  G.set_limits g { G.max_sessions = 2; query_timeout_s = 0. };
  let c1 = new_client () and c2 = new_client () in
  let refused =
    let c3 = Client.connect ~port () in
    match Client.open_db c3 "main" with
    | exception Client.Remote_error ("SE-OVERLOADED", _) ->
      Client.close c3;
      true
    | _ ->
      Client.close c3;
      false
  in
  Client.close c1;
  Client.close c2;
  record_int "e14.overload_refused" (if refused then 1 else 0);
  row3 "admission control" "max_sessions = 2"
    (if refused then "3rd open refused (SE-OVERLOADED)" else "NOT refused");

  (* ---- graceful shutdown + reopen ----------------------------------- *)
  let t_stop, () = time_once (fun () -> Server.stop srv) in
  let db = Sedna_core.Database.open_existing dir in
  let problems = Sedna_core.Integrity.check_all (Sedna_core.Database.store db) in
  let committed =
    let s = Sedna_db.Session.connect db in
    Sedna_db.Session.execute_string s {|count(doc("d")/r/w)|}
  in
  Sedna_core.Database.close db;
  record_ms "e14.shutdown_ms" t_stop;
  record_int "e14.integrity_errors" (List.length problems);
  row3 "graceful shutdown"
    (Printf.sprintf "%.2f ms" (ms t_stop))
    (Printf.sprintf "reopen: %s, %s writes durable"
       (if problems = [] then "integrity OK" else "INTEGRITY ERRORS")
       committed);
  if problems <> [] || committed <> string_of_int per_client then begin
    pf "  E14 FAILED: integrity %d errors, %s/%d writes after reopen\n"
      (List.length problems) committed per_client;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E15 — replication: WAL-shipping hot standby + client failover       *)
(* ------------------------------------------------------------------ *)

(* The E14 mixed workload with a hot standby attached: measures
   replication lag while the workload runs, then kills the primary
   (hard, no shutdown), verifies the in-flight writer sees SE-FAILOVER
   while a reader fails over transparently, promotes the standby over
   the wire (PROMOTE), re-runs the clients against it, and checks that
   no acknowledged commit was lost and both stores pass integrity. *)
let e15 () =
  header "E15 replication — WAL-shipping hot standby, kill + promote"
    "bounded replication lag under the E14 mixed workload; after a hard \
     primary kill the standby promotes and holds every acked commit; \
     in-flight writers get SE-FAILOVER, readers fail over transparently";
  let module G = Sedna_db.Governor in
  let module Server = Sedna_server.Server in
  let module Client = Sedna_server.Server_client in
  let module Sender = Sedna_replication.Repl_sender in
  let module Recv = Sedna_replication.Repl_receiver in
  let clients = if quick () then 4 else 8 in
  let per_client = if quick () then 25 else 100 in
  let base =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sedna-bench-repl-%d-%f" (Unix.getpid ())
         (Unix.gettimeofday ()))
  in
  Sedna_util.Sysutil.rm_rf base;
  Unix.mkdir base 0o755;
  let gov_p = G.create () and gov_s = G.create () in
  let db =
    G.create_database gov_p ~name:"main" ~dir:(Filename.concat base "primary")
  in
  let srv_p =
    Server.start ~config:{ Server.default_config with pool_size = clients + 4 }
      gov_p
  in
  let sender = Sender.start ~gov:gov_p db in
  let recv =
    Recv.start ~gov:gov_s ~name:"main" ~dir:(Filename.concat base "standby")
      ~host:"127.0.0.1" ~port:(Sender.port sender) ()
  in
  let srv_s =
    Server.start ~config:{ Server.default_config with pool_size = clients + 4 }
      ~on_promote:(fun () -> Recv.promote recv)
      gov_s
  in
  let pport = Server.port srv_p and sport = Server.port srv_s in
  let endpoints = [ ("127.0.0.1", pport); ("127.0.0.1", sport) ] in
  let new_client () =
    let c = Client.connect ~host:"127.0.0.1" ~endpoints ~retries:3 ~port:pport () in
    ignore (Client.open_db c "main");
    c
  in
  let seed = new_client () in
  ignore (Client.execute seed {|CREATE DOCUMENT "d"|});
  ignore
    (Client.execute seed
       ("UPDATE insert <r>"
        ^ String.concat ""
            (List.init 200 (fun i -> Printf.sprintf "<item v=\"%d\"/>" i))
        ^ {|</r> into doc("d")|}));
  Client.close seed;
  let wal_tip () = (Sedna_core.Wal.epoch (Sedna_core.Database.wal db),
                    Sedna_core.Wal.size (Sedna_core.Database.wal db)) in
  let epoch0, pos0 = wal_tip () in
  if not (Recv.wait_caught_up ~timeout_s:30. recv ~epoch:epoch0 ~pos:pos0) then begin
    pf "  E15 FAILED: standby never finished the initial seed\n";
    exit 1
  end;
  pf "  primary :%d, standby :%d, %d clients x %d requests\n" pport sport
    clients per_client;

  (* ---- mixed workload with the standby attached; sample lag -------- *)
  (* byte-scale buckets: the default histogram bounds are latency
     seconds and every lag sample would land in the overflow bucket *)
  let lag_buckets =
    Array.init 24 (fun i -> float_of_int (16 lsl i)) in
  let lag_h =
    Sedna_util.Metrics.histogram ~buckets:lag_buckets "e15.lag.bytes" in
  let sampling = ref true in
  let sampler =
    Thread.create
      (fun () ->
        while !sampling do
          Sedna_util.Metrics.observe lag_h
            (float_of_int (Sedna_util.Counters.get Sedna_util.Counters.repl_lag_bytes));
          Unix.sleepf 0.002
        done)
      ()
  in
  let acked = ref [] in
  let ack_mu = Mutex.create () in
  let failures = ref 0 in
  let token i j = Printf.sprintf "|p%d-%d|" i j in
  let read_qs =
    [|
      {|count(doc("d")/r/item)|};
      {|count(doc("d")/r/item[@v >= 100])|};
      {|string(doc("d")/r/item[1]/@v)|};
    |]
  in
  let body i () =
    try
      let c = new_client () in
      for j = 1 to per_client do
        if i = 0 then begin
          ignore
            (Client.execute c
               (Printf.sprintf {|UPDATE insert <w>%s</w> into doc("d")/r|}
                  (token i j)));
          Mutex.lock ack_mu;
          acked := token i j :: !acked;
          Mutex.unlock ack_mu
        end
        else ignore (Client.execute c read_qs.(j mod Array.length read_qs))
      done;
      Client.close c
    with e ->
      Mutex.lock ack_mu;
      incr failures;
      Mutex.unlock ack_mu;
      pf "  client %d failed: %s\n" i (Printexc.to_string e)
  in
  let t_wall, () =
    time_once (fun () ->
        let ts = List.init clients (fun i -> Thread.create (body i) ()) in
        List.iter Thread.join ts)
  in
  let epoch1, pos1 = wal_tip () in
  let t_catchup, caught =
    time_once (fun () -> Recv.wait_caught_up ~timeout_s:30. recv ~epoch:epoch1 ~pos:pos1)
  in
  sampling := false;
  Thread.join sampler;
  let p q = Sedna_util.Metrics.percentile lag_h q in
  record "e15.throughput_rps"
    (Sedna_util.Metrics.Float (float_of_int (clients * per_client) /. t_wall));
  record_int "e15.lag_p50_bytes" (int_of_float (p 0.5));
  record_int "e15.lag_p95_bytes" (int_of_float (p 0.95));
  record_ms "e15.catchup_ms" t_catchup;
  row3 "mixed workload + shipping"
    (Printf.sprintf "%d reqs in %.2f s" (clients * per_client) t_wall)
    (Printf.sprintf "%.0f req/s" (float_of_int (clients * per_client) /. t_wall));
  row3 "replication lag"
    (Printf.sprintf "p50 %.0f B" (p 0.5))
    (Printf.sprintf "p95 %.0f B" (p 0.95));
  row3 "final catch-up" (Printf.sprintf "%.1f ms" (ms t_catchup)) "";
  if !failures > 0 || not caught then begin
    pf "  E15 FAILED: %d client failures, caught_up=%b\n" !failures caught;
    exit 1
  end;

  (* ---- standby semantics while the primary is alive ---------------- *)
  let sc = Client.connect ~host:"127.0.0.1" ~port:sport () in
  ignore (Client.open_db sc "main");
  ignore (Client.execute sc "BEGIN READ ONLY");
  let standby_count = Client.execute_string sc {|count(doc("d")/r/w)|} in
  ignore (Client.execute sc "COMMIT");
  let refused =
    match Client.execute sc {|UPDATE insert <x/> into doc("d")/r|} with
    | exception Client.Remote_error ("SE-READ-ONLY", _) -> true
    | _ -> false
  in
  Client.close sc;
  record_int "e15.standby_write_refused" (if refused then 1 else 0);
  row3 "standby reads" (standby_count ^ " writes visible")
    (if refused then "write refused (SE-READ-ONLY)" else "write NOT refused");
  if (not refused) || standby_count <> string_of_int per_client then begin
    pf "  E15 FAILED: standby refused=%b count=%s (want %d)\n" refused
      standby_count per_client;
    exit 1
  end;

  (* ---- hard kill: in-flight writer + surviving reader --------------- *)
  let doomed = new_client () in
  ignore (Client.execute doomed "BEGIN");
  ignore (Client.execute doomed {|UPDATE insert <w>|doomed|</w> into doc("d")/r|});
  let survivor = new_client () in
  ignore (Client.execute survivor {|count(doc("d")/r/item)|});
  Server.kill srv_p;
  Sender.stop sender;
  Sedna_core.Database.crash db;
  let failover_seen =
    match Client.execute doomed "COMMIT" with
    | exception Client.Remote_error ("SE-FAILOVER", _) -> true
    | _ -> false
  in
  let t_promote, promote_msg =
    time_once (fun () ->
        Sedna_replication.Repl_client.promote ~host:"127.0.0.1" ~port:sport
          ~database:"main")
  in
  (* the reader's connection died with the primary: its next read must
     retry transparently against the standby *)
  let reader_after = Client.execute_string survivor {|count(doc("d")/r/item)|} in
  Client.close survivor;
  record_int "e15.writer_se_failover" (if failover_seen then 1 else 0);
  record_ms "e15.promote_ms" t_promote;
  row3 "kill primary mid-txn"
    (if failover_seen then "writer got SE-FAILOVER" else "writer NOT failed")
    (Printf.sprintf "reader failed over, saw %s" reader_after);
  row3 "promotion" (Printf.sprintf "%.1f ms" (ms t_promote)) promote_msg;
  if (not failover_seen) || reader_after <> "200" then begin
    pf "  E15 FAILED: failover_seen=%b reader_after=%s\n" failover_seen
      reader_after;
    exit 1
  end;

  (* ---- the same clients write to the promoted standby --------------- *)
  (* [doomed] already failed over during its SE-FAILOVER; re-running the
     lost transaction there must now succeed *)
  ignore (Client.execute doomed "BEGIN");
  ignore (Client.execute doomed {|UPDATE insert <w>|retry|</w> into doc("d")/r|});
  ignore (Client.execute doomed "COMMIT");
  Client.close doomed;

  (* ---- durability + integrity on both sides ------------------------- *)
  let sdb = Option.get (Recv.database recv) in
  let text =
    let s = Sedna_db.Session.connect sdb in
    Sedna_db.Session.execute_string s {|string(doc("d")/r)|}
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let lost = List.filter (fun tok -> not (contains text tok)) !acked in
  let s_problems = Sedna_core.Integrity.check_all (Sedna_core.Database.store sdb) in
  let p_problems =
    let pdb = Sedna_core.Database.open_existing (Filename.concat base "primary") in
    let ps = Sedna_core.Integrity.check_all (Sedna_core.Database.store pdb) in
    Sedna_core.Database.close pdb;
    ps
  in
  record_int "e15.acked_commits" (List.length !acked);
  record_int "e15.lost_commits" (List.length lost);
  record_int "e15.integrity_errors"
    (List.length s_problems + List.length p_problems);
  row3 "acked-commit audit"
    (Printf.sprintf "%d acked, %d lost" (List.length !acked) (List.length lost))
    (Printf.sprintf "integrity: standby %s, old primary %s"
       (if s_problems = [] then "OK" else "ERRORS")
       (if p_problems = [] then "OK" else "ERRORS"));
  if lost <> [] || s_problems <> [] || p_problems <> [] || not (contains text "|retry|")
  then begin
    pf "  E15 FAILED: %d acked commits lost, %d+%d integrity errors\n"
      (List.length lost) (List.length s_problems) (List.length p_problems);
    exit 1
  end;
  Server.stop srv_s;
  Recv.stop recv;
  Sedna_util.Sysutil.rm_rf base

(* ------------------------------------------------------------------ *)
(* E17 — group commit: write throughput vs writer concurrency         *)
(* ------------------------------------------------------------------ *)

(* W writer threads, each auto-committing inserts into its own document
   through the governor's engine lock.  Commits park outside the engine
   lock so one leader fsync acknowledges a batch; every ack is behind an
   fsync covering its commit record.  Fsyncs per commit show the
   coalescing (a private fsync per commit would be 1.0).  Per-writer
   documents keep the S2PL document lock out of the measurement:
   same-document writers serialize on the lock hand-off, which bounds
   coalescing by contention, not by fsync. *)
let e17 () =
  header "E17 group commit — commit throughput at equal durability"
    "parked commits share one covering WAL fsync: throughput scales \
     with writer concurrency while the fsync rate stays near-flat";
  let module G = Sedna_db.Governor in
  let per_writer = if quick () then 25 else 80 in
  let run writers =
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "sedna-bench-gc-%d-%d-%f" (Unix.getpid ()) writers
           (Unix.gettimeofday ()))
    in
    if Sys.file_exists dir then
      Sedna_util.Sysutil.rm_rf dir;
    let g = G.create () in
    let db = G.create_database g ~name:"main" ~dir in
    let doc w = Printf.sprintf "log%d" w in
    for w = 0 to writers - 1 do
      G.with_engine g (fun () ->
          ignore
            (Sedna_core.Database.with_txn db (fun _ st ->
                 Sedna_core.Loader.load_string st ~doc_name:(doc w) "<log/>")))
    done;
    let syncs0 = Sedna_util.Counters.get Sedna_util.Counters.wal_syncs in
    let failures = ref 0 in
    let fail_mu = Mutex.create () in
    let body w () =
      try
        let _, s = G.connect g ~database:"main" in
        (* one small statement per writer: compiling it is cheap next
           to the commit path the loop measures *)
        let stmt =
          Printf.sprintf {|UPDATE insert <e/> into doc(%S)/log|} (doc w)
        in
        for _ = 1 to per_writer do
          G.with_engine g (fun () -> ignore (Sedna_db.Session.execute s stmt))
        done
      with e ->
        Mutex.lock fail_mu;
        incr failures;
        Mutex.unlock fail_mu;
        pf "  writer %d failed: %s\n" w (Printexc.to_string e)
    in
    let t_wall, () =
      time_once (fun () ->
          let ts = List.init writers (fun w -> Thread.create (body w) ()) in
          List.iter Thread.join ts)
    in
    let syncs = Sedna_util.Counters.get Sedna_util.Counters.wal_syncs - syncs0 in
    G.shutdown g;
    Sedna_util.Sysutil.rm_rf dir;
    if !failures > 0 then begin
      pf "  E17 FAILED: %d writers errored\n" !failures;
      exit 1
    end;
    let commits = writers * per_writer in
    (float_of_int commits /. t_wall, syncs, commits)
  in
  row4 "writers" "commits/s" "fsyncs" "fsyncs/commit";
  List.iter
    (fun writers ->
      let cps, syncs, commits = run writers in
      record (Printf.sprintf "e17.w%d.cps" writers) (Sedna_util.Metrics.Float cps);
      record_int (Printf.sprintf "e17.w%d.syncs" writers) syncs;
      record_int (Printf.sprintf "e17.w%d.commits" writers) commits;
      row4
        (string_of_int writers)
        (Printf.sprintf "%.0f" cps)
        (string_of_int syncs)
        (Printf.sprintf "%.2f" (float_of_int syncs /. float_of_int commits)))
    [ 1; 4; 16 ]

(* ------------------------------------------------------------------ *)
(* CRASH, CHAOS, HEAL — the three fault drill sets                      *)
(* ------------------------------------------------------------------ *)

(* One Drill run per spec or cell of a set; exits nonzero on any
   durability, fencing or integrity failure, so CI can gate on it.
   SEDNA_FAULT ("<spec>[,...]") runs only the specs it names that
   belong to the set ([kinds]) instead of the set, and skips a set it
   names nothing of; SEDNA_CHAOS_SEED seeds the run, cell k with
   seed + k.  A failing cell prints the two settings that replay it. *)
module Drill = Sedna_replication.Drill

let drill name ~claim ~clients ~ops ~kinds set () =
  header name claim;
  let set_key = String.lowercase_ascii name in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sedna-%s-%d" set_key (Unix.getpid ()))
  in
  let seed =
    match Sys.getenv_opt "SEDNA_CHAOS_SEED" with
    | Some s -> ( match int_of_string_opt (String.trim s) with Some n -> n | None -> 1)
    | None -> 1
  in
  pf "  seed %d (SEDNA_CHAOS_SEED replays a schedule; %d clients x %d ops)\n\n"
    seed clients ops;
  let specs =
    match Sys.getenv_opt Sedna_util.Fault.env_var with
    | Some specs when String.trim specs <> "" ->
      List.map String.trim (String.split_on_char ',' specs)
      |> List.filter (fun s -> List.mem (Drill.kind_of s) kinds)
    | _ -> set ()
  in
  if specs = [] then pf "  %s names no %s entry: skipped\n" Sedna_util.Fault.env_var name
  else
  let outcomes =
    List.mapi (fun k spec -> Drill.run ~clients ~ops ~seed:(seed + k) ~dir spec) specs
  in
  let failed = List.filter (fun o -> not (Drill.ok o)) outcomes in
  List.iter
    (fun o ->
      pf "  %s\n" (Drill.render o);
      if not (Drill.ok o) then
        pf "       replay: %sSEDNA_FAULT='%s' SEDNA_CHAOS_SEED=%d dune exec bench/main.exe -- %s\n"
          (if quick () then "SEDNA_BENCH_QUICK=1 " else "")
          o.Drill.spec o.Drill.seed name)
    outcomes;
  pf "\n  %d/%d cells passed\n" (List.length outcomes - List.length failed)
    (List.length outcomes);
  record_int (set_key ^ ".cells") (List.length outcomes);
  record_int (set_key ^ ".failures") (List.length failed);
  record_int (set_key ^ ".seed") seed;
  if failed <> [] then begin
    pf "  %s FAILED\n" name;
    exit 1
  end

let crash =
  drill "CRASH"
    ~claim:"acked commits survive an injected crash at every storage fault site; \
            injected I/O failures abort cleanly"
    ~clients:1 ~ops:(if quick () then 8 else 24) ~kinds:[ Drill.Local; Pair ] Drill.specs

let chaos =
  drill "CHAOS"
    ~claim:"concurrent clients under seeded network faults with a mid-run \
            promotion: no acked commit lost, no write acked past the fence"
    ~clients:(if quick () then 2 else 4) ~ops:(if quick () then 12 else 24)
    ~kinds:[ Drill.Chaos ] (fun () -> Drill.cells)

let heal =
  drill "HEAL"
    ~claim:"the scrubber repairs corrupt pages online (WAL after-image and \
            standby fetch) under client load; injected ENOSPC degrades the \
            node to read-only and it recovers by itself"
    ~clients:4 ~ops:(if quick () then 20 else 40)
    ~kinds:[ Drill.Heal ] (fun () -> Drill.heal_cells)

(* ------------------------------------------------------------------ *)
(* TRACE — observability: span instrumentation overhead                *)
(* ------------------------------------------------------------------ *)

(* The same statement mix timed with request tracing enabled and
   disabled.  Disabled must be free (one option check per site);
   enabled budgets a few percent — the spans only materialize at
   phase boundaries, never inside the evaluation loops. *)
let trace_overhead () =
  header "TRACE observability — span instrumentation overhead"
    "request-scoped tracing costs a few percent while enabled and one \
     option check per instrumented site while disabled";
  let module Span = Sedna_util.Span in
  let db = fresh_db () in
  let s = session db in
  ignore (exec s {|CREATE DOCUMENT "d"|});
  ignore
    (exec s
       ("UPDATE insert <r>"
        ^ String.concat ""
            (List.init 200 (fun i -> Printf.sprintf "<item v=\"%d\"/>" i))
        ^ {|</r> into doc("d")|}));
  let iters = if quick () then 50 else 500 in
  let workload () =
    for _ = 1 to iters do
      ignore (exec s {|count(doc("d")/r/item[@v >= 100])|});
      ignore (exec s {|string(doc("d")/r/item[1]/@v)|})
    done
  in
  workload ();
  (* warm buffers *)
  let was = Span.is_enabled () in
  Span.set_enabled false;
  let t_off = time_median ~runs:5 workload in
  Span.set_enabled true;
  let t_on = time_median ~runs:5 workload in
  Span.set_enabled was;
  let stmts = float_of_int (2 * iters) in
  let overhead = 100. *. (t_on -. t_off) /. t_off in
  record_ms "trace.off_ms" t_off;
  record_ms "trace.on_ms" t_on;
  record "trace.overhead_pct" (Sedna_util.Metrics.Float overhead);
  row3 "tracing disabled"
    (Printf.sprintf "%.2f ms" (ms t_off))
    (Printf.sprintf "%.0f stmt/s" (stmts /. t_off));
  row3 "tracing enabled"
    (Printf.sprintf "%.2f ms" (ms t_on))
    (Printf.sprintf "%.0f stmt/s" (stmts /. t_on));
  row3 "overhead" (Printf.sprintf "%+.1f%%" overhead) "";
  Sedna_core.Database.close db

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E4b", e4b);
    ("E5", e5); ("E6", e6); ("E6b", e6b); ("E7", e7); ("E7b", e7b); ("E8", e8);
    ("E9", e9); ("E10", e10); ("E10b", e10b); ("E11", e11); ("E12", e12); ("E13", e13);
    ("E14", e14); ("E15", e15); ("E17", e17); ("CRASH", crash); ("CHAOS", chaos);
    ("HEAL", heal); ("TRACE", trace_overhead);
  ]

let () =
  (* SEDNA_SLOW_MS / SEDNA_SLOW_LOG: CI keeps the slow-statement log of
     the bench smoke as an artifact *)
  Sedna_util.Span.slow_init_from_env ();
  let wanted =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  pf "Sedna reproduction benchmarks (see DESIGN.md section 5, EXPERIMENTS.md)\n";
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None -> pf "unknown experiment %s\n" name)
    wanted;
  let c = Sedna_util.Counters.get in
  let hits = c Sedna_util.Counters.buffer_hit
  and faults = c Sedna_util.Counters.buffer_fault in
  pf "\nall experiments done\n";
  pf "buffer pool totals: %d hits, %d faults (%.1f%% hit rate); %d pages read, %d written\n"
    hits faults
    (if hits + faults = 0 then 0.0
     else 100.0 *. float_of_int hits /. float_of_int (hits + faults))
    (c Sedna_util.Counters.page_reads)
    (c Sedna_util.Counters.page_writes);
  write_metrics_json ()
