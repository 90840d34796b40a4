(* Automatic index selection (rewriter rule 7) as sessions see it:
   pushdown firing conditions, probe/scan result agreement, plans that
   follow DDL, rewriter options and document growth from one statement
   to the next (every statement compiles against the live catalog),
   index maintenance under updates, and the index-scan bound modes. *)

open Sedna_xquery

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* a database pre-loaded with the library workload document "lib" *)
let with_library ?(books = 200) f =
  Test_util.with_db (fun db ->
      let events = Sedna_workloads.Generators.library ~books () in
      ignore (Test_util.load_events db "lib" events);
      f db)

let create_price_index db =
  ignore
    (Test_util.exec db
       {|CREATE INDEX "price" ON doc("lib")/library/book BY price AS xs:integer|})

let create_year_index db =
  ignore
    (Test_util.exec db
       {|CREATE INDEX "yr" ON doc("lib")/library/book BY @year AS xs:string|})

(* how many Index_probe nodes the optimizer produces for [q] *)
let probes_in ?(opts = Rewriter.default_options) db q =
  let _prolog, e = Xq_parser.parse_query q in
  Rewriter.count_index_probes
    (Rewriter.rewrite_with ~catalog:(Sedna_core.Database.catalog db) opts e)

(* ---- rewriter-level: when does rule 7 fire? ------------------------ *)

let test_rewrite_fires () =
  with_library (fun db ->
      create_price_index db;
      create_year_index db;
      (* element key, both comparison orders *)
      check_int "eq" 1 (probes_in db {|doc("lib")/library/book[price = 50]|});
      check_int "eq flipped" 1
        (probes_in db {|doc("lib")/library/book[50 = price]|});
      check_int "ge" 1 (probes_in db {|doc("lib")/library/book[price >= 80]|});
      check_int "gt" 1 (probes_in db {|doc("lib")/library/book[price > 80]|});
      (* LE/LT on a number index are unsound (untyped keys order as NaN,
         which sorts below every number) — must stay a scan *)
      check_int "le number stays scan" 0
        (probes_in db {|doc("lib")/library/book[price <= 30]|});
      check_int "lt number stays scan" 0
        (probes_in db {|doc("lib")/library/book[price < 30]|});
      (* attribute key on a string index: all five modes allowed *)
      check_int "attr eq" 1
        (probes_in db {|doc("lib")/library/book[@year = "2001"]|});
      check_int "attr le" 1
        (probes_in db {|doc("lib")/library/book[@year <= "2001"]|});
      (* probe step in the middle of a longer path *)
      check_int "suffix steps" 1
        (probes_in db {|doc("lib")/library/book[price = 50]/title|});
      (* descendant step (rule 2 combines //book first) *)
      check_int "descendant" 1 (probes_in db {|doc("lib")//book[price = 50]|});
      (* positional key expressions depend on the predicate's context:
         the probe would evaluate them once at pos=1/size=1 *)
      check_int "position() key stays scan" 0
        (probes_in db {|doc("lib")/library/book[price = position()]|});
      check_int "last() key stays scan" 0
        (probes_in db {|doc("lib")/library/book[price = last()]|});
      (* non-key path, unknown doc, ablation, cardinality gate *)
      check_int "no index on title" 0
        (probes_in db {|doc("lib")/library/book[title = "x"]|});
      check_int "unknown doc" 0
        (probes_in db {|doc("nope")/library/book[price = 50]|});
      check_int "ablation" 0
        (probes_in db
           ~opts:{ Rewriter.default_options with use_indexes = false }
           {|doc("lib")/library/book[price = 50]|});
      check_int "cardinality gate" 0
        (probes_in db
           ~opts:{ Rewriter.default_options with index_min_count = 1_000_000 }
           {|doc("lib")/library/book[price = 50]|});
      (* a probe nested in the key expression also appears in the
         residual predicate and the fallback path: outer + 3 copies *)
      check_int "nested probes counted" 4
        (probes_in db
           {|doc("lib")/library/book[price = doc("lib")/library/book[@year = "2001"]/price]|}))

(* ---- executor-level: probe results = scan results ------------------ *)

let test_probe_agrees_with_scan () =
  with_library (fun db ->
      create_price_index db;
      create_year_index db;
      let s_idx = Sedna_db.Session.connect db in
      let s_scan = Sedna_db.Session.connect db in
      Sedna_db.Session.set_rewriter_options s_scan
        { Rewriter.default_options with use_indexes = false };
      let agree ?(expect_probe = true) q =
        let before = Sedna_util.Counters.get Sedna_util.Counters.index_probe in
        let via_index = Sedna_db.Session.execute_string s_idx q in
        let after = Sedna_util.Counters.get Sedna_util.Counters.index_probe in
        let via_scan = Sedna_db.Session.execute_string s_scan q in
        check_str q via_scan via_index;
        Alcotest.(check bool)
          (q ^ " used the index") expect_probe
          (after > before)
      in
      agree {|count(doc("lib")/library/book[price = 42])|};
      agree {|count(doc("lib")/library/book[price >= 80])|};
      agree {|count(doc("lib")/library/book[price > 80])|};
      agree {|count(doc("lib")//book[price = 42])|};
      (* multi-key probe: results are deduplicated and doc-ordered *)
      agree {|count(doc("lib")/library/book[price = (15, 16)])|};
      (* suffix steps after the probe, serialized in document order *)
      agree {|doc("lib")/library/book[price = 42]/title|};
      agree {|count(doc("lib")/library/book[@year = "2001"])|};
      agree {|count(doc("lib")/library/book[@year >= "2010"])|};
      agree {|count(doc("lib")/library/book[@year <= "2001"])|};
      (* number LE keeps the sequential plan but stays correct *)
      agree ~expect_probe:false
        {|count(doc("lib")/library/book[price <= 30])|};
      (* positional key: both sessions must run the sequential plan *)
      agree ~expect_probe:false
        {|count(doc("lib")/library/book[price = position()])|};
      agree ~expect_probe:false
        {|count(doc("lib")/library/book[price = last()])|};
      (* empty result through the probe *)
      agree {|count(doc("lib")/library/book[price = 7777])|})

(* ---- plans follow the catalog and the options ---------------------- *)

let probe_count () = Sedna_util.Counters.get Sedna_util.Counters.index_probe

let test_options_apply_next () =
  with_library (fun db ->
      create_price_index db;
      let s = Sedna_db.Session.connect db in
      let q = {|count(doc("lib")/library/book[price >= 90])|} in
      let probes_of () =
        let before = probe_count () in
        let r = Sedna_db.Session.execute_string s q in
        (r, probe_count () - before)
      in
      let r1, p1 = probes_of () in
      let r2, p2 = probes_of () in
      check_str "repeated run, same answer" r1 r2;
      Alcotest.(check bool) "probes" true (p1 > 0 && p2 > 0);
      (* the next statement compiles under the new options *)
      Sedna_db.Session.set_rewriter_options s
        { Rewriter.default_options with use_indexes = false };
      let r3, p3 = probes_of () in
      check_str "scan, same answer" r1 r3;
      check_int "no probe with use_indexes = false" 0 p3;
      Sedna_db.Session.set_rewriter_options s Rewriter.default_options;
      let _, p4 = probes_of () in
      Alcotest.(check bool) "probes again" true (p4 > 0))

let test_ddl_changes_plan () =
  with_library (fun db ->
      let s = Sedna_db.Session.connect db in
      let q = {|count(doc("lib")/library/book[price = 42])|} in
      (* no index yet: a scan *)
      let before = probe_count () in
      let r_scan = Sedna_db.Session.execute_string s q in
      check_int "no probe without index" before (probe_count ());
      (* after CREATE INDEX the next statement probes the index *)
      ignore
        (Sedna_db.Session.execute_string s
           {|CREATE INDEX "price" ON doc("lib")/library/book BY price AS xs:integer|});
      let before = probe_count () in
      let r_idx = Sedna_db.Session.execute_string s q in
      check_str "same answer through the index" r_scan r_idx;
      Alcotest.(check bool) "next plan probes the index" true
        (probe_count () > before);
      let before = probe_count () in
      ignore (Sedna_db.Session.execute_string s q);
      Alcotest.(check bool) "keeps probing" true (probe_count () > before);
      (* after DROP INDEX: back to a scan, same answer *)
      ignore (Sedna_db.Session.execute_string s {|DROP INDEX "price"|});
      let before = probe_count () in
      let r_back = Sedna_db.Session.execute_string s q in
      check_str "same answer after drop" r_scan r_back;
      check_int "no probe after drop" before (probe_count ()))

(* ---- index maintenance under updates -------------------------------- *)

let test_maintenance_under_updates () =
  with_library (fun db ->
      create_price_index db;
      let s = Sedna_db.Session.connect db in
      let s_scan = Sedna_db.Session.connect db in
      Sedna_db.Session.set_rewriter_options s_scan
        { Rewriter.default_options with use_indexes = false };
      let q = {|count(doc("lib")/library/book[price = 7777])|} in
      check_str "initially empty" "0" (Sedna_db.Session.execute_string s q);
      (* a book of an existing shape adds no schema node; the probe must
         still see the new entry through the maintained index *)
      ignore
        (Sedna_db.Session.execute_string s
           {|UPDATE insert <book><title>New</title><price>7777</price></book> into doc("lib")/library|});
      let before = probe_count () in
      check_str "probe sees insert" "1" (Sedna_db.Session.execute_string s q);
      Alcotest.(check bool) "through the index" true (probe_count () > before);
      check_str "scan agrees" "1" (Sedna_db.Session.execute_string s_scan q);
      (* deleting through an indexed predicate removes the entries *)
      ignore
        (Sedna_db.Session.execute_string s
           {|UPDATE delete doc("lib")/library/book[price = 7777]|});
      check_str "deleted" "0" (Sedna_db.Session.execute_string s q);
      check_str "scan agrees" "0" (Sedna_db.Session.execute_string s_scan q);
      (* replace changes a key in place *)
      ignore
        (Sedna_db.Session.execute_string s
           {|UPDATE insert <book><title>K</title><price>8888</price></book> into doc("lib")/library|});
      ignore
        (Sedna_db.Session.execute_string s
           {|UPDATE replace $p in doc("lib")/library/book[price = 8888]/price with <p>9999</p>|});
      check_str "old key gone" "0"
        (Sedna_db.Session.execute_string s
           {|count(doc("lib")/library/book[price = 8888])|}))

(* The cardinality gate reads the live population: a document that
   grows past it gets the probe on the next statement. *)
let test_growth_reenables_pushdown () =
  Test_util.with_db (fun db ->
      let xml =
        "<items>"
        ^ String.concat ""
            (List.init 10 (fun i -> Printf.sprintf "<item><v>%d</v></item>" i))
        ^ "</items>"
      in
      ignore (Test_util.load db "g" xml);
      ignore
        (Test_util.exec db
           {|CREATE INDEX "gv" ON doc("g")/items/item BY v AS xs:integer|});
      let s = Sedna_db.Session.connect db in
      let q = {|count(doc("g")/items/item[v = 3])|} in
      (* 10 items < index_min_count (16): a scan *)
      let before = probe_count () in
      check_str "below gate" "1" (Sedna_db.Session.execute_string s q);
      ignore (Sedna_db.Session.execute_string s q);
      check_int "scan below gate" before (probe_count ());
      (* grow past the gate *)
      for i = 10 to 16 do
        ignore
          (Sedna_db.Session.execute_string s
             (Printf.sprintf
                {|UPDATE insert <item><v>%d</v></item> into doc("g")/items|} i))
      done;
      let before = probe_count () in
      check_str "after growth" "1" (Sedna_db.Session.execute_string s q);
      Alcotest.(check bool) "grown document probes the index" true
        (probe_count () > before))

(* ---- index-scan bound modes (string and numeric keys) -------------- *)

let test_index_scan_modes_string () =
  Test_util.with_db (fun db ->
      ignore
        (Test_util.load db "f"
           {|<items><item><nm>apple</nm></item><item><nm>pear</nm></item><item><nm>apple</nm></item><item><nm>banana</nm></item></items>|});
      ignore
        (Test_util.exec db
           {|CREATE INDEX "nm" ON doc("f")/items/item BY nm AS xs:string|});
      let count q = Test_util.exec db (Printf.sprintf "count(%s)" q) in
      (* duplicate keys *)
      check_str "eq dup" "2" (count {|index-scan("nm", "apple")|});
      check_str "eq dup explicit" "2" (count {|index-scan("nm", "apple", "EQ")|});
      check_str "eq single" "1" (count {|index-scan("nm", "pear")|});
      check_str "eq absent" "0" (count {|index-scan("nm", "mango")|});
      (* inclusive bounds *)
      check_str "ge" "2" (count {|index-scan("nm", "banana", "GE")|});
      check_str "le" "3" (count {|index-scan("nm", "banana", "LE")|});
      check_str "ge all" "4" (count {|index-scan("nm", "a", "GE")|});
      (* empty ranges *)
      check_str "ge empty" "0" (count {|index-scan("nm", "zzz", "GE")|});
      check_str "le empty" "0" (count {|index-scan("nm", "a", "LE")|}))

let test_index_scan_modes_number () =
  Test_util.with_db (fun db ->
      ignore
        (Test_util.load db "ps"
           {|<ps><p><v>1</v></p><p><v>5</v></p><p><v>5</v></p><p><v>9</v></p></ps>|});
      ignore
        (Test_util.exec db
           {|CREATE INDEX "pv" ON doc("ps")/ps/p BY v AS xs:integer|});
      let count q = Test_util.exec db (Printf.sprintf "count(%s)" q) in
      check_str "eq dup" "2" (count {|index-scan("pv", 5)|});
      check_str "eq absent" "0" (count {|index-scan("pv", 4)|});
      check_str "ge" "3" (count {|index-scan("pv", 5, "GE")|});
      check_str "le" "3" (count {|index-scan("pv", 5, "LE")|});
      check_str "ge all" "4" (count {|index-scan("pv", 0, "GE")|});
      check_str "ge empty" "0" (count {|index-scan("pv", 100, "GE")|});
      check_str "le empty" "0" (count {|index-scan("pv", 0, "LE")|}))

let suite =
  [
    Alcotest.test_case "rule 7 firing conditions" `Quick test_rewrite_fires;
    Alcotest.test_case "probe agrees with scan" `Quick
      test_probe_agrees_with_scan;
    Alcotest.test_case "rewriter options apply next" `Quick
      test_options_apply_next;
    Alcotest.test_case "DDL changes the next plan" `Quick test_ddl_changes_plan;
    Alcotest.test_case "index maintenance under updates" `Quick
      test_maintenance_under_updates;
    Alcotest.test_case "growth past the gate re-enables pushdown" `Quick
      test_growth_reenables_pushdown;
    Alcotest.test_case "index-scan bound modes (string)" `Quick
      test_index_scan_modes_string;
    Alcotest.test_case "index-scan bound modes (number)" `Quick
      test_index_scan_modes_number;
  ]
