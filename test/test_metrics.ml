(* The observability subsystem: counter snapshots and per-session
   latency, histogram bucket edges and percentiles, the span store's
   wraparound and slow list, the statement span tree, and the query
   profiler's row accounting against actual result cardinalities. *)

open Sedna_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let with_library ?(books = 120) f =
  Test_util.with_db (fun db ->
      ignore
        (Test_util.load_events db "lib" (Sedna_workloads.Generators.library ~books ()));
      f db)

let create_price_index db =
  ignore
    (Test_util.exec db
       {|CREATE INDEX "price" ON doc("lib")/library/book BY price AS xs:integer|})

(* ---- counters ------------------------------------------------------ *)

let test_diff () =
  let before = [ ("a", 2); ("b", 5) ] in
  let after = [ ("a", 2); ("b", 9); ("c", 1) ] in
  Alcotest.(check (list (pair string int)))
    "diff drops unchanged, keeps new" [ ("b", 4); ("c", 1) ]
    (Counters.diff ~before ~after)

let test_counters_snapshot_zero_filter () =
  (* registered-but-never-bumped cells must not show up in snapshot *)
  let name = "test.metrics.zero" in
  let cell = Counters.cell name in
  cell := 0;
  check_bool "zero cell filtered" true
    (List.assoc_opt name (Counters.snapshot ()) = None);
  check_bool "snapshot_all keeps it" true
    (List.assoc_opt name (Counters.snapshot_all ()) = Some 0);
  Counters.bump name;
  check_bool "appears once bumped" true
    (List.assoc_opt name (Counters.snapshot ()) = Some 1);
  Counters.reset name

(* ---- histograms ----------------------------------------------------- *)

let test_histogram_edges () =
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "test.edges" in
  (* a value on a bucket's upper bound belongs to that bucket *)
  Metrics.observe h 1.0;
  Metrics.observe h 0.5;
  Metrics.observe h 2.0;
  Metrics.observe h 3.9;
  Metrics.observe h 100.0 (* overflow *);
  check_int "count" 5 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "p50 = bound of bucket 2" 2.0 (Metrics.percentile h 0.5);
  check_bool "p99 overflows to infinity" true
    (Metrics.percentile h 0.99 = Float.infinity);
  Alcotest.(check (float 1e-9)) "p20 in first bucket" 1.0 (Metrics.percentile h 0.2);
  let empty = Metrics.histogram ~buckets:[| 1.0 |] "test.empty" in
  check_bool "empty percentile is nan" true (Float.is_nan (Metrics.percentile empty 0.5))

(* ---- span store ------------------------------------------------------ *)

(* one finished single-span trace, published from its own ctx *)
let publish_one ?(slow = false) name =
  let cx = Option.get (Span.make ()) in
  Span.finish cx (Span.start cx name);
  if slow then Span.mark_slow cx;
  Span.publish cx;
  Span.trace_id cx

let test_slow_survives_wraparound () =
  Span.set_capacity 64;
  Fun.protect
    ~finally:(fun () ->
      Span.set_capacity 256;
      Span.clear ();
      Span.clear_slow ())
    (fun () ->
      Span.clear ();
      Span.clear_slow ();
      let slow_id = publish_one ~slow:true "statement" in
      for _ = 1 to 300 do
        ignore (publish_one "statement")
      done;
      check_int "store keeps its capacity" 64 (List.length (Span.traces ()));
      check_bool "fast publishes evicted the slow trace from the store" true
        (Span.find slow_id = None);
      (match Span.slow () with
       | [ (id, [ sp ]) ] ->
         check_bool "slow list kept it" true (id = slow_id && sp.Span.sp_name = "statement")
       | l -> Alcotest.failf "expected one slow trace, got %d" (List.length l));
      Span.clear ();
      check_int "clear empties the store" 0 (List.length (Span.traces ()));
      check_int "clear keeps the slow list" 1 (List.length (Span.slow ())))

let test_trace_statement_events () =
  with_library (fun db ->
      let s = Sedna_db.Session.connect db in
      Span.clear ();
      ignore (Sedna_db.Session.execute_string s {|count(doc("lib")//book)|});
      ignore
        (Sedna_db.Session.execute_string s
           {|UPDATE insert <book><price>1</price></book> into doc("lib")/library|});
      let spans_of (_, spans) = spans in
      let annot name key spans =
        List.find_map
          (fun sp ->
            if sp.Span.sp_name = name then List.assoc_opt key sp.Span.sp_annots else None)
          spans
      in
      match List.map spans_of (Span.traces ()) with
      | [ update; query ] ->
        check_bool "statement span annotated query/ok" true
          (annot "statement" "kind" query = Some (Metrics.Str "query")
          && annot "statement" "ok" query = Some (Metrics.Bool true));
        check_bool "query compiled under its statement span" true
          (List.exists (fun sp -> sp.Span.sp_name = "compile") query);
        check_bool "query took no document lock" true (annot "lock.wait" "outcome" query = None);
        check_bool "statement span closed" true
          (List.for_all (fun sp -> sp.Span.sp_dur >= 0.) query);
        check_bool "lock.wait outcome=granted" true
          (annot "lock.wait" "outcome" update = Some (Metrics.Str "granted"));
        check_bool "commit.fsync under the update" true
          (List.exists (fun sp -> sp.Span.sp_name = "commit.fsync") update)
      | l -> Alcotest.failf "expected two traces, got %d" (List.length l))

(* ---- profiled plans -------------------------------------------------- *)

let rec flatten (op : Sedna_engine.Profiler.op) =
  op :: List.concat_map flatten op.Sedna_engine.Profiler.children

let test_profile_row_counts () =
  with_library ~books:120 (fun db ->
      create_price_index db;
      let s = Sedna_db.Session.connect db in
      (* how many books have price 42?  (library generator: price = i mod 100) *)
      let expected =
        int_of_string
          (Sedna_db.Session.execute_string s
             {|count(doc("lib")/library/book[price = 42])|})
      in
      check_bool "fixture has matches" true (expected >= 1);
      (* root of a bare node query = result cardinality *)
      let pp =
        Sedna_db.Session.profile s {|doc("lib")/library/book[price = 42]|}
      in
      check_int "root rows = result cardinality" expected
        pp.Sedna_db.Session.pp_rows;
      (* the probe operator is in the tree and produced the rows *)
      let ops = flatten pp.Sedna_db.Session.pp_plan in
      let probe =
        List.find_opt
          (fun (o : Sedna_engine.Profiler.op) ->
            String.length o.Sedna_engine.Profiler.label >= 11
            && String.sub o.Sedna_engine.Profiler.label 0 11 = "index-probe")
          ops
      in
      (match probe with
       | None -> Alcotest.fail "no index-probe operator in profiled plan"
       | Some o ->
         check_int "probe rows" expected o.Sedna_engine.Profiler.rows;
         check_bool "probe counted" true (o.Sedna_engine.Profiler.probes >= 1));
      (* aggregate query: root is the count call, one row *)
      let pp2 =
        Sedna_db.Session.profile s {|count(doc("lib")/library/book[price = 42])|}
      in
      check_int "count() root rows" 1 pp2.Sedna_db.Session.pp_rows;
      check_bool "render mentions the probe" true
        (contains_sub (Sedna_db.Session.render_profile pp2) "index-probe"))

let test_profile_rejects_updates () =
  with_library (fun db ->
      let s = Sedna_db.Session.connect db in
      check_bool "update statements rejected" true
        (try
           ignore (Sedna_db.Session.profile s {|UPDATE delete doc("lib")//book|});
           false
         with _ -> true))

(* \profile runs through the statement path: a lock timeout inside an
   explicit transaction ends the transaction, as it does for [execute] *)
let test_profile_lock_timeout_aborts () =
  with_library (fun db ->
      let s1 = Sedna_db.Session.connect db in
      let s2 = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn s1;
      ignore
        (Sedna_db.Session.execute s1
           {|UPDATE insert <book><price>1</price></book> into doc("lib")/library|});
      Sedna_db.Session.begin_txn s2;
      (match Sedna_db.Session.profile s2 {|count(doc("lib")/library/book)|} with
       | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.Lock_timeout, _) -> ()
       | _ -> Alcotest.fail "expected Lock_timeout");
      check_bool "s2 dropped out of its transaction" false
        (Sedna_db.Session.in_transaction s2);
      (* s1 still holds its X lock: a writer from a third session is
         refused, s1 itself goes on *)
      let s3 = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn s3;
      check_bool "s3 refused while s1 holds the document" true
        (try
           ignore (Sedna_db.Session.execute s3 {|UPDATE delete doc("lib")//nothing|});
           false
         with Sedna_util.Error.Sedna_error (Sedna_util.Error.Lock_timeout, _) -> true);
      ignore
        (Sedna_db.Session.execute s1
           {|UPDATE insert <book><price>2</price></book> into doc("lib")/library|});
      Sedna_db.Session.commit s1;
      (* nothing of s2's or s3's refused transactions is left behind:
         after s1's commit the document is free for an updater *)
      Sedna_db.Session.begin_txn s2;
      ignore
        (Sedna_db.Session.execute s2
           {|UPDATE insert <book><price>3</price></book> into doc("lib")/library|});
      Alcotest.(check string) "s2 writes in a new transaction" "123"
        (Sedna_db.Session.execute_string s2 {|count(doc("lib")/library/book)|});
      Sedna_db.Session.commit s2)

(* \profile publishes the same trace as any statement *)
let test_profile_traced () =
  with_library (fun db ->
      let s = Sedna_db.Session.connect db in
      Span.clear ();
      let stmts = Metrics.hist_count (Metrics.histogram "stmt.latency") in
      ignore (Sedna_db.Session.profile s {|count(doc("lib")//book)|});
      match Span.traces () with
      | [ (_, spans) ] ->
        let named n = List.exists (fun sp -> sp.Span.sp_name = n) spans in
        check_bool "statement span" true (named "statement");
        check_bool "compile span" true (named "compile");
        check_bool "eval span" true (named "eval");
        check_int "latency observed" (stmts + 1)
          (Metrics.hist_count (Metrics.histogram "stmt.latency"))
      | l -> Alcotest.failf "expected one trace, got %d" (List.length l))

let suite =
  [
    Alcotest.test_case "diff" `Quick test_diff;
    Alcotest.test_case "snapshot filters zero cells" `Quick
      test_counters_snapshot_zero_filter;
    Alcotest.test_case "histogram bucket edges" `Quick test_histogram_edges;
    Alcotest.test_case "slow trace survives store wraparound" `Quick
      test_slow_survives_wraparound;
    Alcotest.test_case "statement trace events" `Quick test_trace_statement_events;
    Alcotest.test_case "profiled plan row counts" `Quick test_profile_row_counts;
    Alcotest.test_case "profile rejects updates" `Quick test_profile_rejects_updates;
    Alcotest.test_case "profile lock timeout ends txn" `Quick
      test_profile_lock_timeout_aborts;
    Alcotest.test_case "profile publishes a trace" `Quick test_profile_traced;
  ]
