(* Transaction tests (paper §6): atomicity, S2PL locking with deadlock
   detection, snapshot reads, version purging. *)

open Sedna_core

let test_commit_visible () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a><v>1</v></a>");
      ignore (Test_util.exec db {|UPDATE replace $v in doc("d")/a/v with <v>2</v>|});
      Alcotest.(check string) "committed" "2"
        (Test_util.exec db {|string(doc("d")/a/v)|}))

let test_abort_restores () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a><v>1</v></a>");
      let s = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn s;
      ignore (Sedna_db.Session.execute s {|UPDATE replace $v in doc("d")/a/v with <v>99</v>|});
      ignore (Sedna_db.Session.execute s {|UPDATE insert <w/> into doc("d")/a|});
      Sedna_db.Session.rollback s;
      Alcotest.(check string) "value restored" "1"
        (Test_util.exec db {|string(doc("d")/a/v)|});
      Alcotest.(check string) "no w" "0" (Test_util.exec db {|count(doc("d")/a/w)|});
      (* the store is structurally sound after the rollback *)
      Database.with_txn db (fun txn st ->
          Database.lock_exn db txn ~doc:"d" ~mode:Lock_mgr.Shared;
          Test_util.check_invariants st "d"))

let test_abort_restores_catalog () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a/>");
      let s = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn s;
      ignore (Sedna_db.Session.execute s {|CREATE DOCUMENT "temp"|});
      Sedna_db.Session.rollback s;
      Alcotest.(check bool) "temp gone" true
        (Catalog.find_document (Database.catalog db) "temp" = None))

let test_lock_conflicts () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a/>");
      let t1 = Database.begin_txn db in
      let t2 = Database.begin_txn db in
      Alcotest.(check bool) "t1 S granted" true
        (Database.lock db t1 ~doc:"d" ~mode:Lock_mgr.Shared = Lock_mgr.Granted);
      Alcotest.(check bool) "t2 S granted" true
        (Database.lock db t2 ~doc:"d" ~mode:Lock_mgr.Shared = Lock_mgr.Granted);
      (* t2 upgrade blocks behind t1's shared lock *)
      Alcotest.(check bool) "t2 X blocked" true
        (Database.lock db t2 ~doc:"d" ~mode:Lock_mgr.Exclusive = Lock_mgr.Blocked);
      (* releasing t1 promotes t2 *)
      Database.commit db t1;
      Alcotest.(check bool) "t2 now exclusive" true
        (Lock_mgr.holds (Database.lock_manager db) "d" t2.Txn.id
         = Some Lock_mgr.Exclusive);
      Database.commit db t2)

let test_deadlock_detection () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "x" "<a/>");
      ignore (Test_util.load db "y" "<a/>");
      let t1 = Database.begin_txn db in
      let t2 = Database.begin_txn db in
      Alcotest.(check bool) "t1 X x" true
        (Database.lock db t1 ~doc:"x" ~mode:Lock_mgr.Exclusive = Lock_mgr.Granted);
      Alcotest.(check bool) "t2 X y" true
        (Database.lock db t2 ~doc:"y" ~mode:Lock_mgr.Exclusive = Lock_mgr.Granted);
      Alcotest.(check bool) "t1 waits for y" true
        (Database.lock db t1 ~doc:"y" ~mode:Lock_mgr.Exclusive = Lock_mgr.Blocked);
      Alcotest.(check bool) "t2 -> x is a deadlock" true
        (Database.lock db t2 ~doc:"x" ~mode:Lock_mgr.Exclusive
         = Lock_mgr.Deadlock_detected);
      Database.abort db t2;
      (* t1's queued request for y is granted once t2 dies *)
      Alcotest.(check bool) "t1 got y" true
        (Lock_mgr.holds (Database.lock_manager db) "y" t1.Txn.id
         = Some Lock_mgr.Exclusive);
      Database.commit db t1)

let test_three_txn_deadlock_cycle () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "x" "<a/>");
      ignore (Test_util.load db "y" "<a/>");
      ignore (Test_util.load db "z" "<a/>");
      let lm = Database.lock_manager db in
      let t1 = Database.begin_txn db in
      let t2 = Database.begin_txn db in
      let t3 = Database.begin_txn db in
      let x txn doc = Database.lock db txn ~doc ~mode:Lock_mgr.Exclusive in
      Alcotest.(check bool) "t1 X x" true (x t1 "x" = Lock_mgr.Granted);
      Alcotest.(check bool) "t2 X y" true (x t2 "y" = Lock_mgr.Granted);
      Alcotest.(check bool) "t3 X z" true (x t3 "z" = Lock_mgr.Granted);
      (* t1 -> t2 -> t3 -> t1: only the last edge closes the cycle *)
      Alcotest.(check bool) "t1 waits for y" true (x t1 "y" = Lock_mgr.Blocked);
      Alcotest.(check bool) "t2 waits for z" true (x t2 "z" = Lock_mgr.Blocked);
      Alcotest.(check bool) "t3 -> x closes the cycle" true
        (x t3 "x" = Lock_mgr.Deadlock_detected);
      (* aborting the victim breaks the cycle: t2's queued request for z
         is promoted, then the survivors unwind in turn *)
      Database.abort db t3;
      Alcotest.(check bool) "t2 promoted to z" true
        (Lock_mgr.holds lm "z" t2.Txn.id = Some Lock_mgr.Exclusive);
      Database.commit db t2;
      Alcotest.(check bool) "t1 promoted to y" true
        (Lock_mgr.holds lm "y" t1.Txn.id = Some Lock_mgr.Exclusive);
      Database.commit db t1;
      (* nothing left behind in the lock tables *)
      List.iter
        (fun doc ->
          Alcotest.(check int) (doc ^ " holders drained") 0
            (List.length (Lock_mgr.holders lm doc));
          Alcotest.(check int) (doc ^ " waiters drained") 0
            (List.length (Lock_mgr.waiters lm doc)))
        [ "x"; "y"; "z" ])

let test_timeout_leaves_lock_tables_clean () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a><n>0</n></a>");
      let lm = Database.lock_manager db in
      let s1 = Sedna_db.Session.connect db in
      let s2 = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn s1;
      ignore (Sedna_db.Session.execute s1 {|UPDATE replace $n in doc("d")/a/n with <n>1</n>|});
      Sedna_db.Session.begin_txn s2;
      (* Lock_timeout is a catchable statement error that aborts only
         s2's transaction; neither its lock nor its queued request may
         survive the abort *)
      (match Sedna_db.Session.execute s2 {|UPDATE replace $n in doc("d")/a/n with <n>2</n>|} with
       | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.Lock_timeout, _) -> ()
       | _ -> Alcotest.fail "expected Lock_timeout");
      Alcotest.(check bool) "s2 dropped out of its transaction" false
        (Sedna_db.Session.in_transaction s2);
      Alcotest.(check int) "s1 is the only holder" 1
        (List.length (Lock_mgr.holders lm "d"));
      Alcotest.(check int) "no queued waiters" 0
        (List.length (Lock_mgr.waiters lm "d"));
      Sedna_db.Session.commit s1;
      Alcotest.(check int) "tables drained after commit" 0
        (List.length (Lock_mgr.holders lm "d")))

let test_snapshot_reader () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a><v>old</v></a>");
      let reader = Database.begin_txn ~read_only:true db in
      let read () =
        Database.run db reader (fun () ->
            let st = Database.txn_store db reader in
            let dd = Test_util.doc_desc st "d" in
            Node_ser.string_value st dd)
      in
      Alcotest.(check string) "before update" "old" (read ());
      ignore (Test_util.exec db {|UPDATE replace $v in doc("d")/a/v with <v>new</v>|});
      Alcotest.(check string) "reader keeps snapshot" "old" (read ());
      Alcotest.(check string) "others see new" "new"
        (Test_util.exec db {|string(doc("d")/a/v)|});
      Database.commit db reader;
      (* after the snapshot is released, versions are purged *)
      Alcotest.(check int) "versions purged" 0
        (Versions.version_count (Database.versions db)))

let test_snapshot_sees_schema_of_its_time () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a><v>1</v></a>");
      let reader = Database.begin_txn ~read_only:true db in
      (* an updater introduces a brand new element kind (schema change) *)
      ignore (Test_util.exec db {|UPDATE insert <brandnew/> into doc("d")/a|});
      let seen =
        Database.run db reader (fun () ->
            let st = Database.txn_store db reader in
            let dd = Test_util.doc_desc st "d" in
            let a = List.hd (Node.children st dd) in
            List.length (Node.children st a))
      in
      Alcotest.(check int) "old child count" 1 seen;
      Database.commit db reader)

let test_reader_sees_uncommitted_nothing () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a><v>1</v></a>");
      let s = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn s;
      ignore (Sedna_db.Session.execute s {|UPDATE replace $v in doc("d")/a/v with <v>dirty</v>|});
      (* a snapshot reader started now must not see the uncommitted data *)
      let reader = Database.begin_txn ~read_only:true db in
      let seen =
        Database.run db reader (fun () ->
            let st = Database.txn_store db reader in
            Node_ser.string_value st (Test_util.doc_desc st "d"))
      in
      Alcotest.(check string) "no dirty read" "1" seen;
      Database.commit db reader;
      Sedna_db.Session.commit s;
      Alcotest.(check string) "committed now" "dirty"
        (Test_util.exec db {|string(doc("d")/a/v)|}))

let test_readonly_cannot_write () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a/>");
      let s = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn ~read_only:true s;
      (match Sedna_db.Session.execute s {|UPDATE insert <x/> into doc("d")/a|} with
       | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.Txn_read_only, _) -> ()
       | _ -> Alcotest.fail "read-only transaction accepted an update");
      Sedna_db.Session.rollback s)

let test_two_writers_serialize () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a><n>0</n></a>");
      let s1 = Sedna_db.Session.connect db in
      let s2 = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn s1;
      ignore (Sedna_db.Session.execute s1 {|UPDATE replace $n in doc("d")/a/n with <n>1</n>|});
      Sedna_db.Session.begin_txn s2;
      (* s2 blocks on the X lock held by s1 *)
      (match Sedna_db.Session.execute s2 {|UPDATE replace $n in doc("d")/a/n with <n>2</n>|} with
       | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.Lock_timeout, _) -> ()
       | _ -> Alcotest.fail "second writer was not blocked");
      Sedna_db.Session.commit s1;
      (* the timeout aborted s2's transaction (locks released, session
         alive); after s1 commits, s2 retries in a fresh transaction *)
      Sedna_db.Session.begin_txn s2;
      ignore (Sedna_db.Session.execute s2 {|UPDATE replace $n in doc("d")/a/n with <n>2</n>|});
      Sedna_db.Session.commit s2;
      Alcotest.(check string) "final" "2" (Test_util.exec db {|string(doc("d")/a/n)|}))

let test_version_purge_on_creation () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a><v>0</v></a>");
      (* no snapshot registered: commits must not accumulate versions *)
      for i = 1 to 5 do
        ignore
          (Test_util.exec db
             (Printf.sprintf {|UPDATE replace $v in doc("d")/a/v with <v>%d</v>|} i))
      done;
      Alcotest.(check int) "no stale versions" 0
        (Versions.version_count (Database.versions db)))

(* ---- when a reader reads through the snapshot overlay --------------- *)

let view_name = function
  | `Current -> "current"
  | `Overlay _ -> "overlay"

let check_view db want =
  Alcotest.(check string) "snapshot view" want (view_name (Database.snapshot_view db))

(* a commit after the snapshot: the overlay is installed and serves the
   displaced version *)
let test_overlay_for_older_snapshot () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a><v>old</v></a>");
      let s = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn ~read_only:true s;
      ignore (Test_util.exec db {|UPDATE replace $v in doc("d")/a/v with <v>new</v>|});
      Alcotest.(check string) "reader keeps its snapshot" "old"
        (Sedna_db.Session.execute_string s {|string(doc("d")/a/v)|});
      check_view db "overlay";
      Sedna_db.Session.commit s)

(* no newer commit, but an open updater holds dirty pages: an
   auto-commit reader gets the overlay and reads the committed value *)
let test_overlay_for_dirty_pages () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a><v>1</v></a>");
      let w = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn w;
      ignore (Sedna_db.Session.execute w {|UPDATE replace $v in doc("d")/a/v with <v>dirty</v>|});
      Alcotest.(check string) "committed value" "1"
        (Test_util.exec db {|string(doc("d")/a/v)|});
      check_view db "overlay";
      Sedna_db.Session.commit w;
      Alcotest.(check string) "after commit" "dirty"
        (Test_util.exec db {|string(doc("d")/a/v)|});
      check_view db "current")

(* nothing newer than the snapshot and no updater: no overlay *)
let test_overlay_skipped () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a><v>1</v></a>");
      ignore (Test_util.exec db {|UPDATE replace $v in doc("d")/a/v with <v>2</v>|});
      Alcotest.(check string) "auto-commit reader" "2"
        (Test_util.exec db {|string(doc("d")/a/v)|});
      check_view db "current";
      (* an explicit reader stays on the current pages until a commit
         overtakes its snapshot *)
      let s = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn ~read_only:true s;
      Alcotest.(check string) "explicit reader" "2"
        (Sedna_db.Session.execute_string s {|string(doc("d")/a/v)|});
      check_view db "current";
      (* an updater that has written nothing shadows no page *)
      let w = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn w;
      Alcotest.(check string) "idle updater" "2"
        (Sedna_db.Session.execute_string s {|string(doc("d")/a/v)|});
      check_view db "current";
      Sedna_db.Session.commit w;
      Sedna_db.Session.commit s)

(* a scan over many descriptors of one block under an installed overlay:
   the one-page memo answers most dereferences, and the answer is the
   snapshot's *)
let test_overlay_memo_scan () =
  Test_util.with_db (fun db ->
      let items = List.init 300 (fun i -> Printf.sprintf "<i>%d</i>" i) in
      ignore (Test_util.load db "d" ("<a>" ^ String.concat "" items ^ "</a>"));
      let s = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn ~read_only:true s;
      ignore (Test_util.exec db {|UPDATE insert <i>300</i> into doc("d")/a|});
      ignore (Test_util.exec db {|UPDATE delete doc("d")/a/i[1]|});
      Alcotest.(check string) "current answer" "300"
        (Test_util.exec db {|count(doc("d")/a/i)|});
      let d0 = Sedna_util.Counters.get Sedna_util.Counters.deref in
      Alcotest.(check string) "snapshot answer" "300 44850"
        (Sedna_db.Session.execute_string s
           {|concat(count(doc("d")/a/i), " ", sum(doc("d")/a/i))|});
      let derefs = Sedna_util.Counters.get Sedna_util.Counters.deref - d0 in
      (match Database.snapshot_view db with
       | `Current -> Alcotest.fail "overlay not installed"
       | `Overlay lookups ->
         if lookups = 0 || lookups * 4 > derefs then
           Alcotest.failf "%d page decisions for %d dereferences" lookups derefs);
      Sedna_db.Session.commit s)

(* ---- readers share the published catalog ------------------------- *)

let reader_catalog db =
  let r = Database.begin_txn ~read_only:true db in
  let cat = Option.get r.Txn.reader_catalog in
  Database.commit db r;
  cat

let decodes () = Sedna_util.Counters.get Sedna_util.Counters.catalog_decodes

(* auto-commit reads decode the committed catalog once per publication,
   not once per statement *)
let test_readers_decode_once () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a><v>1</v></a>");
      let s = Sedna_db.Session.connect db in
      let d0 = decodes () in
      for _ = 1 to 100 do
        Alcotest.(check string) "answer" "1"
          (Sedna_db.Session.execute_string s {|string(doc("d")/a/v)|})
      done;
      let d = decodes () - d0 in
      if d > 1 then Alcotest.failf "%d catalog decodes for 100 reads" d;
      Alcotest.(check bool) "counter on /metrics" true
        (Test_index_maint.contains
           (Sedna_server.Metrics_http.render_metrics [])
           (Printf.sprintf "\nsedna_catalog_decodes %d\n" (decodes ()))))

(* a commit that adds a schema path publishes a new catalog: readers
   begun before it keep the old one, readers begun after it see the
   path *)
let test_commit_publishes_catalog () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a><v>1</v></a>");
      let resolves (r : Txn.t) =
        Test_util.schema_has (Option.get r.Txn.reader_catalog) ~doc:"d" [ "a"; "fresh" ]
      in
      let before = Database.begin_txn ~read_only:true db in
      ignore (Test_util.exec db {|UPDATE insert <fresh/> into doc("d")/a|});
      let after = Database.begin_txn ~read_only:true db in
      Alcotest.(check bool) "reader begun before" false (resolves before);
      Alcotest.(check bool) "reader begun after" true (resolves after);
      Database.commit db before;
      Database.commit db after;
      Alcotest.(check bool) "later readers share one copy" true
        (reader_catalog db == reader_catalog db))

(* a reader begun while a commit is parked in its group fsync gets the
   previous catalog: the commit publishes only once it is durable *)
let test_parked_commit_keeps_catalog () =
  Test_util.with_db (fun db ->
      let has_e cat = Catalog.find_document cat "e" <> None in
      let w = Database.begin_txn db in
      Database.run db w (fun () ->
          Database.lock_exn db w ~doc:"e" ~mode:Lock_mgr.Exclusive;
          ignore (Loader.load_string (Database.txn_store db w) ~doc_name:"e" "<b/>"));
      let during = ref false in
      Database.commit db w ~park:(fun wait ->
          during := has_e (reader_catalog db);
          wait ());
      Alcotest.(check bool) "reader during the park" false !during;
      Alcotest.(check bool) "reader after the commit" true (has_e (reader_catalog db)))

(* the perfbench read templates, over a small auction document *)
let auction_reads =
  [
    {|string(doc("a")/site/people/person[@id="person7"]/name)|};
    {|sum(doc("a")/site/open_auctions/open_auction[@id="auction11"]/bidder/increase)|};
    {|count(doc("a")/site/regions/namerica/item[quantity > 2])|};
    {|for $p in doc("a")/site/people/person[address/city = "City3"] return string($p/@id)|};
  ]

(* no read path may change the shared catalog: after the executor's
   query table and the read templates it serializes to the same bytes *)
let test_reads_leave_catalog_intact () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" Test_executor.fixture);
      ignore
        (Test_util.load_events db "a"
           (Sedna_workloads.Generators.auction ~seed:1 ~items:60 ~people:90
              ~auctions:90 ()));
      let s = Sedna_db.Session.connect db in
      List.iter
        (fun ddl -> ignore (Sedna_db.Session.execute s ddl))
        [
          {|CREATE INDEX "person_id" ON doc("a")/site/people/person BY @id AS xs:string|};
          {|CREATE INDEX "auction_id" ON doc("a")/site/open_auctions/open_auction BY @id AS xs:string|};
        ];
      let cat = reader_catalog db in
      let bytes () = Catalog.serialize cat ~page_count:0 ~free_pages:[] in
      let before = bytes () in
      List.iter
        (fun q -> ignore (Sedna_db.Session.execute_string s q))
        (List.map (fun (_, q, _) -> q) Test_executor.cases @ auction_reads);
      Alcotest.(check bool) "readers still share it" true (reader_catalog db == cat);
      Alcotest.(check bool) "catalog bytes unchanged" true (String.equal before (bytes ())))

let suite =
  [
    Alcotest.test_case "commit visible" `Quick test_commit_visible;
    Alcotest.test_case "abort restores pages" `Quick test_abort_restores;
    Alcotest.test_case "abort restores catalog" `Quick test_abort_restores_catalog;
    Alcotest.test_case "lock conflicts and upgrade" `Quick test_lock_conflicts;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "three-txn deadlock cycle" `Quick
      test_three_txn_deadlock_cycle;
    Alcotest.test_case "timeout leaves lock tables clean" `Quick
      test_timeout_leaves_lock_tables_clean;
    Alcotest.test_case "snapshot reader" `Quick test_snapshot_reader;
    Alcotest.test_case "snapshot schema isolation" `Quick
      test_snapshot_sees_schema_of_its_time;
    Alcotest.test_case "no dirty reads" `Quick test_reader_sees_uncommitted_nothing;
    Alcotest.test_case "read-only rejects writes" `Quick test_readonly_cannot_write;
    Alcotest.test_case "writers serialize" `Quick test_two_writers_serialize;
    Alcotest.test_case "version purge" `Quick test_version_purge_on_creation;
    Alcotest.test_case "overlay for an older snapshot" `Quick
      test_overlay_for_older_snapshot;
    Alcotest.test_case "overlay for dirty pages" `Quick test_overlay_for_dirty_pages;
    Alcotest.test_case "overlay skipped when current" `Quick test_overlay_skipped;
    Alcotest.test_case "overlay memo over one block" `Quick test_overlay_memo_scan;
    Alcotest.test_case "readers decode the catalog once" `Quick test_readers_decode_once;
    Alcotest.test_case "commit publishes the catalog" `Quick
      test_commit_publishes_catalog;
    Alcotest.test_case "parked commit keeps the catalog" `Quick
      test_parked_commit_keeps_catalog;
    Alcotest.test_case "reads leave the catalog intact" `Quick
      test_reads_leave_catalog_intact;
  ]
