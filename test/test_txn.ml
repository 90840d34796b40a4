(* Transaction tests (paper §6): atomicity, no-wait S2PL locking,
   snapshot reads, version purging. *)

open Sedna_core

(* did [f] refuse with SE-LOCK-TIMEOUT? *)
let refused f =
  match f () with
  | () -> false
  | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.Lock_timeout, _) -> true

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
      Database.with_txn db (fun _ st -> Test_util.check_invariants st "d"))

let test_abort_restores_catalog () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a/>");
      let s = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn s;
      ignore (Sedna_db.Session.execute s {|CREATE DOCUMENT "temp"|});
      Sedna_db.Session.rollback s;
      Alcotest.(check bool) "temp gone" true
        (Catalog.find_document (Database.catalog db) "temp" = None))

(* No-wait S2PL: shared locks coexist; an upgrade is refused while
   another transaction holds the document and granted once it is
   alone; a refusal does not end the transaction *)
let test_lock_conflicts () =
  Test_util.with_db (fun db ->
      let t1 = Database.begin_txn db in
      let t2 = Database.begin_txn db in
      let lock txn mode = Database.lock_exn db txn ~doc:"d" ~mode in
      lock t1 Lock_mgr.Shared;
      lock t2 Lock_mgr.Shared;
      Alcotest.(check bool) "t2 upgrade refused" true
        (refused (fun () -> lock t2 Lock_mgr.Exclusive));
      Database.commit db t1;
      lock t2 Lock_mgr.Exclusive;
      let t3 = Database.begin_txn db in
      Alcotest.(check bool) "t3 S refused behind t2's X" true
        (refused (fun () -> lock t3 Lock_mgr.Shared));
      Database.commit db t2;
      lock t3 Lock_mgr.Exclusive;
      Database.commit db t3)

let test_timeout_leaves_lock_tables_clean () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a><n>0</n></a>");
      let s1 = Sedna_db.Session.connect db in
      let s2 = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn s1;
      ignore (Sedna_db.Session.execute s1 {|UPDATE replace $n in doc("d")/a/n with <n>1</n>|});
      Sedna_db.Session.begin_txn s2;
      (* Lock_timeout is a catchable statement error that aborts only
         s2's transaction; nothing of it may survive the abort *)
      (match Sedna_db.Session.execute s2 {|UPDATE replace $n in doc("d")/a/n with <n>2</n>|} with
       | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.Lock_timeout, _) -> ()
       | _ -> Alcotest.fail "expected Lock_timeout");
      Alcotest.(check bool) "s2 dropped out of its transaction" false
        (Sedna_db.Session.in_transaction s2);
      (* s1 is the only holder: another updater is refused, s1 goes on *)
      let t3 = Database.begin_txn db in
      Alcotest.(check bool) "s1 still holds d" true
        (refused (fun () -> Database.lock_exn db t3 ~doc:"d" ~mode:Lock_mgr.Shared));
      Database.abort db t3;
      ignore (Sedna_db.Session.execute s1 {|UPDATE replace $n in doc("d")/a/n with <n>3</n>|});
      Sedna_db.Session.commit s1;
      (* tables drained after commit: a fresh updater is granted X *)
      let t4 = Database.begin_txn db in
      Database.lock_exn db t4 ~doc:"d" ~mode:Lock_mgr.Exclusive;
      Database.commit db t4;
      Alcotest.(check string) "s1's writes committed" "3"
        (Test_util.exec db {|string(doc("d")/a/n)|}))

(* A read-only transaction reads its snapshot and holds no lock, so an
   auto-commit writer on the same document goes through at once *)
let test_read_only_never_locks () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<r><x/></r>");
      let q = {|count(doc("d")//x)|} in
      let s1 = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn ~read_only:true s1;
      Alcotest.(check string) "reader" "1" (Sedna_db.Session.execute_string s1 q);
      let restarts = Sedna_util.Counters.get Sedna_util.Counters.stmt_lock_restarts in
      ignore
        (Sedna_db.Session.execute (Sedna_db.Session.connect db)
           {|UPDATE insert <x/> into doc("d")/r|});
      Alcotest.(check int) "writer never restarted" restarts
        (Sedna_util.Counters.get Sedna_util.Counters.stmt_lock_restarts);
      Alcotest.(check string) "reader keeps its snapshot" "1"
        (Sedna_db.Session.execute_string s1 q);
      Sedna_db.Session.commit s1;
      Alcotest.(check string) "the write committed" "2" (Test_util.exec db q))

(* ---- lock rule against a holder-list model --------------------------- *)

(* Random requests from three transaction slots on three documents,
   through [begin_txn]/[lock_exn]/[commit]/[abort].  The model keeps
   each open slot's held modes: a request is granted iff the slot is
   read-only, already holds X or the same mode, or no other open slot
   holds a conflicting mode on the document. *)
type lock_op =
  | Begin of bool (* read-only *)
  | Lock of int * Lock_mgr.mode
  | Commit
  | Abort

let show_lock_op (slot, op) =
  Printf.sprintf "t%d:%s" slot
    (match op with
     | Begin ro -> if ro then "begin-ro" else "begin"
     | Lock (d, Lock_mgr.Shared) -> Printf.sprintf "S%d" d
     | Lock (d, Lock_mgr.Exclusive) -> Printf.sprintf "X%d" d
     | Commit -> "commit"
     | Abort -> "abort")

let arb_lock_ops =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map show_lock_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(
      list_size (int_range 1 40)
        (pair (int_range 0 2)
           (frequency
              [
                (2, map (fun ro -> Begin ro) bool);
                ( 6,
                  map2
                    (fun d x -> Lock (d, if x then Lock_mgr.Exclusive else Lock_mgr.Shared))
                    (int_range 0 2) bool );
                (1, return Commit);
                (1, return Abort);
              ])))

let prop_lock_model ops =
  Test_util.with_db (fun db ->
      (* slot -> transaction, its read-only flag and modeled holdings *)
      let slots = Array.make 3 None in
      let doc d = Printf.sprintf "d%d" d in
      let grants ~except ~ro ~held d mode =
        let conflicts (i, slot) =
          match slot with
          | Some (_, _, holds) when i <> except -> (
            match List.assoc_opt d holds with
            | Some m -> not (Lock_mgr.compatible mode m)
            | None -> false)
          | _ -> false
        in
        ro
        || held = Some Lock_mgr.Exclusive
        || held = Some mode
        || not (Seq.exists conflicts (Array.to_seqi slots))
      in
      let granted txn d mode =
        not (refused (fun () -> Database.lock_exn db txn ~doc:(doc d) ~mode))
      in
      let step (i, op) =
        match (op, slots.(i)) with
        | Begin ro, None ->
          slots.(i) <- Some (Database.begin_txn ~read_only:ro db, ro, []);
          true
        | Lock (d, mode), Some (txn, ro, holds) ->
          let held = List.assoc_opt d holds in
          let want = grants ~except:i ~ro ~held d mode in
          let got = granted txn d mode in
          if got && not ro && held <> Some Lock_mgr.Exclusive then
            slots.(i) <- Some (txn, ro, (d, mode) :: List.remove_assoc d holds);
          want = got
        | (Commit | Abort), Some (txn, _, holds) ->
          if op = Commit then Database.commit db txn else Database.abort db txn;
          slots.(i) <- None;
          (* the released requests, from a fresh updater: granted
             unless another open slot still conflicts *)
          let fresh = Database.begin_txn db in
          let ok =
            List.for_all
              (fun (d, mode) ->
                granted fresh d mode = grants ~except:i ~ro:false ~held:None d mode)
              holds
          in
          Database.abort db fresh;
          ok
        | _ -> true
      in
      let ok = List.for_all step ops in
      Array.iter (Option.iter (fun (txn, _, _) -> Database.abort db txn)) slots;
      ok)

let test_snapshot_reader () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<a><v>old</v></a>");
      let reader = Database.begin_txn ~read_only:true db in
      let read () =
        Database.run db reader (fun () ->
            let st = Database.txn_store db reader ~mode:Lock_mgr.Shared in
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
            let st = Database.txn_store db reader ~mode:Lock_mgr.Shared in
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
            let st = Database.txn_store db reader ~mode:Lock_mgr.Shared in
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
          ignore
            (Loader.load_string (Database.txn_store db w ~mode:Lock_mgr.Exclusive)
               ~doc_name:"e" "<b/>"));
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

(* ---- documents are locked where a statement resolves them ----------- *)

(* d1 sits in collection c and carries an index, so each way of naming
   it resolves here.  Transaction A runs [a] in an explicit updater
   transaction; B's auto-commit [b] touches the same document and must
   be refused (its restarts end in SE-LOCK-TIMEOUT) until A rolls back,
   then go through.  The database is clean after a close and reopen. *)
let resolved_lock_case ~a ~b ~check =
  Test_util.with_dir (fun dir ->
      let db = Database.create dir in
      List.iter
        (fun q -> ignore (Test_util.exec db q))
        [
          {|CREATE COLLECTION "c"|};
          {|CREATE DOCUMENT "d1" IN COLLECTION "c"|};
          {|UPDATE insert <r><x a="a"/></r> into doc("d1")|};
          {|CREATE INDEX "ix" ON doc("d1")/r/x BY @a AS xs:string|};
        ];
      let sa = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn sa;
      ignore (Sedna_db.Session.execute sa a);
      Alcotest.(check bool) "B refused while A holds d1" true
        (refused (fun () -> ignore (Test_util.exec db b)));
      Sedna_db.Session.rollback sa;
      ignore (Test_util.exec db b);
      check db;
      Database.close db;
      let db = Database.open_existing dir in
      Fun.protect
        ~finally:(fun () -> Database.close db)
        (fun () ->
          check db;
          Alcotest.(check (list (pair string (list string)))) "integrity after reopen" []
            (Integrity.check_all (Database.store db))))

let insert_y = {|UPDATE insert <y/> into doc("d1")/r|}
let one_y db = Alcotest.(check string) "B's insert alone" "1" (Test_util.exec db {|count(doc("d1")/r/y)|})

let test_computed_doc_name_locks () =
  resolved_lock_case ~a:{|UPDATE insert <z/> into doc(concat("d","1"))/r|} ~b:insert_y
    ~check:one_y

let test_prolog_doc_name_locks () =
  resolved_lock_case
    ~a:{|declare variable $n := "d1"; UPDATE insert <z/> into doc($n)/r|}
    ~b:insert_y ~check:one_y

let test_index_scan_target_locks () =
  resolved_lock_case ~a:{|UPDATE insert <z/> into index-scan("ix", "a")|} ~b:insert_y
    ~check:one_y

(* both ways round: A's DROP COLLECTION holds the member it drops, and
   A's insert into the member holds off B's DROP COLLECTION *)
let test_drop_collection_locks () =
  resolved_lock_case ~a:{|DROP COLLECTION "c"|} ~b:insert_y ~check:one_y;
  resolved_lock_case ~a:insert_y ~b:{|DROP COLLECTION "c"|} ~check:(fun db ->
      Alcotest.(check bool) "d1 dropped" true
        (Catalog.find_document (Database.catalog db) "d1" = None))

(* DROP INDEX changes the index's document: it waits for A too *)
let test_drop_index_locks () =
  resolved_lock_case ~a:insert_y ~b:{|DROP INDEX "ix"|} ~check:(fun db ->
      Alcotest.(check bool) "ix dropped" true
        (Catalog.find_index (Database.catalog db) "ix" = None))

(* a lock the transaction holds returns before its span: one lock.wait
   however often the statement resolves the document *)
let test_held_lock_fast_path () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<r/>");
      let s = Sedna_db.Session.connect db in
      Sedna_db.Session.begin_txn s;
      Sedna_util.Span.clear ();
      Alcotest.(check string) "answer" "1000"
        (Sedna_db.Session.execute_string s {|count(for $i in 1 to 1000 return doc("d")/r)|});
      Sedna_db.Session.commit s;
      let waits =
        List.concat_map
          (fun (_, spans) ->
            List.filter (fun sp -> sp.Sedna_util.Span.sp_name = "lock.wait") spans)
          (Sedna_util.Span.traces ())
      in
      Alcotest.(check int) "lock.wait spans" 1 (List.length waits))

let suite =
  [
    Alcotest.test_case "commit visible" `Quick test_commit_visible;
    Alcotest.test_case "abort restores pages" `Quick test_abort_restores;
    Alcotest.test_case "abort restores catalog" `Quick test_abort_restores_catalog;
    Alcotest.test_case "lock conflicts and upgrade" `Quick test_lock_conflicts;
    Test_util.qcheck_case ~count:100 "lock rule matches the holder model" arb_lock_ops
      prop_lock_model;
    Alcotest.test_case "read-only transactions never lock" `Quick
      test_read_only_never_locks;
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
    Alcotest.test_case "computed doc() name locks" `Quick test_computed_doc_name_locks;
    Alcotest.test_case "prolog doc() name locks" `Quick test_prolog_doc_name_locks;
    Alcotest.test_case "index-scan target locks" `Quick test_index_scan_target_locks;
    Alcotest.test_case "drop collection locks its members" `Quick
      test_drop_collection_locks;
    Alcotest.test_case "drop index locks its document" `Quick test_drop_index_locks;
    Alcotest.test_case "held lock skips the wait" `Quick test_held_lock_fast_path;
  ]
