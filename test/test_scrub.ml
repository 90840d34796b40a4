(* Self-healing storage: the online scrubber's repair paths (pool /
   WAL after-image / standby fetch), its no-false-positive guarantee
   against concurrent writers, checksum adoption under concurrent
   readers, the enospc fault action, degraded-mode semantics, the
   watchdog's hysteresis, and the Page_request/Page_reply wire codec. *)

open Sedna_util
open Sedna_core
module G = Sedna_db.Governor
module Session = Sedna_db.Session
module Wire = Sedna_server.Wire

(* ---- helpers ---------------------------------------------------------- *)

let mk_db ?(frames = 32) dir =
  let db = Database.create ~buffer_frames:frames dir in
  ignore
    (Database.with_txn db (fun txn st ->
         Database.lock_exn db txn ~doc:"d" ~mode:Lock_mgr.Exclusive;
         Loader.load_string st ~doc_name:"d" "<d/>"));
  db

let insert db i =
  let s = Session.connect db in
  ignore
    (Session.execute s
       (Printf.sprintf {|UPDATE insert <e i="%d">%s</e> into doc("d")/d|} i
          (String.make 300 'x')))

let count_entries db =
  let s = Session.connect db in
  Session.execute_string s {|count(doc("d")/d/e)|}

(* XOR-flip one byte of a page's on-disk image behind the pool's back *)
let flip db pid =
  let fs = Buffer_mgr.store (Database.buffer db) in
  let fd = Unix.openfile (File_store.path fs) [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let off = (pid * Page.page_size) + 128 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1))

let find_page db pred =
  let fs = Buffer_mgr.store (Database.buffer db) in
  let n = File_store.page_count fs in
  let rec go pid =
    if pid >= n then None else if pred pid then Some pid else go (pid + 1)
  in
  go 0

let committed_wal_pids db =
  let tbl = Hashtbl.create 32 in
  List.iter
    (function Wal.Image (_, pid, _) -> Hashtbl.replace tbl pid true | _ -> ())
    (Wal.committed
       (Wal.read_all (Filename.concat (Database.directory db) "wal.sdb")));
  tbl

let verify db pid =
  File_store.verify_page (Buffer_mgr.store (Database.buffer db)) pid

(* ---- enospc fault action + errno classifier --------------------------- *)

let test_enospc_policy () =
  let p = Fault.parse_policy "enospc@1" in
  (* @1 is the default trigger, so the canonical form drops it *)
  Alcotest.(check string) "canonical form" "enospc" (Fault.policy_to_string p);
  Alcotest.(check string) "roundtrip" "enospc@2"
    (Fault.policy_to_string (Fault.parse_policy "enospc@2"));
  let s = Fault.site "test.enospc_suite" in
  Fault.with_armed "test.enospc_suite" p (fun () ->
      (match Fault.hit s with
       | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ()
       | _ -> Alcotest.fail "armed enospc policy did not raise ENOSPC");
      (* @1 self-disarms: the next hit proceeds *)
      ignore (Fault.hit s));
  let classified e = Sysutil.is_resource_exhaustion e in
  Alcotest.(check bool) "ENOSPC" true
    (classified (Unix.Unix_error (Unix.ENOSPC, "write", "")));
  Alcotest.(check bool) "EMFILE" true
    (classified (Unix.Unix_error (Unix.EMFILE, "open", "")));
  Alcotest.(check bool) "EDQUOT (errno 122)" true
    (classified (Unix.Unix_error (Unix.EUNKNOWNERR 122, "write", "")));
  Alcotest.(check bool) "EIO is not exhaustion" false
    (classified (Unix.Unix_error (Unix.EIO, "write", "")));
  Alcotest.(check bool) "non-unix is not exhaustion" false
    (classified Not_found)

(* ---- wire codec: Page_request / Page_reply ---------------------------- *)

let test_wire_page_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a; Unix.close b)
    (fun () ->
      Wire.write_repl_request a (Wire.Page_request { cluster = 7; pid = 42 });
      (match Wire.read_repl_request b with
       | Wire.Page_request { cluster = 7; pid = 42 } -> ()
       | _ -> Alcotest.fail "Page_request did not roundtrip");
      let page = String.make Page.page_size 'p' in
      Wire.write_repl_response b
        (Wire.Page_reply { cluster = 3; pid = 42; page = Some page });
      (match Wire.read_repl_response a with
       | Wire.Page_reply { cluster = 3; pid = 42; page = Some p } ->
         Alcotest.(check int) "page size" Page.page_size (String.length p);
         Alcotest.(check bool) "page bytes" true (p = page)
       | _ -> Alcotest.fail "Page_reply(Some) did not roundtrip");
      Wire.write_repl_response b
        (Wire.Page_reply { cluster = 9; pid = 1; page = None });
      match Wire.read_repl_response a with
      | Wire.Page_reply { cluster = 9; pid = 1; page = None } -> ()
      | _ -> Alcotest.fail "Page_reply(None) did not roundtrip")

(* ---- repair paths ----------------------------------------------------- *)

(* clean-resident victim: the pool's frame is the committed content and
   is written straight back through *)
let test_repair_from_pool () =
  let dir = Test_util.fresh_dir () in
  let db = mk_db dir in
  for i = 1 to 20 do insert db i done;
  Database.checkpoint db;
  (* everything just flushed: pick a clean-resident page *)
  let pid =
    match
      find_page db (fun pid ->
          Buffer_mgr.residency (Database.buffer db) pid = `Clean)
    with
    | Some pid -> pid
    | None -> Alcotest.fail "no clean-resident page after checkpoint"
  in
  flip db pid;
  Alcotest.(check bool) "corrupt on disk" true (verify db pid = `Corrupt);
  let st = Scrubber.run_pass (Scrubber.create db) in
  Alcotest.(check int) "one corruption found" 1 st.Scrubber.corrupt;
  Alcotest.(check int) "repaired from pool" 1 st.Scrubber.repaired_pool;
  Alcotest.(check bool) "clean after repair" true (verify db pid = `Ok);
  Alcotest.(check string) "document intact" "20" (count_entries db);
  Database.close db

(* absent victim with a committed WAL after-image: redo-from-log repair *)
let test_repair_from_wal () =
  let dir = Test_util.fresh_dir () in
  (* tiny pool: pages are evicted as the document grows *)
  let db = mk_db ~frames:2 dir in
  for i = 1 to 30 do insert db i done;
  let wal_pids = committed_wal_pids db in
  let pid =
    match
      find_page db (fun pid ->
          Buffer_mgr.residency (Database.buffer db) pid = `Absent
          && Hashtbl.mem wal_pids pid)
    with
    | Some pid -> pid
    | None -> Alcotest.fail "no absent page with a WAL after-image"
  in
  flip db pid;
  let st = Scrubber.run_pass (Scrubber.create db) in
  Alcotest.(check bool) "repaired from wal" true (st.Scrubber.repaired_wal >= 1);
  Alcotest.(check bool) "clean after repair" true (verify db pid = `Ok);
  Alcotest.(check string) "document intact" "30" (count_entries db);
  Database.close db

(* absent victim whose after-image a checkpoint truncated away: only
   the injected fetch hook (the standby, in production) can supply it *)
let test_repair_from_fetch_stub () =
  let dir = Test_util.fresh_dir () in
  let db = mk_db ~frames:2 dir in
  for i = 1 to 30 do insert db i done;
  Database.checkpoint db;
  let pid =
    match
      find_page db (fun pid ->
          Buffer_mgr.residency (Database.buffer db) pid = `Absent)
    with
    | Some pid -> pid
    | None -> Alcotest.fail "no absent page after checkpoint"
  in
  (* keep the good bytes, as the standby would have them *)
  let fs = Buffer_mgr.store (Database.buffer db) in
  let good = Bytes.create Page.page_size in
  let fd = Unix.openfile (File_store.path fs) [ Unix.O_RDONLY ] 0 in
  ignore (Unix.lseek fd (pid * Page.page_size) Unix.SEEK_SET);
  let rec fill off =
    if off < Page.page_size then
      match Unix.read fd good off (Page.page_size - off) with
      | 0 -> Alcotest.fail "short read of victim page"
      | n -> fill (off + n)
  in
  fill 0;
  Unix.close fd;
  flip db pid;
  (* without a fetch hook the repair must fail honestly... *)
  let st = Scrubber.run_pass (Scrubber.create db) in
  Alcotest.(check bool) "repair failed without hook" true
    (st.Scrubber.failed >= 1);
  Alcotest.(check bool) "still corrupt" true (verify db pid = `Corrupt);
  (* ...and with one, land the peer's copy *)
  let fetch p = if p = pid then Some (Bytes.copy good) else None in
  let st = Scrubber.run_pass (Scrubber.create ~fetch db) in
  Alcotest.(check bool) "repaired from fetch" true
    (st.Scrubber.repaired_standby >= 1);
  Alcotest.(check bool) "clean after repair" true (verify db pid = `Ok);
  Alcotest.(check string) "document intact" "30" (count_entries db);
  Database.close db

(* a dirty resident frame defers: the flush rewrites the page anyway *)
let test_repair_defers_dirty () =
  let dir = Test_util.fresh_dir () in
  let db = mk_db dir in
  for i = 1 to 5 do insert db i done;
  (* no checkpoint: the data pages are dirty-resident *)
  let pid =
    match
      find_page db (fun pid ->
          Buffer_mgr.residency (Database.buffer db) pid = `Dirty)
    with
    | Some pid -> pid
    | None -> Alcotest.fail "no dirty-resident page"
  in
  flip db pid;
  let st = Scrubber.run_pass (Scrubber.create db) in
  Alcotest.(check bool) "deferred" true (st.Scrubber.deferred >= 1);
  Database.checkpoint db;
  Alcotest.(check bool) "flush healed the disk" true (verify db pid = `Ok);
  Database.close db

(* ---- no false positives against a concurrent writer ------------------- *)

let test_scrub_vs_writer () =
  let dir = Test_util.fresh_dir () in
  let db = mk_db ~frames:8 dir in
  let g = G.create () in
  G.register_database g ~name:"d" db;
  let corrupt0 = Counters.get Counters.scrub_corrupt in
  let stop = ref false in
  let writer =
    Thread.create
      (fun () ->
        let i = ref 100 in
        while not !stop do
          incr i;
          G.with_engine g (fun () -> insert db !i)
        done)
      ()
  in
  let sc = Scrubber.create ~lock:(fun f -> G.with_engine g f) db in
  for _ = 1 to 3 do
    ignore (Scrubber.run_pass sc)
  done;
  stop := true;
  Thread.join writer;
  Alcotest.(check int) "no false positives under a live writer" corrupt0
    (Counters.get Counters.scrub_corrupt);
  G.shutdown g

(* ---- checksum adoption under concurrent readers ------------------------ *)

let test_adopt_under_concurrent_readers () =
  let dir = Test_util.fresh_dir () in
  let db = mk_db dir in
  for i = 1 to 20 do insert db i done;
  Database.close db;
  (* a pre-checksum store: every page adopts its CRC on first read *)
  Sys.remove (Filename.concat dir "data.sdb.cksum");
  let db = Database.open_existing dir in
  let g = G.create () in
  G.register_database g ~name:"d" db;
  let adopt0 = Counters.get Counters.checksum_adopt in
  let errors = ref 0 in
  let mu = Mutex.create () in
  let reader () =
    try
      let s = Session.connect db in
      for _ = 1 to 10 do
        let n =
          G.with_engine g (fun () ->
              Session.execute_string s {|count(doc("d")/d/e)|})
        in
        if n <> "20" then begin
          Mutex.lock mu; incr errors; Mutex.unlock mu
        end
      done
    with _ ->
      Mutex.lock mu; incr errors; Mutex.unlock mu
  in
  let ts = List.init 4 (fun _ -> Thread.create reader ()) in
  List.iter Thread.join ts;
  Alcotest.(check int) "no reader errors" 0 !errors;
  Alcotest.(check bool) "checksums adopted" true
    (Counters.get Counters.checksum_adopt > adopt0);
  (* and the adopted sidecar verifies clean end to end *)
  let st =
    Scrubber.run_pass (Scrubber.create ~lock:(fun f -> G.with_engine g f) db)
  in
  Alcotest.(check int) "scrub clean after adoption" 0 st.Scrubber.corrupt;
  G.shutdown g

(* ---- degraded mode ----------------------------------------------------- *)

let test_degraded_semantics () =
  let dir = Test_util.fresh_dir () in
  let db = mk_db dir in
  insert db 1;
  let rejected0 = Counters.get Counters.degraded_rejected_writes in
  Database.enter_degraded db "test: disk full";
  Database.enter_degraded db "test: again" (* idempotent *);
  Alcotest.(check bool) "degraded" true (Database.is_degraded db);
  Alcotest.(check string) "first reason wins" "test: disk full"
    (Database.degraded_reason db);
  (match Database.begin_txn db with
   | exception Error.Sedna_error (Error.Degraded, _) -> ()
   | _ -> Alcotest.fail "write transaction began while degraded");
  Alcotest.(check bool) "refusal counted" true
    (Counters.get Counters.degraded_rejected_writes > rejected0);
  (* reads keep working *)
  let txn = Database.begin_txn ~read_only:true db in
  Database.commit db txn;
  Alcotest.(check string) "read served while degraded" "1" (count_entries db);
  (* SE-DEGRADED is its own refusal code, distinct from fencing *)
  Alcotest.(check string) "code name" "SE-DEGRADED"
    (Error.code_name Error.Degraded);
  Database.exit_degraded db;
  Database.exit_degraded db (* idempotent *);
  Alcotest.(check bool) "recovered" false (Database.is_degraded db);
  insert db 2;
  Alcotest.(check string) "writes resume" "2" (count_entries db);
  Database.close db

(* a write mid-transaction that hits injected ENOSPC at the group-commit
   fsync: SE-DEGRADED to the caller, transaction aborted, no false ack *)
let test_commit_enospc_degrades () =
  let dir = Test_util.fresh_dir () in
  let db = mk_db dir in
  insert db 1;
  Fault.arm_spec "wal.group_sync:enospc@1";
  (match insert db 2 with
   | () -> Alcotest.fail "commit acked across a failed group fsync"
   | exception Error.Sedna_error (Error.Degraded, _) -> ()
   | exception e ->
     Alcotest.fail ("wanted SE-DEGRADED, got " ^ Printexc.to_string e));
  Fault.disarm_all ();
  Alcotest.(check bool) "node degraded" true (Database.is_degraded db);
  Alcotest.(check string) "failed write invisible" "1" (count_entries db);
  Database.exit_degraded db;
  insert db 3;
  Alcotest.(check string) "writes resume" "2" (count_entries db);
  Database.close db

(* ---- watchdog hysteresis ----------------------------------------------- *)

let test_watchdog_degrade_and_recover () =
  let dir = Test_util.fresh_dir () in
  let db = mk_db dir in
  (* a healthy probe is silent *)
  Watchdog.probe_dir dir;
  Fault.arm_spec "store.enospc:enospc@1";
  let wd =
    Watchdog.start ~interval_s:0.01 ~recover_after:2 ~dir
      ~get_db:(fun () -> Some db)
      ()
  in
  let wait_for cond =
    let d = Unix.gettimeofday () +. 5. in
    while (not (cond ())) && Unix.gettimeofday () < d do
      Thread.delay 0.005
    done;
    cond ()
  in
  Alcotest.(check bool) "probe ENOSPC degrades" true
    (wait_for (fun () -> Database.is_degraded db));
  (* the policy self-disarmed: consecutive healthy probes recover *)
  Alcotest.(check bool) "hysteresis recovers" true
    (wait_for (fun () -> not (Database.is_degraded db)));
  Watchdog.stop wd;
  Fault.disarm_all ();
  insert db 1;
  Alcotest.(check string) "writes work after recovery" "1" (count_entries db);
  Database.close db

let suite =
  [
    Alcotest.test_case "enospc action + errno classifier" `Quick
      test_enospc_policy;
    Alcotest.test_case "wire page request/reply roundtrip" `Quick
      test_wire_page_roundtrip;
    Alcotest.test_case "repair from clean resident frame" `Quick
      test_repair_from_pool;
    Alcotest.test_case "repair from WAL after-image" `Quick
      test_repair_from_wal;
    Alcotest.test_case "repair from fetch hook (standby)" `Quick
      test_repair_from_fetch_stub;
    Alcotest.test_case "dirty frame defers to flush" `Quick
      test_repair_defers_dirty;
    Alcotest.test_case "no false positives vs live writer" `Quick
      test_scrub_vs_writer;
    Alcotest.test_case "checksum adoption under concurrent readers" `Quick
      test_adopt_under_concurrent_readers;
    Alcotest.test_case "degraded mode refuses writes, serves reads" `Quick
      test_degraded_semantics;
    Alcotest.test_case "commit-path ENOSPC degrades, no false ack" `Quick
      test_commit_enospc_degrades;
    Alcotest.test_case "watchdog degrades and recovers" `Quick
      test_watchdog_degrade_and_recover;
  ]
