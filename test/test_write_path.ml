(* Write-path tests for the group-commit PR: thread-safe counters, the
   slow-log file sink, and commit coalescing with its failure and crash
   discipline. *)

open Sedna_util
open Sedna_core
module Governor = Sedna_db.Governor
module Session = Sedna_db.Session
module Drill = Sedna_replication.Drill

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---- counters under concurrency ---------------------------------------- *)

(* 4 threads hammering one name plus a second name with ?n bumps: the
   totals must be exact — a read-modify-write race would lose updates. *)
let test_counters_concurrent () =
  let name = "test.wp_concurrent" and name2 = "test.wp_concurrent2" in
  Counters.reset name;
  Counters.reset name2;
  let per_thread = 25_000 in
  let worker _ =
    Thread.create
      (fun () ->
        for _ = 1 to per_thread do
          Counters.bump name;
          Counters.bump ~n:3 name2
        done)
      ()
  in
  let ts = List.init 4 worker in
  List.iter Thread.join ts;
  Alcotest.(check int) "exact total" (4 * per_thread) (Counters.get name);
  Alcotest.(check int) "exact ?n total" (4 * per_thread * 3) (Counters.get name2);
  Counters.reset name;
  Counters.reset name2

(* ---- slow-log file sink ------------------------------------------------- *)

(* Every record is flushed as it is written: a tail of the sink file
   must show the statement immediately, not after some later close. *)
let test_slow_log_tail_visible () =
  let saved = Span.slow_threshold () in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sedna-slowlog-%d.jsonl" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      Span.set_slow_file None;
      Span.set_slow_threshold saved;
      Span.clear_slow ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Span.set_slow_threshold 0.;
      Span.set_slow_file (Some path);
      let observe text =
        let cx = Option.get (Span.make ()) in
        let sp = Span.start cx "statement" in
        Span.finish cx ~annots:[ ("text", Metrics.Str text) ] sp;
        Span.mark_slow cx;
        Span.publish cx
      in
      let read_all () =
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      in
      observe "first statement";
      let s1 = read_all () in
      Alcotest.(check bool) "first record visible" true
        (contains s1 "first statement");
      observe "second statement";
      let s2 = read_all () in
      Alcotest.(check bool) "second record visible" true
        (contains s2 "second statement");
      Alcotest.(check bool) "first record kept" true
        (contains s2 "first statement"))

(* ---- group commit ------------------------------------------------------- *)

let entry_token t i = Printf.sprintf "|t%d-%d|" t i

let insert_stmt ?(doc = "log") token =
  Printf.sprintf {|UPDATE insert <e>%s</e> into doc(%S)/log|} token doc

let load_doc db name =
  ignore
    (Database.with_txn db (fun txn st ->
         Database.lock_exn db txn ~doc:name ~mode:Lock_mgr.Exclusive;
         Loader.load_string st ~doc_name:name "<log/>"))

let with_cluster f =
  let dir = Test_util.fresh_dir () in
  Unix.mkdir dir 0o755;
  let gov = Governor.create () in
  let db = Governor.create_database gov ~name:"db" ~dir in
  ignore
    (Database.with_txn db (fun txn st ->
         Database.lock_exn db txn ~doc:"log" ~mode:Lock_mgr.Exclusive;
         Loader.load_string st ~doc_name:"log" "<log/>"));
  Fun.protect
    ~finally:(fun () ->
      (try Governor.shutdown gov with _ -> ());
      Sysutil.rm_rf dir)
    (fun () -> f gov db)

(* N committers racing through the engine lock, each writing its own
   document (the coalescing workload: a commit parked on doc A overlaps
   statements against docs B..H): the parked waits must coalesce into
   fewer WAL syncs than commits, and every acked entry must be in its
   document. *)
let test_group_commit_coalesces () =
  with_cluster (fun gov db ->
      let threads = 8 and per_thread = 15 in
      let doc t = Printf.sprintf "log%d" t in
      for t = 0 to threads - 1 do
        Governor.with_engine gov (fun () -> load_doc db (doc t))
      done;
      let syncs0 = Counters.get Counters.wal_group_syncs in
      let acked = Array.make threads 0 in
      let failures = ref [] in
      let mu = Mutex.create () in
      let worker t =
        Thread.create
          (fun () ->
            let _, s = Governor.connect gov ~database:"db" in
            for i = 1 to per_thread do
              match
                Governor.with_engine gov (fun () ->
                    ignore
                      (Session.execute s
                         (insert_stmt ~doc:(doc t) (entry_token t i))))
              with
              | () -> acked.(t) <- acked.(t) + 1
              | exception e ->
                Mutex.lock mu;
                failures := Printexc.to_string e :: !failures;
                Mutex.unlock mu
            done)
          ()
      in
      let ts = List.init threads worker in
      List.iter Thread.join ts;
      (match !failures with
       | [] -> ()
       | e :: _ -> Alcotest.failf "concurrent insert failed: %s" e);
      let commits = Array.fold_left ( + ) 0 acked in
      Alcotest.(check int) "all commits acked" (threads * per_thread) commits;
      let syncs = Counters.get Counters.wal_group_syncs - syncs0 in
      Alcotest.(check bool) "at least one group sync" true (syncs >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "coalesced: %d syncs for %d commits" syncs commits)
        true
        (syncs < commits);
      for t = 0 to threads - 1 do
        let text =
          Test_util.exec db (Printf.sprintf {|string(doc(%S)/log)|} (doc t))
        in
        for i = 1 to per_thread do
          if not (contains text (entry_token t i)) then
            Alcotest.failf "acked entry %s missing" (entry_token t i)
        done
      done)

(* A failed group sync must fail every commit parked on it — no false
   acks — while the sessions survive and later commits go through. *)
let test_group_sync_failure_isolated () =
  with_cluster (fun gov db ->
      Fault.with_armed "wal.group_sync" (Fault.parse_policy "fail@1")
        (fun () ->
          match
            Governor.with_engine gov (fun () ->
                ignore (Test_util.exec db (insert_stmt "|doomed|")))
          with
          | () -> Alcotest.fail "commit acked across a failed sync"
          | exception _ -> ());
      let text = Test_util.exec db {|string(doc("log")/log)|} in
      Alcotest.(check bool) "failed commit not applied" false
        (contains text "|doomed|");
      (* the engine is healthy: the next commit succeeds and is visible *)
      Governor.with_engine gov (fun () ->
          ignore (Test_util.exec db (insert_stmt "|survivor|")));
      let text = Test_util.exec db {|string(doc("log")/log)|} in
      Alcotest.(check bool) "later commit lands" true
        (contains text "|survivor|"))

(* Same, under concurrency: the one failed sync takes down only the
   commits parked on it; every acked entry is present, every failed one
   absent. *)
let test_group_sync_failure_concurrent () =
  with_cluster (fun gov _db ->
      Fault.arm "wal.group_sync" (Fault.parse_policy "fail@1");
      let threads = 4 and per_thread = 4 in
      let acked = ref [] and failed = ref [] in
      let mu = Mutex.create () in
      let note r tok =
        Mutex.lock mu;
        r := tok :: !r;
        Mutex.unlock mu
      in
      let worker t =
        Thread.create
          (fun () ->
            let _, s = Governor.connect gov ~database:"db" in
            for i = 1 to per_thread do
              let tok = entry_token t i in
              match
                Governor.with_engine gov (fun () ->
                    ignore (Session.execute s (insert_stmt tok)))
              with
              | () -> note acked tok
              | exception _ -> note failed tok
            done)
          ()
      in
      let ts = List.init threads worker in
      List.iter Thread.join ts;
      Fault.disarm_all ();
      Alcotest.(check bool) "the armed sync failure fired" true
        (!failed <> []);
      Alcotest.(check bool) "later commits recovered" true (!acked <> []);
      let db = Governor.get_database gov "db" in
      let text = Test_util.exec db {|string(doc("log")/log)|} in
      List.iter
        (fun tok ->
          if not (contains text tok) then
            Alcotest.failf "acked entry %s missing" tok)
        !acked;
      List.iter
        (fun tok ->
          if contains text tok then
            Alcotest.failf "failed entry %s falsely applied" tok)
        !failed)

(* The checkpoint resets WAL positions; the group-commit cursor must
   follow, or post-checkpoint commits would "already be synced". *)
let test_group_commit_across_checkpoint () =
  with_cluster (fun gov db ->
      Governor.with_engine gov (fun () ->
          ignore (Test_util.exec db (insert_stmt "|pre-ckpt|")));
      Governor.with_engine gov (fun () -> Database.checkpoint db);
      Governor.with_engine gov (fun () ->
          ignore (Test_util.exec db (insert_stmt "|post-ckpt|")));
      (* the post-checkpoint commit must be genuinely durable: reopen
         from disk and look for it *)
      let dir = Database.directory db in
      Database.crash db;
      let db2 = Database.open_existing dir in
      Fun.protect
        ~finally:(fun () -> try Database.close db2 with _ -> ())
        (fun () ->
          let text = Test_util.exec db2 {|string(doc("log")/log)|} in
          Alcotest.(check bool) "pre-checkpoint entry" true
            (contains text "|pre-ckpt|");
          Alcotest.(check bool) "post-checkpoint entry" true
            (contains text "|post-ckpt|")))

(* The systematic harness, armed on the new site: crash in the middle
   of the shared fsync at any point of the workload and every acked
   commit must still be there after recovery. *)
let test_crash_at_group_sync () =
  let dir = Test_util.fresh_dir () in
  let o = Drill.run ~dir "wal.group_sync:crash@2" in
  if not (Drill.ok o) then Alcotest.fail (Drill.render o);
  Alcotest.(check bool) "fault fired" true o.Drill.fired

let suite =
  [
    Alcotest.test_case "counters: exact totals under 4 threads" `Quick
      test_counters_concurrent;
    Alcotest.test_case "slow log: file sink is tail-visible" `Quick
      test_slow_log_tail_visible;
    Alcotest.test_case "group commit: concurrent committers coalesce" `Quick
      test_group_commit_coalesces;
    Alcotest.test_case "group commit: failed sync not acked" `Quick
      test_group_sync_failure_isolated;
    Alcotest.test_case "group commit: failure isolation under concurrency"
      `Quick test_group_sync_failure_concurrent;
    Alcotest.test_case "group commit: survives checkpoint" `Quick
      test_group_commit_across_checkpoint;
    Alcotest.test_case "group commit: crash during shared fsync" `Slow
      test_crash_at_group_sync;
  ]
