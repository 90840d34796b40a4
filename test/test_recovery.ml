(* Durability tests (paper §6.4, §6.5): WAL framing, two-step recovery,
   checkpoints, torn log tails, and hot backup / restore. *)

open Sedna_core

let reopen dir = Database.open_existing dir

let test_wal_roundtrip () =
  Test_util.with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "wal.sdb" in
  let w = Wal.create path in
  let img = Bytes.init Page.page_size (fun i -> Char.chr (i mod 256)) in
  Wal.append w (Wal.Begin 7);
  Wal.append w (Wal.Image (7, 42, img));
  Wal.append w (Wal.Logical (7, "update"));
  Wal.append w (Wal.Commit (7, Some "catalogblob"));
  Wal.append w Wal.Checkpoint;
  Wal.append w (Wal.Abort 8);
  Wal.sync w;
  Wal.close w;
  match Wal.read_all path with
  | [ Wal.Begin 7; Wal.Image (7, 42, img'); Wal.Logical (7, "update");
      Wal.Commit (7, Some "catalogblob"); Wal.Checkpoint; Wal.Abort 8 ] ->
    Alcotest.(check bytes) "image intact" img img'
  | records -> Alcotest.failf "unexpected records (%d)" (List.length records)

let test_torn_tail_ignored () =
  Test_util.with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "wal.sdb" in
  let w = Wal.create path in
  Wal.append w (Wal.Begin 1);
  Wal.append w (Wal.Commit (1, None));
  Wal.sync w;
  Wal.close w;
  (* corrupt: append half a record *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\255\255\255";
  close_out oc;
  Alcotest.(check int) "clean prefix survives" 2 (List.length (Wal.read_all path))

let test_crash_recovers_committed () =
  Test_util.with_dir @@ fun dir ->
  let db = Database.create dir in
  ignore (Test_util.load db "d" "<a><v>1</v></a>");
  ignore (Test_util.exec db {|UPDATE replace $v in doc("d")/a/v with <v>2</v>|});
  Database.crash db;
  let db2 = reopen dir in
  Alcotest.(check string) "recovered" "2"
    (Test_util.exec db2 {|string(doc("d")/a/v)|});
  Database.with_txn db2 (fun _ st ->
      Test_util.check_invariants st "d");
  Database.close db2

(* Logs written before the engine stopped logging [Logical] audit
   records still carry tag-6 frames.  One spliced into a committed
   transaction, just before its Commit frame, must not end the readable
   log there: the commit behind it still replays. *)
let test_recovers_past_logical_frame () =
  Test_util.with_dir @@ fun dir ->
  let db = Database.create dir in
  ignore (Test_util.load db "d" "<a><v>1</v></a>");
  ignore (Test_util.exec db {|UPDATE replace $v in doc("d")/a/v with <v>2</v>|});
  Database.crash db;
  let path = Filename.concat dir "wal.sdb" in
  let log =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (* the last frame is the update's Commit; splice in front of it *)
  let frames =
    let batch, _, _ = Wal.stream_from path ~pos:0 ~max_bytes:max_int in
    Wal.records_of_frames batch
  in
  let commit_start =
    match List.rev frames with
    | (Wal.Commit _, _) :: (_, prev_end) :: _ -> prev_end
    | _ -> Alcotest.fail "log does not end in a commit"
  in
  let op = "update" in
  let n = 4 + String.length op in
  let frame = Bytes.create (9 + n) in
  Bytes.set_int32_le frame 0 (Int32.of_int n);
  Bytes.set frame 4 '\006';
  Bytes.set_int32_le frame 5 99l;
  Bytes.blit_string op 0 frame 9 (String.length op);
  (* FNV-1a over the payload, folded to 31 bits *)
  let h = ref 0x811c9dc5 in
  Bytes.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF)
    (Bytes.sub frame 5 n);
  Bytes.set_int32_le frame (5 + n) (Int32.of_int (!h land 0x7FFFFFFF));
  let oc = open_out_bin path in
  output_string oc (String.sub log 0 commit_start);
  output_bytes oc frame;
  output_string oc
    (String.sub log commit_start (String.length log - commit_start));
  close_out oc;
  Alcotest.(check bool) "tag-6 frame decodes" true
    (List.mem (Wal.Logical (99, "update")) (Wal.read_all path));
  let db2 = reopen dir in
  Alcotest.(check string) "commit behind it recovered" "2"
    (Test_util.exec db2 {|string(doc("d")/a/v)|});
  Database.close db2

let test_crash_loses_uncommitted () =
  Test_util.with_dir @@ fun dir ->
  let db = Database.create dir in
  ignore (Test_util.load db "d" "<a><v>1</v></a>");
  let s = Sedna_db.Session.connect db in
  Sedna_db.Session.begin_txn s;
  ignore (Sedna_db.Session.execute s {|UPDATE replace $v in doc("d")/a/v with <v>999</v>|});
  (* crash without commit *)
  Database.crash db;
  let db2 = reopen dir in
  Alcotest.(check string) "uncommitted lost" "1"
    (Test_util.exec db2 {|string(doc("d")/a/v)|});
  Database.close db2

let test_recovery_restores_schema () =
  Test_util.with_dir @@ fun dir ->
  let db = Database.create dir in
  ignore (Test_util.load db "d" "<a/>");
  (* schema evolution after the checkpoint: a new element kind *)
  ignore (Test_util.exec db {|UPDATE insert <fresh kind="yes">v</fresh> into doc("d")/a|});
  Database.crash db;
  let db2 = reopen dir in
  Alcotest.(check string) "schema recovered" "v"
    (Test_util.exec db2 {|string(doc("d")/a/fresh)|});
  Alcotest.(check string) "attribute too" "yes"
    (Test_util.exec db2 {|string(doc("d")/a/fresh/@kind)|});
  Database.close db2

let test_checkpoint_truncates_wal () =
  Test_util.with_dir @@ fun dir ->
  let db = Database.create dir in
  ignore (Test_util.load db "d" "<a><v>x</v></a>");
  Database.checkpoint db;
  let wal_size = (Unix.stat (Filename.concat dir "wal.sdb")).Unix.st_size in
  Alcotest.(check bool) "wal truncated" true (wal_size < 64);
  (* a crash right after a checkpoint still recovers *)
  Database.crash db;
  let db2 = reopen dir in
  Alcotest.(check string) "state survives checkpoint" "x"
    (Test_util.exec db2 {|string(doc("d")/a/v)|});
  Database.close db2

let test_multiple_crash_cycles () =
  Test_util.with_dir @@ fun dir ->
  let db = ref (Database.create dir) in
  ignore (Test_util.load !db "d" "<log/>");
  for i = 1 to 5 do
    ignore
      (Test_util.exec !db
         (Printf.sprintf {|UPDATE insert <entry n="%d"/> into doc("d")/log|} i));
    Database.crash !db;
    db := reopen dir
  done;
  Alcotest.(check string) "all five entries" "5"
    (Test_util.exec !db {|count(doc("d")/log/entry)|});
  Database.close !db

let test_backup_full_and_incremental () =
  Test_util.with_dir @@ fun dir ->
  let bdir = dir ^ "-bak" in
  let r1 = dir ^ "-restore1" in
  let r2 = dir ^ "-restore2" in
  let db = Database.create dir in
  ignore (Test_util.load db "d" "<a><v>base</v></a>");
  ignore (Backup.full db ~dest:bdir);
  ignore (Test_util.exec db {|UPDATE replace $v in doc("d")/a/v with <v>after1</v>|});
  Backup.incremental db ~dest:bdir ~seq:1;
  ignore (Test_util.exec db {|UPDATE replace $v in doc("d")/a/v with <v>after2</v>|});
  Backup.incremental db ~dest:bdir ~seq:2;
  (* point-in-time: restore up to increment 1 *)
  let dbr1 = Backup.restore ~src:bdir ~dest:r1 ~up_to:1 () in
  Alcotest.(check string) "restore at increment 1" "after1"
    (Test_util.exec dbr1 {|string(doc("d")/a/v)|});
  Database.close dbr1;
  (* full restore: all increments *)
  let dbr2 = Backup.restore ~src:bdir ~dest:r2 () in
  Alcotest.(check string) "restore at tip" "after2"
    (Test_util.exec dbr2 {|string(doc("d")/a/v)|});
  Database.close dbr2;
  Database.close db

(* point-in-time depth: base + N increments, every prefix restorable,
   each restore an exact snapshot of its moment with clean structure *)
let test_backup_pit_every_increment () =
  Test_util.with_dir @@ fun dir ->
  let bdir = dir ^ "-bak" in
  let increments = 4 in
  let db = Database.create dir in
  ignore (Test_util.load db "d" "<a><v>s0</v></a>");
  ignore (Backup.full db ~dest:bdir);
  for i = 1 to increments do
    ignore
      (Test_util.exec db
         (Printf.sprintf
            {|UPDATE replace $v in doc("d")/a/v with <v>s%d</v>|} i));
    Backup.incremental db ~dest:bdir ~seq:i
  done;
  (* one more update the backup chain must NOT contain *)
  ignore (Test_util.exec db {|UPDATE replace $v in doc("d")/a/v with <v>tip</v>|});
  for i = 0 to increments do
    let rdir = Printf.sprintf "%s-pit%d" dir i in
    let dbr = Backup.restore ~src:bdir ~dest:rdir ~up_to:i () in
    Alcotest.(check string)
      (Printf.sprintf "state at increment %d" i)
      (Printf.sprintf "s%d" i)
      (Test_util.exec dbr {|string(doc("d")/a/v)|});
    (match Integrity.check_document (Database.store dbr) "d" with
     | [] -> ()
     | es ->
       Alcotest.failf "restore %d integrity: %s" i (String.concat "; " es));
    Database.close dbr
  done;
  Database.close db

(* a checkpoint truncates the WAL the increments are cut from: the next
   incremental must refuse rather than silently produce a chain missing
   committed work (the WAL epoch stamp enforces this) *)
let test_backup_incremental_refused_after_checkpoint () =
  Test_util.with_dir @@ fun dir ->
  let bdir = dir ^ "-bak" in
  let db = Database.create dir in
  ignore (Test_util.load db "d" "<a><v>base</v></a>");
  ignore (Backup.full db ~dest:bdir);
  ignore (Test_util.exec db {|UPDATE replace $v in doc("d")/a/v with <v>x</v>|});
  Backup.incremental db ~dest:bdir ~seq:1;
  Database.checkpoint db;
  ignore (Test_util.exec db {|UPDATE replace $v in doc("d")/a/v with <v>y</v>|});
  (match Backup.incremental db ~dest:bdir ~seq:2 with
   | () -> Alcotest.fail "incremental after checkpoint should be refused"
   | exception Sedna_util.Error.Sedna_error (code, _) ->
     Alcotest.(check string)
       "refused with recovery failure" "SE-RECOVERY"
       (Sedna_util.Error.code_name code));
  (* the pre-checkpoint chain still restores cleanly *)
  let dbr = Backup.restore ~src:bdir ~dest:(dir ^ "-pit") () in
  Alcotest.(check string) "pre-checkpoint chain intact" "x"
    (Test_util.exec dbr {|string(doc("d")/a/v)|});
  Database.close dbr;
  (* a fresh full backup restarts the chain under the new epoch *)
  let bdir2 = dir ^ "-bak2" in
  ignore (Backup.full db ~dest:bdir2);
  ignore (Test_util.exec db {|UPDATE replace $v in doc("d")/a/v with <v>z</v>|});
  Backup.incremental db ~dest:bdir2 ~seq:1;
  let dbr2 = Backup.restore ~src:bdir2 ~dest:(dir ^ "-pit2") () in
  Alcotest.(check string) "new chain works" "z"
    (Test_util.exec dbr2 {|string(doc("d")/a/v)|});
  Database.close dbr2;
  Database.close db

let test_close_reopen () =
  Test_util.with_dir @@ fun dir ->
  let db = Database.create dir in
  let events = Sedna_workloads.Generators.library ~books:60 () in
  ignore (Test_util.load_events db "lib" events);
  let before = Test_util.exec db {|count(doc("lib")//author)|} in
  Database.close db;
  let db2 = reopen dir in
  Alcotest.(check string) "author count stable" before
    (Test_util.exec db2 {|count(doc("lib")//author)|});
  Database.with_txn db2 (fun _ st ->
      Test_util.check_invariants st "lib");
  Database.close db2

let suite =
  [
    Alcotest.test_case "wal roundtrip" `Quick test_wal_roundtrip;
    Alcotest.test_case "torn tail ignored" `Quick test_torn_tail_ignored;
    Alcotest.test_case "crash recovers committed" `Quick test_crash_recovers_committed;
    Alcotest.test_case "crash loses uncommitted" `Quick test_crash_loses_uncommitted;
    Alcotest.test_case "recovers past a tag-6 frame" `Quick
      test_recovers_past_logical_frame;
    Alcotest.test_case "recovery restores schema" `Quick test_recovery_restores_schema;
    Alcotest.test_case "checkpoint truncates wal" `Quick test_checkpoint_truncates_wal;
    Alcotest.test_case "multiple crash cycles" `Quick test_multiple_crash_cycles;
    Alcotest.test_case "backup full+incremental" `Quick test_backup_full_and_incremental;
    Alcotest.test_case "backup PIT at every increment" `Quick
      test_backup_pit_every_increment;
    Alcotest.test_case "backup increment refused after checkpoint" `Quick
      test_backup_incremental_refused_after_checkpoint;
    Alcotest.test_case "close and reopen" `Quick test_close_reopen;
  ]
