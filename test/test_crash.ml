(* Crash-safety tests: fault-injection plumbing, page checksums, WAL
   torn-tail truncation, and the systematic crash-recovery matrix. *)

open Sedna_util
open Sedna_core
module Drill = Sedna_replication.Drill

(* Every storage layer registers its sites at module init, so the
   harness (and the CLI's \faults) can enumerate them. *)
let test_sites_registered () =
  let sites = Fault.sites () in
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " registered") true (List.mem s sites))
    [
      "wal.append"; "wal.sync"; "wal.reset"; "file_store.write";
      "file_store.sync"; "buffer.flush"; "buffer.evict"; "backup.copy";
    ]

let test_policy_parsing () =
  let p = Fault.parse_policy "crash@2" in
  Alcotest.(check string) "crash@2" "crash@2" (Fault.policy_to_string p);
  let site, p = Fault.parse_spec "wal.append:torn@3+" in
  Alcotest.(check string) "site" "wal.append" site;
  Alcotest.(check string) "torn@3+" "torn@3+" (Fault.policy_to_string p);
  (match Fault.parse_spec "wal.sync:fail%0.25/7" with
   | _, { Fault.action = Fault.Fail; trigger = Fault.Prob (0.25, 7) } -> ()
   | _ -> Alcotest.fail "probability policy parsed wrong");
  (match Fault.parse_policy "explode@1" with
   | exception _ -> ()
   | _ -> Alcotest.fail "bad action accepted")

(* An armed Nth policy fires exactly once and self-disarms. *)
let test_nth_fires_once () =
  let s = Fault.site "wal.sync" in
  let before = Fault.site_hits s in
  Fault.with_armed "wal.sync" (Fault.parse_policy "fail@2") (fun () ->
      ignore (Fault.hit s);
      (match Fault.hit s with
       | exception Fault.Injected_fault _ -> ()
       | _ -> Alcotest.fail "2nd hit did not fail");
      (* Nth self-disarmed: the third hit proceeds *)
      ignore (Fault.hit s));
  Alcotest.(check int) "hits counted" (before + 3) (Fault.site_hits s)

(* A spec that names no registered site, or an action of the other
   plane, would arm something nothing ever fires: refused, and no
   phantom site is registered on the way. *)
let test_arm_spec_refusals () =
  let sites = Fault.sites () in
  List.iter
    (fun spec ->
      match Fault.arm_spec spec with
      | exception Invalid_argument _ -> ()
      | () ->
        Fault.disarm_all ();
        Alcotest.failf "%s accepted" spec)
    [ "wal.apend:crash@2"; "net.send:crash"; "wal.sync:drop" ];
  Alcotest.(check (list string)) "no phantom site" sites (Fault.sites ());
  Alcotest.(check int) "nothing armed" 0 (Fault.armed_count ())

(* CRASH's set is the storage plane only: 16 engine sites x 4 policies,
   no network site and no site a test registered. *)
let test_drill_specs () =
  let sites =
    [ "backup.copy"; "buffer.evict"; "buffer.flush"; "file_store.sync";
      "file_store.write"; "repl.apply"; "repl.batch_apply"; "repl.heartbeat";
      "repl.send"; "scrub.repair"; "scrub.verify"; "store.enospc";
      "wal.append"; "wal.group_sync"; "wal.reset"; "wal.sync" ]
  in
  Alcotest.(check (list string)) "64 storage specs"
    (List.concat_map
       (fun s -> List.map (fun p -> s ^ ":" ^ p) [ "crash@2"; "torn@2"; "fail@1"; "enospc@1" ])
       sites)
    (Drill.specs ())

(* Regression: a torn frame at the WAL tail must be truncated on open.
   The old open seeked to the end of the file and appended *behind* the
   garbage, so everything written after recovery was unreachable by the
   next recovery — acknowledged commits silently lost. *)
let test_wal_truncates_torn_tail () =
  Test_util.with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "wal.sdb" in
  let w = Wal.create path in
  Wal.append w (Wal.Begin 1);
  Wal.append w (Wal.Commit (1, None));
  Wal.sync w;
  Wal.close w;
  (* a partial frame left by a crash mid-append *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\255\255\255\255 torn tail";
  close_out oc;
  let w = Wal.open_existing path in
  Wal.append w (Wal.Begin 2);
  Wal.append w (Wal.Commit (2, None));
  Wal.sync w;
  Wal.close w;
  let commits =
    List.filter_map
      (function Wal.Commit (t, _) -> Some t | _ -> None)
      (Wal.read_all path)
  in
  Alcotest.(check (list int)) "commits readable after torn tail" [ 1; 2 ]
    commits

(* An Abort record appended after a Commit (the commit's fsync failed
   and the engine rolled back) supersedes it: recovery must not replay
   that transaction. *)
let test_abort_supersedes_commit () =
  Test_util.with_dir @@ fun dir ->
  let db = Database.create dir in
  ignore (Test_util.load db "d" "<a><v>keep</v></a>");
  Fault.with_armed "wal.sync" (Fault.parse_policy "fail@1") (fun () ->
      match
        Test_util.exec db {|UPDATE replace $v in doc("d")/a/v with <v>gone</v>|}
      with
      | _ -> Alcotest.fail "commit succeeded under failing fsync"
      | exception Fault.Injected_fault _ -> ());
  (* the rolled-back update is invisible live... *)
  Alcotest.(check string) "rolled back" "keep"
    (Test_util.exec db {|string(doc("d")/a/v)|});
  (* ...and must stay invisible across a crash + recovery, even though
     its Commit record sits in the log *)
  Database.crash db;
  let db = Database.open_existing dir in
  Alcotest.(check string) "not resurrected by recovery" "keep"
    (Test_util.exec db {|string(doc("d")/a/v)|});
  Database.close db

(* A flipped byte on disk is detected by the page checksum and surfaces
   as Corrupt_page instead of being served as data. *)
let test_checksum_detects_flip () =
  Test_util.with_dir @@ fun dir ->
  let db = Database.create dir in
  ignore (Test_util.load db "d" "<a><v>payload</v></a>");
  Database.close db;
  (* flip one byte in every data page (the master page 0 excluded), so
     whichever page the query reads first is corrupt *)
  let path = Filename.concat dir "data.sdb" in
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  for p = 1 to (size / Page.page_size) - 1 do
    let off = (p * Page.page_size) + 137 in
    let b = Bytes.create 1 in
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    ignore (Unix.read fd b 0 1);
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    ignore (Unix.write fd b 0 1)
  done;
  Unix.close fd;
  let db = Database.open_existing dir in
  (match Test_util.exec db {|string(doc("d")/a/v)|} with
   | v -> Alcotest.failf "flipped page served as data: %S" v
   | exception Error.Sedna_error (Error.Corrupt_page, _) -> ());
  Database.crash db

(* Deterministic single-spec runs with sharper assertions than the
   matrix makes. *)
let check_outcome o =
  if not (Drill.ok o) then Alcotest.failf "%s" (Drill.render o)

let drill spec = Test_util.with_dir (fun dir -> Drill.run ~dir spec)

let test_crash_during_commit () =
  let o = drill "wal.append:crash@5" in
  check_outcome o;
  Alcotest.(check bool) "fired" true o.Drill.fired;
  Alcotest.(check bool) "crashed" true (o.Drill.crashes >= 1);
  Alcotest.(check int) "every acked commit recovered" 0 o.Drill.lost;
  Alcotest.(check bool) "acked some work" true (o.Drill.acked > 0)

let test_torn_page_write () =
  let o = drill "file_store.write:torn@2" in
  check_outcome o;
  Alcotest.(check bool) "fired" true o.Drill.fired;
  Alcotest.(check int) "every acked commit recovered" 0 o.Drill.lost

let test_crash_during_checkpoint () =
  let o = drill "wal.reset:crash@1" in
  check_outcome o;
  Alcotest.(check bool) "fired" true o.Drill.fired

let test_crash_during_backup () =
  let o = drill "backup.copy:crash@3" in
  check_outcome o;
  Alcotest.(check bool) "fired" true o.Drill.fired

(* A [repl.*] spec runs the primary/standby pair: the standby's redo
   dies after the batch is durably appended, it recovers in place, and
   the promoted standby still holds every acked entry. *)
let test_repl_spec () =
  List.iter
    (fun spec ->
      let o = drill spec in
      check_outcome o;
      Alcotest.(check bool) "pair topology" true (o.Drill.kind = Drill.Pair);
      Alcotest.(check bool) "fired" true o.Drill.fired;
      Alcotest.(check bool) "re-seeded mid-run" true (o.Drill.reseeds >= 2);
      Alcotest.(check int) "every acked commit on the promoted standby" 0
        o.Drill.lost)
    [ "repl.batch_apply:crash@2"; "repl.batch_apply:fail@1" ]

(* A misspelled spec would test nothing: the drill arms through
   [Fault.arm_spec], which refuses it, and the run fails before any op. *)
let test_unknown_site () =
  let o = drill "wal.apend:crash@2" in
  Alcotest.(check bool) "refused" false (Drill.ok o);
  Alcotest.(check bool) "names the unknown site" true
    (List.exists
       (fun f -> String.starts_with ~prefix:"unknown fault site" f)
       o.Drill.failures);
  Alcotest.(check int) "nothing ran" 0 o.Drill.attempted

(* The full single-node matrix: every registered non-replication site
   crossed with the crash/torn/fail/enospc policies.  Durability and
   integrity must hold for every cell. *)
let test_crash_matrix () =
  let outcomes =
    List.filter_map
      (fun spec ->
        if String.starts_with ~prefix:"repl." spec then None
        else Some (drill spec))
      (Drill.specs ())
  in
  Alcotest.(check bool) "matrix ran" true (List.length outcomes >= 48);
  List.iter check_outcome outcomes;
  Alcotest.(check bool) "policies fired" true
    (List.exists (fun o -> o.Drill.fired) outcomes)

let suite =
  [
    Alcotest.test_case "sites registered" `Quick test_sites_registered;
    Alcotest.test_case "policy parsing" `Quick test_policy_parsing;
    Alcotest.test_case "nth fires once" `Quick test_nth_fires_once;
    Alcotest.test_case "arm_spec refuses phantom sites" `Quick test_arm_spec_refusals;
    Alcotest.test_case "drill specs are the storage matrix" `Quick test_drill_specs;
    Alcotest.test_case "wal truncates torn tail" `Quick
      test_wal_truncates_torn_tail;
    Alcotest.test_case "abort supersedes commit" `Quick
      test_abort_supersedes_commit;
    Alcotest.test_case "checksum detects flip" `Quick
      test_checksum_detects_flip;
    Alcotest.test_case "crash during commit" `Quick test_crash_during_commit;
    Alcotest.test_case "torn page write" `Quick test_torn_page_write;
    Alcotest.test_case "crash during checkpoint" `Quick
      test_crash_during_checkpoint;
    Alcotest.test_case "crash during backup" `Quick test_crash_during_backup;
    Alcotest.test_case "repl spec through the drill" `Quick test_repl_spec;
    Alcotest.test_case "unknown fault site refused" `Quick test_unknown_site;
    Alcotest.test_case "crash matrix" `Slow test_crash_matrix;
  ]
