(* WAL-shipping replication: streaming cursor, hot standby, promotion,
   client failover, and the repl.* fault sites. *)

open Sedna_util
open Sedna_core
open Sedna_db
module Sender = Sedna_replication.Repl_sender
module Recv = Sedna_replication.Repl_receiver
module Server = Sedna_server.Server
module Client = Sedna_server.Server_client

let tip db = (Wal.epoch (Database.wal db), Wal.size (Database.wal db))

let insert db text =
  ignore
    (Test_util.exec db
       (Printf.sprintf {|UPDATE insert <e>%s</e> into doc("d")/r|} text))

let count db = Test_util.exec db {|count(doc("d")/r/e)|}

(* a primary with doc "d" = <r/>, its sender, and a standby receiver
   pulling from it; the callback gets all the moving parts *)
let with_pair ?(port = 0) ?max_batch f =
  Fault.disarm_all ();
  let pdir = Test_util.fresh_dir () in
  let sdir = pdir ^ "-standby" in
  Sysutil.rm_rf sdir;
  let gov_p = Governor.create () in
  let gov_s = Governor.create () in
  let db = Governor.create_database gov_p ~name:"db" ~dir:pdir in
  ignore (Test_util.load db "d" "<r/>");
  let sender = Sender.start ~port ~gov:gov_p db in
  let recv =
    Recv.start ~poll_s:0.005 ~heartbeat_timeout_s:1.0 ?max_batch ~gov:gov_s
      ~name:"db" ~dir:sdir ~host:"127.0.0.1" ~port:(Sender.port sender) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm_all ();
      Recv.stop recv;
      Sender.stop sender;
      (try Governor.shutdown gov_s with _ -> ());
      try Governor.shutdown gov_p with _ -> ())
    (fun () -> f ~gov_p ~gov_s ~db ~sender ~recv)

let caught_up ?(timeout_s = 10.) db recv =
  let epoch, pos = tip db in
  Alcotest.(check bool) "standby caught up" true
    (Recv.wait_caught_up ~timeout_s recv ~epoch ~pos)

let standby_db recv =
  match Recv.database recv with
  | Some db -> db
  | None -> Alcotest.fail "standby has no database"

(* ---- WAL streaming cursor ------------------------------------------- *)

let test_wal_epoch_bumps () =
  let dir = Test_util.fresh_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "wal.sdb" in
  let w = Wal.create path in
  let e0 = Wal.epoch w in
  Alcotest.(check bool) "epoch positive" true (e0 > 0);
  Alcotest.(check int) "sidecar agrees" e0 (Wal.read_epoch path);
  Wal.append w (Wal.Begin 1);
  Wal.sync w;
  Wal.reset w;
  Alcotest.(check int) "reset bumps" (e0 + 1) (Wal.epoch w);
  Alcotest.(check int) "sidecar follows" (e0 + 1) (Wal.read_epoch path);
  Wal.close w;
  let w2 = Wal.open_existing path in
  Alcotest.(check int) "reopen keeps epoch" (e0 + 1) (Wal.epoch w2);
  Wal.close w2

let test_wal_stream_cursor () =
  let dir = Test_util.fresh_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "wal.sdb" in
  let w = Wal.create path in
  Wal.append w (Wal.Begin 7);
  Wal.append w (Wal.Image (7, 3, Bytes.make 64 'p'));
  Wal.append w (Wal.Commit (7, None));
  Wal.sync w;
  (* stream everything in tiny batches, resuming at returned positions *)
  let rec drain pos acc =
    let frames, n, pos' = Wal.stream_from path ~pos ~max_bytes:1 in
    if n = 0 then (acc, pos)
    else begin
      Alcotest.(check int) "tiny budget ships one frame" 1 n;
      drain pos' (acc @ Wal.records_of_frames frames)
    end
  in
  let records, end_pos = drain 0 [] in
  Alcotest.(check int) "three records" 3 (List.length records);
  Alcotest.(check int) "cursor at end" (Wal.size w) end_pos;
  (* a mid-stream boundary ships only the tail; past the end, nothing *)
  let first, _, first_end = Wal.stream_from path ~pos:0 ~max_bytes:1 in
  Alcotest.(check int) "one frame" 1 (List.length (Wal.records_of_frames first));
  let tail, n, tail_end = Wal.stream_from path ~pos:first_end ~max_bytes:max_int in
  Alcotest.(check int) "tail from second frame" 2 n;
  Alcotest.(check int) "tail decodes" 2 (List.length (Wal.records_of_frames tail));
  Alcotest.(check int) "tail ends at the log's end" (Wal.size w) tail_end;
  Alcotest.(check bool) "nothing past the end" true
    (Wal.stream_from path ~pos:tail_end ~max_bytes:max_int = ("", 0, tail_end));
  (* [upto] cuts the read short: a frame ending past it is not shipped *)
  let _, n, upto_end =
    Wal.stream_from ~upto:(tail_end - 1) path ~pos:first_end ~max_bytes:max_int
  in
  Alcotest.(check int) "only the frame before upto" 1 n;
  Alcotest.(check bool) "ends before upto" true (upto_end < tail_end);
  (* appending the raw frames to a second log reproduces the records *)
  let path2 = Filename.concat dir "wal2.sdb" in
  let w2 = Wal.create path2 in
  let frames, _, _ = Wal.stream_from path ~pos:0 ~max_bytes:max_int in
  Wal.append_raw w2 frames;
  Wal.sync w2;
  Alcotest.(check int) "replica log has the records" 3
    (List.length (Wal.read_all path2));
  Wal.close w;
  Wal.close w2

(* ---- shipping and continuous apply ----------------------------------- *)

let test_basic_ship () =
  with_pair (fun ~gov_p:_ ~gov_s:_ ~db ~sender:_ ~recv ->
      for i = 1 to 5 do
        insert db (string_of_int i)
      done;
      caught_up db recv;
      Alcotest.(check string) "standby sees all inserts" "5"
        (Test_util.exec (standby_db recv) {|count(doc("d")/r/e)|});
      Alcotest.(check string) "primary agrees" "5" (count db))

let test_cursor_resume_across_sender_restart () =
  (* pin the replication port so a restarted sender is reachable at the
     address the receiver keeps dialing *)
  let port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let p =
      match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0
    in
    Unix.close fd;
    p
  in
  with_pair ~port (fun ~gov_p ~gov_s:_ ~db ~sender ~recv ->
      insert db "before";
      caught_up db recv;
      let reseeds = Counters.get Counters.repl_reseeds in
      Sender.stop sender;
      insert db "while-down";
      let sender2 = Sender.start ~port ~gov:gov_p db in
      Fun.protect
        ~finally:(fun () -> Sender.stop sender2)
        (fun () ->
          insert db "after";
          caught_up db recv;
          Alcotest.(check string) "nothing lost across the outage" "3"
            (Test_util.exec (standby_db recv) {|count(doc("d")/r/e)|});
          (* same epoch, valid position: resume must NOT have re-seeded *)
          Alcotest.(check int) "resumed from cursor, no re-seed" reseeds
            (Counters.get Counters.repl_reseeds)))

let test_epoch_mismatch_forces_reseed () =
  with_pair (fun ~gov_p:_ ~gov_s:_ ~db ~sender:_ ~recv ->
      insert db "one";
      caught_up db recv;
      let reseeds = Counters.get Counters.repl_reseeds in
      (* checkpoint truncates the primary WAL and bumps its epoch: the
         standby's position is now meaningless *)
      Database.checkpoint db;
      insert db "two";
      caught_up db recv;
      Alcotest.(check bool) "re-seeded after epoch bump" true
        (Counters.get Counters.repl_reseeds > reseeds);
      Alcotest.(check string) "state correct after re-seed" "2"
        (Test_util.exec (standby_db recv) {|count(doc("d")/r/e)|}))

let test_standby_rejects_writes () =
  with_pair (fun ~gov_p:_ ~gov_s:_ ~db ~sender:_ ~recv ->
      insert db "x";
      caught_up db recv;
      let sdb = standby_db recv in
      (* read-only transactions are welcome *)
      let s = Session.connect sdb in
      Session.begin_txn ~read_only:true s;
      Alcotest.(check string) "read-only txn reads" "1"
        (Session.execute_string s {|count(doc("d")/r/e)|});
      Session.commit s;
      (* writes are refused with SE-READ-ONLY *)
      (match
         Session.execute (Session.connect sdb)
           {|UPDATE insert <e>nope</e> into doc("d")/r|}
       with
       | _ -> Alcotest.fail "standby accepted a write"
       | exception Error.Sedna_error (code, _) ->
         Alcotest.(check string) "SE-READ-ONLY" "SE-READ-ONLY"
           (Error.code_name code)))

let test_snapshot_consistent_during_apply () =
  with_pair (fun ~gov_p:_ ~gov_s:_ ~db ~sender:_ ~recv ->
      insert db "a";
      caught_up db recv;
      let sdb = standby_db recv in
      let s = Session.connect sdb in
      Session.begin_txn ~read_only:true s;
      Alcotest.(check string) "snapshot sees 1" "1"
        (Session.execute_string s {|count(doc("d")/r/e)|});
      (* new transactions arrive and are applied under the reader *)
      for i = 2 to 6 do
        insert db (string_of_int i)
      done;
      caught_up db recv;
      Alcotest.(check string) "open snapshot unmoved" "1"
        (Session.execute_string s {|count(doc("d")/r/e)|});
      Session.commit s;
      let s2 = Session.connect sdb in
      Alcotest.(check string) "new session sees the applied txns" "6"
        (Session.execute_string s2 {|count(doc("d")/r/e)|}))

(* a schema path added by an applied transaction reaches standby
   readers through a newly published catalog, decoded apart from the
   live one that the next apply replaces *)
let test_standby_publishes_applied_catalog () =
  with_pair (fun ~gov_p:_ ~gov_s ~db ~sender:_ ~recv ->
      insert db "a";
      caught_up db recv;
      let sdb = standby_db recv in
      let s = Session.connect sdb in
      Alcotest.(check string) "no path yet" "0"
        (Session.execute_string s {|count(doc("d")/r/fresh)|});
      ignore (Test_util.exec db {|UPDATE insert <fresh/> into doc("d")/r|});
      caught_up db recv;
      Alcotest.(check string) "standby reader sees the path" "1"
        (Session.execute_string s {|count(doc("d")/r/fresh)|});
      Governor.with_engine gov_s (fun () ->
          let r = Database.begin_txn ~read_only:true sdb in
          let cat = Option.get r.Txn.reader_catalog in
          Database.commit sdb r;
          Alcotest.(check bool) "path in the shared catalog" true
            (Test_util.schema_has cat ~doc:"d" [ "r"; "fresh" ]);
          Alcotest.(check bool) "not the live catalog" false
            (cat == Database.catalog sdb)))

(* ---- promotion -------------------------------------------------------- *)

let test_promotion_idempotent () =
  with_pair (fun ~gov_p:_ ~gov_s:_ ~db ~sender:_ ~recv ->
      insert db "x";
      caught_up db recv;
      let first = Recv.promote recv in
      Alcotest.(check bool) "reports promotion" true
        (String.length first > 0);
      Alcotest.(check string) "second promote is a no-op" "already promoted"
        (Recv.promote recv);
      (* the promoted database accepts writes *)
      let sdb = standby_db recv in
      ignore
        (Session.execute (Session.connect sdb)
           {|UPDATE insert <e>post-promote</e> into doc("d")/r|});
      Alcotest.(check string) "write applied" "2"
        (Test_util.exec sdb {|count(doc("d")/r/e)|});
      (match Integrity.check_document (Database.store sdb) "d" with
       | [] -> ()
       | es -> Alcotest.fail (String.concat "; " es)))

(* A standby seeded while a write transaction is open: its Begin lies
   before the seed's resume position, its images and Commit after it.
   The standby must still receive those images — adopting the commit's
   catalog without them leaves it pointing at pages it never got. *)
let test_seed_mid_transaction () =
  Fault.disarm_all ();
  let pdir = Test_util.fresh_dir () in
  let sdir = pdir ^ "-standby" in
  Sysutil.rm_rf sdir;
  let gov_p = Governor.create () and gov_s = Governor.create () in
  let db = Governor.create_database gov_p ~name:"db" ~dir:pdir in
  ignore (Test_util.load db "d" "<r/>");
  insert db "before";
  let sender = Sender.start ~gov:gov_p db in
  let s = Session.connect db in
  Session.begin_txn s;
  let recv =
    Recv.start ~poll_s:0.005 ~heartbeat_timeout_s:1.0 ~gov:gov_s ~name:"db"
      ~dir:sdir ~host:"127.0.0.1" ~port:(Sender.port sender) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Recv.stop recv;
      Sender.stop sender;
      (try Governor.shutdown gov_s with _ -> ());
      try Governor.shutdown gov_p with _ -> ())
    (fun () ->
      (* the seed lands while the transaction is still open *)
      caught_up db recv;
      ignore (Session.execute s {|UPDATE insert <e>open</e> into doc("d")/r|});
      Session.commit s;
      caught_up db recv;
      ignore (Recv.promote recv);
      let sdb = standby_db recv in
      Alcotest.(check string) "both commits, once each" "2" (count sdb);
      match Integrity.check_document (Database.store sdb) "d" with
      | [] -> ()
      | es -> Alcotest.fail (String.concat "; " es))

(* ---- heartbeat timeout ------------------------------------------------ *)

let test_heartbeat_timeout_detection () =
  (* a listener that accepts and then stays silent: the receiver must
     detect the dead air and keep cycling instead of hanging *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 4;
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let accepted = ref [] in
  let stop = ref false in
  let th =
    Thread.create
      (fun () ->
        while not !stop do
          match Unix.accept fd with
          | c, _ -> accepted := c :: !accepted
          | exception _ -> ()
        done)
      ()
  in
  let gov = Governor.create () in
  let recv =
    Recv.start ~heartbeat_timeout_s:0.2 ~gov ~name:"db"
      ~dir:(Test_util.fresh_dir () ^ "-hb") ~host:"127.0.0.1" ~port ()
  in
  (* give it time for several connect/timeout cycles *)
  Unix.sleepf 1.0;
  Alcotest.(check bool) "multiple timed-out attempts" true
    (List.length !accepted >= 2);
  Alcotest.(check bool) "never seeded off the silent peer" true
    (Recv.database recv = None);
  Recv.stop recv;
  stop := true;
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
  (try
     let poke = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     (try Unix.connect poke (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
      with _ -> ());
     Unix.close poke
   with _ -> ());
  Thread.join th;
  (try Unix.close fd with _ -> ());
  List.iter (fun c -> try Unix.close c with _ -> ()) !accepted

(* ---- fault injection --------------------------------------------------- *)

let test_fault_sites_cost_lag_not_loss () =
  List.iter
    (fun spec ->
      (* one frame per batch, so the armed site gets many distinct hits *)
      with_pair ~max_batch:1 (fun ~gov_p:_ ~gov_s:_ ~db ~sender:_ ~recv ->
          insert db "pre";
          caught_up db recv;
          let injected = Counters.get Counters.fault_injected in
          Fault.arm_spec spec;
          for i = 1 to 6 do
            insert db (string_of_int i)
          done;
          caught_up ~timeout_s:15. db recv;
          Fault.disarm_all ();
          Alcotest.(check bool) (spec ^ " fired") true
            (Counters.get Counters.fault_injected > injected);
          Alcotest.(check string) (spec ^ ": no loss") "7"
            (Test_util.exec (standby_db recv) {|count(doc("d")/r/e)|})))
    [ "repl.send:fail@2"; "repl.apply:crash@2" ]

let test_heartbeat_fault_fires () =
  with_pair (fun ~gov_p:_ ~gov_s:_ ~db ~sender:_ ~recv ->
      insert db "x";
      caught_up db recv;
      let injected = Counters.get Counters.fault_injected in
      Fault.arm_spec "repl.heartbeat:fail@1";
      (* caught up: the next pulls are heartbeats; the armed fault kills
         the connection, the standby reconnects and stays available *)
      let deadline = Unix.gettimeofday () +. 10. in
      while
        Counters.get Counters.fault_injected <= injected
        && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.01
      done;
      Fault.disarm_all ();
      Alcotest.(check bool) "heartbeat fault fired" true
        (Counters.get Counters.fault_injected > injected);
      insert db "y";
      caught_up db recv;
      Alcotest.(check string) "stream recovered after the drop" "2"
        (Test_util.exec (standby_db recv) {|count(doc("d")/r/e)|}))

(* ---- client failover over real servers -------------------------------- *)

let test_client_failover () =
  Fault.disarm_all ();
  let pdir = Test_util.fresh_dir () in
  let sdir = pdir ^ "-standby" in
  let gov_p = Governor.create () in
  let gov_s = Governor.create () in
  let db = Governor.create_database gov_p ~name:"db" ~dir:pdir in
  ignore (Test_util.load db "d" "<r/>");
  let srv_p = Server.start gov_p in
  let sender = Sender.start ~gov:gov_p db in
  let recv =
    Recv.start ~poll_s:0.005 ~gov:gov_s ~name:"db" ~dir:sdir ~host:"127.0.0.1"
      ~port:(Sender.port sender) ()
  in
  let srv_s = Server.start ~on_promote:(fun () -> Recv.promote recv) gov_s in
  let endpoints =
    [ ("127.0.0.1", Server.port srv_p); ("127.0.0.1", Server.port srv_s) ]
  in
  let c = Sedna_replication.Repl_client.connect ~retries:3 endpoints in
  ignore (Client.open_db c "db");
  ignore (Client.execute c {|UPDATE insert <e>one</e> into doc("d")/r|});
  caught_up db recv;
  (* a second client sits mid-transaction when the primary dies *)
  let writer = Sedna_replication.Repl_client.connect ~retries:3 endpoints in
  ignore (Client.open_db writer "db");
  ignore (Client.execute writer "BEGIN");
  ignore (Client.execute writer {|UPDATE insert <e>doomed</e> into doc("d")/r|});
  Server.kill srv_p;
  Sender.stop sender;
  Database.crash db;
  (* the idle client's next read silently fails over to the standby *)
  Alcotest.(check string) "read failed over" "1"
    (Client.execute_string c {|count(doc("d")/r/e)|});
  Alcotest.(check int) "now talking to the standby" (Server.port srv_s)
    (snd (Client.endpoint c));
  (* the mid-transaction writer is told the truth *)
  (match Client.execute writer "COMMIT" with
   | _ -> Alcotest.fail "in-flight write survived a dead primary"
   | exception Client.Remote_error (code, _) ->
     Alcotest.(check string) "SE-FAILOVER" "SE-FAILOVER" code);
  (* promotion over the wire, then writes succeed on the survivor *)
  let msg =
    Sedna_replication.Repl_client.promote ~host:"127.0.0.1"
      ~port:(Server.port srv_s) ~database:"db"
  in
  Alcotest.(check bool) "promote reports epoch" true
    (String.length msg > 0);
  ignore (Client.execute writer "BEGIN");
  ignore (Client.execute writer {|UPDATE insert <e>retry</e> into doc("d")/r|});
  ignore (Client.execute writer "COMMIT");
  Alcotest.(check string) "write landed on the new primary" "2"
    (Client.execute_string c {|count(doc("d")/r/e)|});
  Client.close c;
  Client.close writer;
  Server.stop srv_s;
  Recv.stop recv;
  (try Governor.shutdown gov_p with _ -> ())

(* A re-seed abandons the standby database its sessions were bound to:
   a client of the standby server reconnects, reads the re-seeded
   store, and writes once the standby is promoted *)
let test_client_survives_reseed () =
  with_pair (fun ~gov_p:_ ~gov_s ~db ~sender:_ ~recv ->
      insert db "one";
      caught_up db recv;
      let srv = Server.start ~on_promote:(fun () -> Recv.promote recv) gov_s in
      Fun.protect
        ~finally:(fun () -> Server.stop ~shutdown_governor:false srv)
        (fun () ->
          let c = Client.connect ~port:(Server.port srv) () in
          ignore (Client.open_db c "db");
          let count () = Client.execute_string c {|count(doc("d")/r/e)|} in
          Alcotest.(check string) "standby read" "1" (count ());
          let reseeds = Counters.get Counters.repl_reseeds in
          Database.checkpoint db;
          insert db "two";
          caught_up db recv;
          Alcotest.(check bool) "re-seeded" true
            (Counters.get Counters.repl_reseeds > reseeds);
          Alcotest.(check string) "read from the re-seeded store" "2" (count ());
          ignore (Recv.promote recv);
          ignore (Client.execute c {|UPDATE insert <e>three</e> into doc("d")/r|});
          Alcotest.(check string) "write after promotion" "3" (count ());
          Client.close c))

let suite =
  [
    Alcotest.test_case "wal epoch bumps on reset" `Quick test_wal_epoch_bumps;
    Alcotest.test_case "wal streaming cursor" `Quick test_wal_stream_cursor;
    Alcotest.test_case "ship and apply" `Quick test_basic_ship;
    Alcotest.test_case "cursor resumes across sender restart" `Quick
      test_cursor_resume_across_sender_restart;
    Alcotest.test_case "epoch mismatch forces re-seed" `Quick
      test_epoch_mismatch_forces_reseed;
    Alcotest.test_case "standby rejects writes" `Quick
      test_standby_rejects_writes;
    Alcotest.test_case "snapshot consistent during apply" `Quick
      test_snapshot_consistent_during_apply;
    Alcotest.test_case "standby publishes applied catalog" `Quick
      test_standby_publishes_applied_catalog;
    Alcotest.test_case "promotion is idempotent" `Quick
      test_promotion_idempotent;
    Alcotest.test_case "seed during an open transaction" `Quick
      test_seed_mid_transaction;
    Alcotest.test_case "heartbeat timeout detection" `Quick
      test_heartbeat_timeout_detection;
    Alcotest.test_case "repl faults cost lag, not loss" `Quick
      test_fault_sites_cost_lag_not_loss;
    Alcotest.test_case "heartbeat fault fires and recovers" `Quick
      test_heartbeat_fault_fires;
    Alcotest.test_case "client failover + promote over the wire" `Quick
      test_client_failover;
    Alcotest.test_case "standby client survives a re-seed" `Quick
      test_client_survives_reseed;
  ]
