(* Network chaos layer and split-brain fencing: the network half of
   the Fault spec grammar and its seeded triggers, the unified Retry
   backoff, torn mid-frame connections on both the statement and
   replication ports,
   cluster-epoch fencing at the database and over the wire, the
   health endpoint's fenced/draining refusal, and one full chaos drill
   (partition + mid-run promotion). *)

open Sedna_util
open Sedna_core
module Server = Sedna_server.Server
module Client = Sedna_server.Server_client
module Wire = Sedna_server.Wire
module Mh = Sedna_server.Metrics_http
module Sender = Sedna_replication.Repl_sender
module Recv = Sedna_replication.Repl_receiver
module G = Sedna_db.Governor
module Drill = Sedna_replication.Drill

let clean f =
  Fault.disarm_all ();
  Fun.protect ~finally:(fun () -> Fault.disarm_all ()) f

(* ---- spec grammar ----------------------------------------------------- *)

let test_netfault_grammar () =
  clean (fun () ->
      let p = Fault.parse_policy "drop@3" in
      Alcotest.(check string) "drop@3" "drop@3" (Fault.policy_to_string p);
      let p = Fault.parse_policy "delay=50@2+" in
      (match p.Fault.action with
       | Fault.Delay s ->
         Alcotest.(check bool) "50ms" true (abs_float (s -. 0.05) < 1e-9)
       | _ -> Alcotest.fail "expected Delay");
      let p = Fault.parse_policy "torn%0.1/7" in
      (match p.Fault.trigger with
       | Fault.Prob (q, seed) ->
         Alcotest.(check bool) "prob and seed" true (q = 0.1 && seed = 7)
       | _ -> Alcotest.fail "expected Prob");
      ignore (Fault.parse_policy "dup");
      Alcotest.check_raises "bad action"
        (Invalid_argument "Fault.parse_policy: bad action in \"fry@1\"")
        (fun () -> ignore (Fault.parse_policy "fry@1"));
      (* partitions through arm_spec *)
      Fault.arm_spec "part:primary->standby";
      Alcotest.(check (list (pair string string))) "one-way" [ ("primary", "standby") ]
        (Fault.partitions ());
      Fault.arm_spec "part:client<->server";
      Alcotest.(check int) "two-way adds both" 3 (List.length (Fault.partitions ()));
      (* armed sites show up in the report *)
      Fault.arm_spec "net.send:drop@2";
      let armed () =
        List.filter_map
          (fun (n, _, p) -> Option.map (fun p -> (n, p)) p)
          (Fault.report ())
      in
      Alcotest.(check (list (pair string string))) "report shows the policy"
        [ ("net.send", "drop@2") ] (armed ());
      Alcotest.(check int) "policies and partitions armed" 4 (Fault.armed_count ());
      Fault.heal_all ();
      Alcotest.(check int) "heal_all heals" 0 (List.length (Fault.partitions ()));
      Alcotest.(check int) "heal_all keeps site policies" 1 (Fault.armed_count ());
      Fault.arm_spec "part:primary->standby";
      Fault.disarm_all ();
      Alcotest.(check int) "disarm_all disarms and heals" 0 (Fault.armed_count ()))

let test_trigger_determinism () =
  (* the same seeded probability trigger replays the same decisions *)
  let fire_seq () =
    let t = Fault.Trigger.parse "%0.4/123" in
    let st = Fault.Trigger.state t in
    List.init 40 (fun _ -> Fault.Trigger.fire st t)
  in
  Alcotest.(check (list bool)) "seeded schedule replays" (fire_seq ()) (fire_seq ());
  let fired = List.filter (fun b -> b) (fire_seq ()) in
  Alcotest.(check bool) "some fire, some don't" true
    (List.length fired > 0 && List.length fired < 40)

(* ---- unified retry ---------------------------------------------------- *)

let test_retry_bounds () =
  let p = Retry.policy ~max_attempts:6 ~base_s:0.01 ~cap_s:0.08 ~seed:5 "t" in
  let r = Retry.start p in
  for _ = 1 to 20 do
    let s = Retry.next_sleep r in
    Alcotest.(check bool)
      (Printf.sprintf "sleep %g within [base, cap]" s)
      true
      (s >= 0.01 -. 1e-9 && s <= 0.08 +. 1e-9)
  done;
  (* seeded jitter replays *)
  let draws p = let r = Retry.start p in List.init 8 (fun _ -> Retry.next_sleep r) in
  Alcotest.(check (list (float 1e-12))) "seeded draws replay" (draws p) (draws p);
  (* pause burns the budget: max_attempts bounds the total attempts *)
  let r = Retry.start (Retry.policy ~max_attempts:3 ~base_s:0.001 ~cap_s:0.002 "t2") in
  Alcotest.(check bool) "first pause allowed" true (Retry.pause r);
  Alcotest.(check bool) "second pause allowed" true (Retry.pause r);
  Alcotest.(check bool) "third pause refused (budget spent)" false (Retry.pause r);
  Retry.reset r;
  Alcotest.(check bool) "reset restores the budget" true (Retry.pause r)

let test_retry_run () =
  let calls = ref 0 in
  let v =
    Retry.run
      (Retry.policy ~max_attempts:5 ~base_s:0.001 ~cap_s:0.002 "t3")
      ~retry_on:(function Failure _ -> true | _ -> false)
      (fun () ->
        incr calls;
        if !calls < 3 then failwith "flaky" else 42)
  in
  Alcotest.(check int) "succeeded on third call" 42 v;
  Alcotest.(check int) "three calls" 3 !calls;
  (* non-matching exceptions propagate immediately *)
  let calls = ref 0 in
  (match
     Retry.run
       (Retry.policy ~max_attempts:5 ~base_s:0.001 "t4")
       ~retry_on:(function Failure _ -> true | _ -> false)
       (fun () ->
         incr calls;
         raise Exit)
   with
   | _ -> Alcotest.fail "Exit should propagate"
   | exception Exit -> Alcotest.(check int) "no retry on Exit" 1 !calls)

(* ---- torn mid-frame: statement port ----------------------------------- *)

let with_server f =
  Test_util.with_dir @@ fun dir ->
  let g = G.create () in
  let db = G.create_database g ~name:"main" ~dir in
  ignore (Test_util.load db "d" "<r/>");
  let srv = Server.start g in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f g srv db)

let poll ?(timeout_s = 5.) pred =
  let d = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > d then false
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

let test_torn_statement_port () =
  clean (fun () ->
      with_server (fun g srv _db ->
          let c = Client.connect ~port:(Server.port srv) () in
          Fun.protect
            ~finally:(fun () -> try Client.close c with _ -> ())
            (fun () ->
              ignore (Client.open_db c "main");
              Alcotest.(check int) "one session" 1 (G.session_count g);
              (* the very next frame sent anywhere is torn: that is this
                 client's write request *)
              Fault.arm_spec "net.send:torn@1";
              (match
                 Client.execute c {|UPDATE insert <e/> into doc("d")/r|}
               with
               | _ -> Alcotest.fail "torn write must not be acked"
               | exception Client.Remote_error ("SE-FAILOVER", _) -> ()
               | exception e ->
                 Alcotest.fail
                   ("expected SE-FAILOVER, got " ^ Printexc.to_string e));
              (* the server noticed the mid-frame EOF, closed the
                 connection and freed the session slot (the client then
                 reconnected and re-opened, so the count returns to 1) *)
              Alcotest.(check bool) "session slot recycled" true
                (poll (fun () -> G.session_count g = 1));
              (* the reconnected session still works *)
              Alcotest.(check string) "statement after reconnect" "ok"
                (match Client.execute c {|UPDATE insert <e/> into doc("d")/r|} with
                 | Sedna_db.Session.Updated _ -> "ok"
                 | _ -> "unexpected"))))

(* ---- torn mid-frame: replication port --------------------------------- *)

let test_torn_replication_port () =
  clean (fun () ->
      Test_util.with_dir @@ fun pdir ->
      let sdir = pdir ^ "-standby" in
      let gov_p = G.create () in
      let gov_s = G.create () in
      let db = G.create_database gov_p ~name:"db" ~dir:pdir in
      ignore (Test_util.load db "d" "<r/>");
      let sender = Sender.start ~gov:gov_p db in
      let recv =
        Recv.start ~poll_s:0.005 ~heartbeat_timeout_s:0.5 ~gov:gov_s ~name:"db"
          ~dir:sdir ~host:"127.0.0.1" ~port:(Sender.port sender) ()
      in
      Fun.protect
        ~finally:(fun () ->
          Fault.disarm_all ();
          Recv.stop recv;
          Sender.stop sender;
          (try G.shutdown gov_s with _ -> ());
          try G.shutdown gov_p with _ -> ())
        (fun () ->
          let tip () = (Wal.epoch (Database.wal db), Wal.size (Database.wal db)) in
          let insert text =
            ignore
              (Test_util.exec db
                 (Printf.sprintf {|UPDATE insert <e>%s</e> into doc("d")/r|} text))
          in
          insert "before";
          let e, p = tip () in
          Alcotest.(check bool) "standby caught up" true
            (Recv.wait_caught_up recv ~epoch:e ~pos:p);
          let injected0 = Counters.get Counters.fault_injected in
          (* tear the next replication frame (the stream is the only
             traffic now), costing the connection mid-frame; the
             receiver must reconnect and resume from its acked cursor *)
          Fault.arm_spec "net.send:torn@1";
          Alcotest.(check bool) "the torn frame fired" true
            (poll (fun () -> Counters.get Counters.fault_injected > injected0));
          insert "after";
          let e, p = tip () in
          Alcotest.(check bool) "standby recovered and caught up" true
            (Recv.wait_caught_up ~timeout_s:15. recv ~epoch:e ~pos:p);
          match Recv.database recv with
          | None -> Alcotest.fail "standby lost its database"
          | Some sdb ->
            Alcotest.(check string) "nothing lost across the torn frame" "2"
              (Test_util.exec sdb {|count(doc("d")/r/e)|})))

(* ---- fencing ----------------------------------------------------------- *)

let test_fencing_local () =
  Test_util.with_dir @@ fun dir ->
  let db = Database.create dir in
  Alcotest.(check int) "fresh cluster epoch" 0 (Database.cluster_epoch db);
  Alcotest.(check bool) "not fenced" false (Database.is_fenced db);
  Database.set_cluster_epoch db 5;
  Alcotest.(check int) "epoch adopted" 5 (Database.cluster_epoch db);
  Database.set_cluster_epoch db 3;
  Alcotest.(check int) "epoch is monotonic" 5 (Database.cluster_epoch db);
  (* an equal or lower epoch is old news — no fence *)
  Database.observe_epoch db 5;
  Alcotest.(check bool) "own epoch does not fence" false (Database.is_fenced db);
  let demotions0 = Counters.get Counters.fence_demotions in
  Database.observe_epoch db 9;
  Alcotest.(check bool) "higher epoch fences a primary" true
    (Database.is_fenced db);
  Alcotest.(check int) "epoch adopted on fence" 9 (Database.cluster_epoch db);
  Alcotest.(check int) "demotion counted" (demotions0 + 1)
    (Counters.get Counters.fence_demotions);
  (* writes refused, reads welcome *)
  (match Database.begin_txn db with
   | _ -> Alcotest.fail "fenced node accepted a write transaction"
   | exception Error.Sedna_error (code, _) ->
     Alcotest.(check string) "SE-FENCED" "SE-FENCED" (Error.code_name code));
  let txn = Database.begin_txn ~read_only:true db in
  Database.commit db txn;
  Database.unfence db;
  let txn = Database.begin_txn db in
  Database.abort db txn;
  (* the epoch survives a restart via the sidecar *)
  Database.close db;
  let db2 = Database.open_existing dir in
  Alcotest.(check int) "cluster epoch persisted" 9 (Database.cluster_epoch db2);
  Alcotest.(check bool) "fence itself is not persisted" false
    (Database.is_fenced db2);
  Database.close db2

let test_fence_blocks_open_transaction_commit () =
  Test_util.with_dir @@ fun dir ->
  let db = Database.create dir in
  let rejected0 = Counters.get Counters.fence_rejected_writes in
  let txn = Database.begin_txn db in
  (* the fence lands while the transaction is open: its commit must be
     refused — nothing may be acked past the fence point *)
  Database.observe_epoch db 4;
  (match Database.commit db txn with
   | () -> Alcotest.fail "commit crossed the fence"
   | exception Error.Sedna_error (code, _) ->
     Alcotest.(check string) "SE-FENCED at commit" "SE-FENCED"
       (Error.code_name code));
  Alcotest.(check bool) "refusal counted" true
    (Counters.get Counters.fence_rejected_writes > rejected0);
  Database.abort db txn;
  Database.close db

let test_fence_gossip_over_wire () =
  clean (fun () ->
      with_server (fun _g srv db ->
          let c = Client.connect ~port:(Server.port srv) () in
          Fun.protect
            ~finally:(fun () -> try Client.close c with _ -> ())
            (fun () ->
              ignore (Client.open_db c "main");
              ignore (Client.execute c {|UPDATE insert <e/> into doc("d")/r|});
              (* a request carrying a higher cluster epoch in its 'E'
                 header fences the node it reaches *)
              let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              Fun.protect
                ~finally:(fun () -> try Unix.close fd with _ -> ())
                (fun () ->
                  Unix.connect fd
                    (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
                  Wire.write_request fd (Wire.Open "main");
                  ignore (Wire.read_response fd);
                  Wire.write_request ~epoch:3 fd (Wire.Execute "1");
                  ignore (Wire.read_response fd));
              Alcotest.(check bool) "gossip fenced the node" true
                (poll (fun () -> Database.is_fenced db));
              Alcotest.(check int) "epoch adopted" 3 (Database.cluster_epoch db);
              (* the open client's next write is refused with SE-FENCED
                 (single endpoint, so no failover target exists) *)
              (match Client.execute c {|UPDATE insert <e/> into doc("d")/r|} with
               | _ -> Alcotest.fail "fenced server acked a write"
               | exception Client.Remote_error ("SE-FENCED", _) -> ()
               | exception e ->
                 Alcotest.fail ("expected SE-FENCED, got " ^ Printexc.to_string e));
              (* reads still served *)
              Alcotest.(check bool) "reads survive the fence" true
                (match Client.execute c {|count(doc("d")/r/e)|} with
                 | Sedna_db.Session.Items _ -> true
                 | _ -> false);
              Database.unfence db)))

(* ---- health endpoint --------------------------------------------------- *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
          path
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let b = Buffer.create 1024 in
      let chunk = Bytes.create 1024 in
      let rec go () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes b chunk 0 n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      go ();
      Buffer.contents b)

let status resp = if String.length resp >= 12 then String.sub resp 9 3 else "?"

let test_health_fenced_503 () =
  let role = ref (true, "primary") in
  let m = Mh.start ~health:(fun () -> !role) ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Mh.stop m)
    (fun () ->
      Alcotest.(check string) "primary is ready" "200"
        (status (http_get (Mh.port m) "/health"));
      role := (true, "standby");
      Alcotest.(check string) "standby is ready" "200"
        (status (http_get (Mh.port m) "/health"));
      (* fenced and draining are never ready, even if the embedder's
         closure claims otherwise *)
      role := (true, "fenced");
      Alcotest.(check string) "fenced forces 503" "503"
        (status (http_get (Mh.port m) "/health"));
      role := (true, "draining");
      Alcotest.(check string) "draining forces 503" "503"
        (status (http_get (Mh.port m) "/health"));
      role := (false, "draining");
      Alcotest.(check string) "draining stays 503" "503"
        (status (http_get (Mh.port m) "/health"));
      (* the cluster epoch gauge is always in the exposition *)
      let body = http_get (Mh.port m) "/metrics" in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "cluster epoch exported" true
        (contains body "sedna_cluster_epoch"))

(* ---- one full chaos drill --------------------------------------------- *)

let test_chaos_partition_drill () =
  clean (fun () ->
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "sedna-netchaos-%d" (Unix.getpid ()))
      in
      let o = Drill.run ~clients:2 ~ops:8 ~seed:11 ~dir "partition" in
      if not (Drill.ok o) then Alcotest.fail (Drill.render o);
      Alcotest.(check bool) "acked some work" true (o.Drill.acked > 0);
      Alcotest.(check bool) "failed over to the promoted standby" true
        (o.Drill.new_primary_acked > 0))

let suite =
  [
    Alcotest.test_case "netfault grammar" `Quick test_netfault_grammar;
    Alcotest.test_case "seeded trigger determinism" `Quick test_trigger_determinism;
    Alcotest.test_case "retry backoff bounds" `Quick test_retry_bounds;
    Alcotest.test_case "retry run helper" `Quick test_retry_run;
    Alcotest.test_case "torn frame on statement port" `Quick test_torn_statement_port;
    Alcotest.test_case "torn frame on replication port" `Quick test_torn_replication_port;
    Alcotest.test_case "fencing: local refusals" `Quick test_fencing_local;
    Alcotest.test_case "fencing: open txn cannot commit" `Quick
      test_fence_blocks_open_transaction_commit;
    Alcotest.test_case "fencing: epoch gossip over the wire" `Quick
      test_fence_gossip_over_wire;
    Alcotest.test_case "health: fenced and draining are 503" `Quick
      test_health_fenced_503;
    Alcotest.test_case "chaos drill: partition + promotion" `Slow
      test_chaos_partition_drill;
  ]
