(* Serving-layer tests: wire protocol round trips, concurrent sessions
   over real TCP connections (paper §3 architecture, §6.3 snapshot
   isolation), admission control and graceful shutdown. *)

module Server = Sedna_server.Server
module Client = Sedna_server.Server_client
module Wire = Sedna_server.Wire
module G = Sedna_db.Governor

let with_server ?limits ?config f =
  let dir = Test_util.fresh_dir () in
  let g = G.create () in
  ignore (G.create_database g ~name:"main" ~dir);
  (match limits with Some l -> G.set_limits g l | None -> ());
  let srv = Server.start ?config g in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> f g srv dir)

let with_client srv f =
  let c = Client.connect ~port:(Server.port srv) () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let open_client srv =
  let c = Client.connect ~port:(Server.port srv) () in
  ignore (Client.open_db c "main");
  c

(* ---- wire protocol ---------------------------------------------------- *)

let test_wire_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let requests =
        [
          Wire.Open "main";
          Wire.Execute "count(doc(\"d\")//x)";
          Wire.Fetch 4096;
          Wire.Close;
        ]
      in
      List.iter (Wire.write_request a) requests;
      List.iter
        (fun want ->
          let trace, epoch, got = Wire.read_request b in
          Alcotest.(check bool) "no trace header" true (trace = None);
          Alcotest.(check bool) "no epoch header" true (epoch = None);
          Alcotest.(check bool) "request round trip" true (got = want))
        requests;
      (* the optional trace and epoch headers ride inside the same frame *)
      Wire.write_request ~trace:"00c0ffee00c0ffee:42" ~epoch:7 a (Wire.Execute "1+1");
      let trace, epoch, got = Wire.read_request b in
      Alcotest.(check bool) "trace header round trip" true
        (trace = Some "00c0ffee00c0ffee:42" && got = Wire.Execute "1+1");
      Alcotest.(check bool) "epoch header round trip" true (epoch = Some 7);
      let responses =
        [
          Wire.Opened 7;
          Wire.Updated 3;
          Wire.Message "ok";
          Wire.Result_ready 11;
          Wire.Chunk { last = false; data = "<r a=\"&#13;\"/>" };
          Wire.Chunk { last = true; data = "" };
          Wire.Err { code = "SE-OVERLOADED"; msg = "queue full" };
          Wire.Bye;
        ]
      in
      List.iter (Wire.write_response b) responses;
      List.iter
        (fun want ->
          let epoch, got = Wire.read_response a in
          Alcotest.(check bool) "no response epoch" true (epoch = None);
          Alcotest.(check bool) "response round trip" true (got = want))
        responses;
      (* responses carry the epoch header too *)
      Wire.write_response ~epoch:9 b (Wire.Message "fenced gossip");
      let epoch, got = Wire.read_response a in
      Alcotest.(check bool) "response epoch round trip" true
        (epoch = Some 9 && got = Wire.Message "fenced gossip"))

(* ---- basic execution over TCP ----------------------------------------- *)

let test_execute_over_tcp () =
  with_server (fun _g srv _dir ->
      with_client srv (fun c ->
          ignore (Client.open_db c "main");
          (match Client.execute c {|CREATE DOCUMENT "d"|} with
           | Sedna_db.Session.Message _ -> ()
           | _ -> Alcotest.fail "DDL should answer with a message");
          (match Client.execute c {|UPDATE insert <a><b>7</b><b>9</b></a> into doc("d")|} with
           | Sedna_db.Session.Updated n ->
             Alcotest.(check bool) "update count" true (n > 0)
           | _ -> Alcotest.fail "update should answer with a count");
          Alcotest.(check string) "query" "2"
            (Client.execute_string c {|count(doc("d")//b)|});
          Alcotest.(check string) "values" "79"
            (Client.execute_string c {|string(doc("d")//b[1])|}
             ^ Client.execute_string c {|string(doc("d")//b[2])|})))

let test_fetch_batches () =
  with_server (fun _g srv _dir ->
      (* a tiny fetch chunk forces the result through many batches *)
      let c = Client.connect ~port:(Server.port srv) ~fetch_chunk:5 () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore (Client.open_db c "main");
          ignore (Client.execute c {|CREATE DOCUMENT "d"|});
          ignore
            (Client.execute c
               {|UPDATE insert <long>abcdefghijklmnopqrstuvwxyz0123456789</long> into doc("d")|});
          Alcotest.(check string) "reassembled across chunks"
            "abcdefghijklmnopqrstuvwxyz0123456789"
            (Client.execute_string c {|string(doc("d")/long)|})))

(* ---- §6.3: snapshot reader while a writer is uncommitted --------------- *)

let test_snapshot_reader_under_writer () =
  with_server (fun _g srv _dir ->
      let setup = open_client srv in
      ignore (Client.execute setup {|CREATE DOCUMENT "d"|});
      ignore (Client.execute setup {|UPDATE insert <r><n/><n/></r> into doc("d")|});
      Client.close setup;
      let writer = open_client srv in
      let reader = open_client srv in
      Fun.protect
        ~finally:(fun () ->
          Client.close writer;
          Client.close reader)
        (fun () ->
          ignore (Client.execute writer "BEGIN");
          (match Client.execute writer {|UPDATE insert <n/> into doc("d")/r|} with
           | Sedna_db.Session.Updated _ -> ()
           | _ -> Alcotest.fail "writer update");
          (* the writer transaction is open and holds the exclusive
             document lock; a snapshot reader on another connection
             must still complete, seeing the pre-writer state *)
          Alcotest.(check string) "reader sees snapshot, does not block" "2"
            (Client.execute_string reader {|count(doc("d")/r/n)|});
          ignore (Client.execute writer "COMMIT");
          (* a fresh statement takes a fresh snapshot *)
          Alcotest.(check string) "reader sees the commit afterwards" "3"
            (Client.execute_string reader {|count(doc("d")/r/n)|})))

(* a second writer blocks behind the first one's document lock and
   surfaces a clean lock error, while readers keep flowing *)
let test_writer_blocks_writer () =
  with_server (fun _g srv _dir ->
      let setup = open_client srv in
      ignore (Client.execute setup {|CREATE DOCUMENT "d"|});
      Client.close setup;
      let w1 = open_client srv in
      let w2 = open_client srv in
      Fun.protect
        ~finally:(fun () ->
          Client.close w1;
          Client.close w2)
        (fun () ->
          ignore (Client.execute w1 "BEGIN");
          ignore (Client.execute w1 {|UPDATE insert <x/> into doc("d")|});
          (match Client.execute w2 {|UPDATE insert <y/> into doc("d")|} with
           | exception Client.Remote_error (code, _) ->
             Alcotest.(check string) "second writer times out on the lock"
               "SE-LOCK-TIMEOUT" code
           | _ -> Alcotest.fail "second writer should block behind the X lock");
          ignore (Client.execute w1 "COMMIT");
          (* with the lock released the second writer goes through *)
          (match Client.execute w2 {|UPDATE insert <y/> into doc("d")|} with
           | Sedna_db.Session.Updated _ -> ()
           | _ -> Alcotest.fail "second writer after commit")))

(* ---- admission control ------------------------------------------------- *)

let test_session_limit_overload () =
  with_server
    ~limits:{ G.max_sessions = 2; query_timeout_s = 0. }
    (fun _g srv _dir ->
      let c1 = open_client srv in
      let c2 = open_client srv in
      let c3 = Client.connect ~port:(Server.port srv) () in
      Fun.protect
        ~finally:(fun () ->
          Client.close c1;
          Client.close c2;
          Client.close c3)
        (fun () ->
          (match Client.open_db c3 "main" with
           | exception Client.Remote_error (code, _) ->
             Alcotest.(check string) "limit refusal" "SE-OVERLOADED" code
           | _ -> Alcotest.fail "third session should be refused");
          (* freeing a slot lets the next open succeed *)
          Client.close c2;
          let c4 = open_client srv in
          Alcotest.(check string) "slot reusable" "2"
            (Client.execute_string c4 "1 + 1");
          Client.close c4))

let test_queue_backpressure () =
  with_server
    ~config:{ Server.default_config with pool_size = 1; max_queue = 1 }
    (fun g srv _dir ->
      let a = open_client srv in
      let t = ref None in
      let queued_fd = ref None in
      Fun.protect
        ~finally:(fun () ->
          (match !t with Some th -> Thread.join th | None -> ());
          Client.close a;
          match !queued_fd with
          | Some fd -> ( try Unix.close fd with _ -> ())
          | None -> ())
        (fun () ->
          (* occupy the single worker: its statement blocks on the
             store lock we hold, deterministically *)
          G.with_engine g (fun () ->
              t :=
                Some
                  (Thread.create
                     (fun () -> ignore (Client.execute_string a "1 + 1"))
                     ());
              Thread.delay 0.15;
              (* the worker is busy with [a]; a raw connection fills the
                 accept queue (we never have to speak on it) *)
              let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              Unix.connect fd
                (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
              queued_fd := Some fd;
              Thread.delay 0.15;
              (* queue full: the next connection is refused at accept *)
              let c = Client.connect ~port:(Server.port srv) () in
              (match Client.open_db c "main" with
               | exception Client.Remote_error (code, _) ->
                 Alcotest.(check string) "backpressure refusal" "SE-OVERLOADED"
                   code
               | _ -> Alcotest.fail "over-queue connection should be refused");
              Client.close c)
          (* leaving [with_engine] releases the store lock: [a]'s
             statement completes and the finally above joins it *)))

let test_query_timeout () =
  with_server
    ~limits:{ G.max_sessions = 8; query_timeout_s = 0.05 }
    (fun _g srv _dir ->
      let setup = open_client srv in
      ignore (Client.execute setup {|CREATE DOCUMENT "d"|});
      let wide =
        "UPDATE insert <r>"
        ^ String.concat "" (List.init 120 (fun i -> Printf.sprintf "<x i=\"%d\"/>" i))
        ^ "</r> into doc(\"d\")"
      in
      ignore (Client.execute setup wide);
      Client.close setup;
      let victim = open_client srv in
      let survivor = open_client srv in
      Fun.protect
        ~finally:(fun () ->
          Client.close victim;
          Client.close survivor)
        (fun () ->
          (* the survivor's explicit transaction stays open across the
             victim's timeout: only the offender's transaction aborts *)
          ignore (Client.execute survivor "BEGIN");
          ignore (Client.execute survivor {|UPDATE insert <kept/> into doc("d")/r|});
          let heavy =
            {|count(for $a in doc("d")//x, $b in doc("d")//x, $c in doc("d")//x return 1)|}
          in
          (match Client.execute victim heavy with
           | exception Client.Remote_error (code, _) ->
             Alcotest.(check string) "deadline fired" "SE-TIMEOUT" code
           | _ -> Alcotest.fail "heavy query should exceed its budget");
          (* the victim's connection and session survive the abort *)
          Alcotest.(check string) "victim session usable afterwards" "120"
            (Client.execute_string victim {|count(doc("d")/r/x)|});
          (match Client.execute survivor "COMMIT" with
           | Sedna_db.Session.Message _ -> ()
           | _ -> Alcotest.fail "survivor commit");
          Alcotest.(check string) "survivor's work committed" "1"
            (Client.execute_string victim {|count(doc("d")/r/kept)|})))

(* ---- concurrent mixed workload ----------------------------------------- *)

let test_concurrent_clients () =
  with_server (fun _g srv _dir ->
      let setup = open_client srv in
      ignore (Client.execute setup {|CREATE DOCUMENT "d"|});
      ignore (Client.execute setup {|UPDATE insert <r/> into doc("d")|});
      Client.close setup;
      let clients = 4 and per_client = 12 in
      let errors = Array.make clients "" in
      let threads =
        List.init clients (fun i ->
            Thread.create
              (fun () ->
                try
                  let c = open_client srv in
                  for j = 1 to per_client do
                    if i = 0 then
                      ignore
                        (Client.execute c
                           (Printf.sprintf
                              {|UPDATE insert <n c="%d" j="%d"/> into doc("d")/r|}
                              i j))
                    else ignore (Client.execute_string c {|count(doc("d")/r/n)|})
                  done;
                  Client.close c
                with
                | Client.Remote_error (code, msg) ->
                  (* writers can collide on the document lock; that is a
                     clean, expected outcome — anything else is not *)
                  if code <> "SE-LOCK-TIMEOUT" then
                    errors.(i) <- Printf.sprintf "%s: %s" code msg
                | e -> errors.(i) <- Printexc.to_string e)
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i e -> if e <> "" then Alcotest.failf "client %d failed: %s" i e)
        errors;
      let check = open_client srv in
      Alcotest.(check string) "writer's inserts all committed"
        (string_of_int per_client)
        (Client.execute_string check {|count(doc("d")/r/n)|});
      Client.close check)

(* ---- graceful shutdown -------------------------------------------------- *)

let test_graceful_shutdown_recoverable () =
  let dir = Test_util.fresh_dir () in
  let g = G.create () in
  ignore (G.create_database g ~name:"main" ~dir);
  let srv = Server.start g in
  let c = open_client srv in
  ignore (Client.execute c {|CREATE DOCUMENT "d"|});
  ignore (Client.execute c {|UPDATE insert <r><a/><b/></r> into doc("d")|});
  (* leave an uncommitted transaction behind: the drain must roll it
     back, not persist it *)
  ignore (Client.execute c "BEGIN");
  ignore (Client.execute c {|UPDATE insert <uncommitted/> into doc("d")/r|});
  Server.stop srv;
  (* the connection is dead afterwards *)
  (match Client.execute c {|count(doc("d"))|} with
   | exception _ -> ()
   | _ -> Alcotest.fail "connection should be closed after shutdown");
  Client.close c;
  (* the store reopens cleanly: WAL was closed, checkpoint taken,
     integrity holds, and the open transaction did not commit *)
  let db = Sedna_core.Database.open_existing dir in
  Fun.protect
    ~finally:(fun () -> Sedna_core.Database.close db)
    (fun () ->
      (match Sedna_core.Integrity.check_all (Sedna_core.Database.store db) with
       | [] -> ()
       | problems ->
         Alcotest.failf "integrity after shutdown: %s"
           (String.concat "; "
              (List.concat_map
                 (fun (d, es) -> List.map (fun e -> d ^ ": " ^ e) es)
                 problems)));
      let s = Sedna_db.Session.connect db in
      Alcotest.(check string) "committed data survived" "2"
        (Sedna_db.Session.execute_string s {|count(doc("d")/r/*)|});
      Alcotest.(check string) "uncommitted insert rolled back" "0"
        (Sedna_db.Session.execute_string s {|count(doc("d")/r/uncommitted)|}))

let suite =
  [
    Alcotest.test_case "wire round trip" `Quick test_wire_roundtrip;
    Alcotest.test_case "execute over tcp" `Quick test_execute_over_tcp;
    Alcotest.test_case "fetch batches" `Quick test_fetch_batches;
    Alcotest.test_case "snapshot reader under writer" `Quick
      test_snapshot_reader_under_writer;
    Alcotest.test_case "writer blocks writer" `Quick test_writer_blocks_writer;
    Alcotest.test_case "session-limit overload" `Quick test_session_limit_overload;
    Alcotest.test_case "queue backpressure" `Quick test_queue_backpressure;
    Alcotest.test_case "query timeout isolation" `Quick test_query_timeout;
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "graceful shutdown recoverable" `Quick
      test_graceful_shutdown_recoverable;
  ]
