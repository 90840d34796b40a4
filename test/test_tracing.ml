(* Observability: request-scoped span trees over TCP (with standby
   apply lag), the slow-statement log, the monotonic clock, the
   thread-safe span store, the Prometheus metrics endpoint and its
   gauges, and the deadline-preempts-lock-wait regression. *)

open Sedna_util
open Sedna_core
open Sedna_db
module Sender = Sedna_replication.Repl_sender
module Recv = Sedna_replication.Repl_receiver
module Server = Sedna_server.Server
module Client = Sedna_server.Server_client
module Mh = Sedna_server.Metrics_http

(* ---- monotonic clock (satellite 1) ------------------------------------ *)

let test_monotonic () =
  let last = ref (Metrics.mono ()) in
  for _ = 1 to 1000 do
    let t = Metrics.mono () in
    if t < !last then Alcotest.fail "monotonic clock went backwards";
    last := t
  done

(* ---- span primitives --------------------------------------------------- *)

let test_wire_codec () =
  Alcotest.(check string) "wire encoding" "00c0ffee00c0ffee:42"
    (Span.wire_of ~trace:"00c0ffee00c0ffee" ~parent:42);
  (match Span.parse_wire "00c0ffee00c0ffee:42" with
   | Some ("00c0ffee00c0ffee", 42) -> ()
   | _ -> Alcotest.fail "parse_wire round trip");
  Alcotest.(check bool) "garbage rejected" true
    (Span.parse_wire "nonsense" = None && Span.parse_wire "" = None)

let test_span_tree_local () =
  Span.clear ();
  let cx = Option.get (Span.make ()) in
  Span.with_current (Some cx) (fun () ->
      let root = Span.start cx "statement" in
      Span.with_span "compile" (fun sp ->
          Alcotest.(check bool) "ambient span opened" true (sp <> None));
      Span.with_span "eval" (fun _ ->
          Span.with_span "lock.wait" (fun _ -> ()));
      Span.finish cx root);
  Span.publish cx;
  let spans = Option.get (Span.find (Span.trace_id cx)) in
  Alcotest.(check int) "four spans collected" 4 (List.length spans);
  let eval = List.find (fun s -> s.Span.sp_name = "eval") spans in
  let lock = List.find (fun s -> s.Span.sp_name = "lock.wait") spans in
  let root = List.find (fun s -> s.Span.sp_name = "statement") spans in
  Alcotest.(check bool) "nesting became parentage" true
    (lock.Span.sp_parent = eval.Span.sp_id
    && eval.Span.sp_parent = root.Span.sp_id
    && root.Span.sp_parent = 0);
  Alcotest.(check bool) "durations closed" true
    (List.for_all (fun s -> s.Span.sp_dur >= 0.) spans);
  match Span.render (Span.trace_id cx) with
  | Some tree ->
    Alcotest.(check bool) "render shows the tree" true
      (String.length tree > 0)
  | None -> Alcotest.fail "render lost the trace"

let test_disabled_is_free () =
  Span.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Span.set_enabled true)
    (fun () ->
      Alcotest.(check bool) "no context when disabled" true (Span.make () = None);
      Span.with_span "x" (fun sp ->
          Alcotest.(check bool) "no ambient span when disabled" true (sp = None)))

(* ---- span store under concurrent publishers ---------------------------- *)

let test_store_concurrent () =
  Span.set_capacity 64;
  Fun.protect
    ~finally:(fun () ->
      Span.set_capacity 256;
      Span.clear ())
    (fun () ->
      Span.clear ();
      let publisher () =
        for _ = 1 to 200 do
          let cx = Option.get (Span.make ()) in
          Span.finish cx (Span.start cx "statement");
          Span.publish cx
        done
      in
      let threads = List.init 4 (fun _ -> Thread.create publisher ()) in
      List.iter Thread.join threads;
      let ids = List.map fst (Span.traces ()) in
      Alcotest.(check int) "store holds exactly its capacity" 64 (List.length ids);
      Alcotest.(check int) "trace ids unique" 64 (List.length (List.sort_uniq compare ids));
      Alcotest.(check bool) "every retained trace is findable" true
        (List.for_all (fun id -> Span.find id <> None) ids))

(* ---- end-to-end: one statement, one trace, spans from every layer ------ *)

(* a primary served over TCP with a standby pulling its WAL *)
let with_repl_server f =
  Fault.disarm_all ();
  let pdir = Test_util.fresh_dir () in
  let sdir = pdir ^ "-standby" in
  let gov_p = Governor.create () in
  let gov_s = Governor.create () in
  let db = Governor.create_database gov_p ~name:"main" ~dir:pdir in
  ignore (Test_util.load db "d" "<r/>");
  let sender = Sender.start ~port:0 ~gov:gov_p db in
  let recv =
    Recv.start ~poll_s:0.005 ~heartbeat_timeout_s:2.0 ~gov:gov_s ~name:"main"
      ~dir:sdir ~host:"127.0.0.1" ~port:(Sender.port sender) ()
  in
  (* attach the standby before any traced statement runs: a commit that
     lands inside the initial seed reaches the standby as part of the
     seeded log, not as a shipped batch, and gets no apply span *)
  let wal = Database.wal db in
  if not (Recv.wait_caught_up recv ~epoch:(Wal.epoch wal) ~pos:(Wal.size wal))
  then Alcotest.fail "standby never finished its initial seed";
  let srv = Server.start gov_p in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Recv.stop recv;
      Sender.stop sender;
      (try Governor.shutdown gov_s with _ -> ());
      try Governor.shutdown gov_p with _ -> ())
    (fun () -> f ~db ~srv ~recv)

let span_names trace =
  match Span.find trace with
  | None -> []
  | Some spans -> List.map (fun s -> s.Span.sp_name) spans

let wait_for ?(timeout_s = 5.) pred =
  let t0 = Metrics.mono () in
  let rec go () =
    if pred () then true
    else if Metrics.mono () -. t0 > timeout_s then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let test_span_tree_over_tcp () =
  with_repl_server (fun ~db ~srv ~recv ->
      Span.clear ();
      let c = Client.connect ~port:(Server.port srv) () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore (Client.open_db c "main");
          ignore
            (Client.execute c {|UPDATE insert <e>traced</e> into doc("d")/r|});
          let trace =
            match Client.last_trace_id c with
            | Some t -> t
            | None -> Alcotest.fail "client did not record a trace id"
          in
          (* the statement committed, so the standby can catch up to it;
             its apply span lands in the same trace *)
          let epoch = Wal.epoch (Database.wal db) in
          let pos = Wal.size (Database.wal db) in
          Alcotest.(check bool) "standby caught up" true
            (Recv.wait_caught_up ~timeout_s:10. recv ~epoch ~pos);
          Alcotest.(check bool) "standby apply span joins the trace" true
            (wait_for (fun () -> List.mem "standby.apply" (span_names trace)));
          let names = span_names trace in
          List.iter
            (fun want ->
              Alcotest.(check bool) ("span " ^ want ^ " present") true
                (List.mem want names))
            [
              "client.request";
              "queue.wait";
              "server.execute";
              "engine.wait";
              "statement";
              "compile";
              "eval";
              "lock.wait";
              "commit.fsync";
              "standby.apply";
            ];
          (* one trace id spans client, server, engine and standby *)
          let spans = Option.get (Span.find trace) in
          Alcotest.(check bool) "all spans carry the client's trace id" true
            (List.for_all (fun s -> s.Span.sp_trace = trace) spans);
          match Span.render trace with
          | Some tree ->
            Alcotest.(check bool) "rendered tree mentions commit.fsync" true
              (let has sub =
                 let n = String.length tree and m = String.length sub in
                 let rec at i =
                   i + m <= n && (String.sub tree i m = sub || at (i + 1))
                 in
                 at 0
               in
               has "commit.fsync" && has "standby.apply")
          | None -> Alcotest.fail "trace not renderable"))

(* ---- slow-statement log ------------------------------------------------ *)

let test_slow_log_threshold () =
  let file = Filename.temp_file "sedna_slow" ".jsonl" in
  Span.clear_slow ();
  Span.set_slow_threshold 0.;
  Span.set_slow_file (Some file);
  Fun.protect
    ~finally:(fun () ->
      Span.set_slow_threshold 1.0;
      Span.set_slow_file None;
      Span.clear_slow ();
      Sys.remove file)
    (fun () ->
      Test_util.with_db (fun db ->
          ignore (Test_util.load db "d" "<r><x/></r>");
          ignore (Test_util.exec db {|count(doc("d")//x)|}));
      let slow = Span.slow () in
      Alcotest.(check bool) "threshold 0 records every statement" true
        (List.length slow >= 1);
      let id, spans = List.hd slow in
      Alcotest.(check bool) "entry carries a trace id" true (String.length id > 0);
      Alcotest.(check bool) "entry has a span breakdown" true
        (List.exists (fun sp -> sp.Span.sp_name = "eval") spans);
      Alcotest.(check bool) "entry keeps the statement text" true
        (List.exists
           (fun sp ->
             match List.assoc_opt "text" sp.Span.sp_annots with
             | Some (Metrics.Str t) -> t <> ""
             | _ -> false)
           spans);
      let ic = open_in file in
      let line = input_line ic in
      close_in ic;
      Alcotest.(check bool) "file sink got a JSON line with its trace" true
        (String.length line > 10 && String.sub line 0 10 = {|{"trace":"|});
      (* above the threshold nothing is recorded *)
      Span.clear_slow ();
      Span.set_slow_threshold 3600.;
      Test_util.with_db (fun db ->
          ignore (Test_util.load db "d" "<r/>");
          ignore (Test_util.exec db {|count(doc("d"))|}));
      Alcotest.(check int) "fast statements stay out" 0 (List.length (Span.slow ())))

(* ---- gauges survive a counter reset ----------------------------------- *)

let test_reset_keeps_gauges () =
  Test_util.with_db (fun db ->
      Database.enter_degraded db "test: disk full";
      Fun.protect
        ~finally:(fun () -> Database.exit_degraded db)
        (fun () ->
          Counters.reset_all ();
          Alcotest.(check int) "still degraded after reset" 1
            (Counters.get Counters.degraded_state);
          let body = Mh.render_metrics [] in
          let has sub =
            let n = String.length body and m = String.length sub in
            let rec at i = i + m <= n && (String.sub body i m = sub || at (i + 1)) in
            at 0
          in
          Alcotest.(check bool) "degraded gauge exported as 1" true
            (has "# TYPE sedna_degraded_state gauge\nsedna_degraded_state 1\n");
          Alcotest.(check bool) "standby gauges typed as gauges" true
            (has "# TYPE sedna_repl_standby_connected gauge\n"
            && has "# TYPE sedna_repl_standby_epoch gauge\n"
            && not (has "# TYPE sedna_repl_standby_connected counter"))))

(* ---- metrics endpoint -------------------------------------------------- *)

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
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
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

let split_response resp =
  let rec find i =
    if i + 4 > String.length resp then String.length resp
    else if String.sub resp i 4 = "\r\n\r\n" then i
    else find (i + 1)
  in
  let i = find 0 in
  ( String.sub resp 0 i,
    String.sub resp (min (i + 4) (String.length resp))
      (String.length resp - min (i + 4) (String.length resp)) )

let prom_line_ok line =
  line = ""
  || (String.length line > 1 && line.[0] = '#')
  ||
  match String.index_opt line ' ' with
  | None -> false
  | Some i ->
    let name = String.sub line 0 i in
    let value = String.sub line (i + 1) (String.length line - i - 1) in
    String.length name > 0
    && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
    && String.for_all
         (fun c ->
           match c with
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '{' | '}' | '"' | '='
           | '+' | '.' | '-' ->
             true
           | _ -> false)
         name
    && float_of_string_opt value <> None

let test_metrics_endpoint () =
  with_repl_server (fun ~db ~srv ~recv ->
      let c = Client.connect ~port:(Server.port srv) () in
      ignore (Client.open_db c "main");
      ignore (Client.execute c {|UPDATE insert <m/> into doc("d")/r|});
      Client.close c;
      let epoch = Wal.epoch (Database.wal db) in
      let pos = Wal.size (Database.wal db) in
      ignore (Recv.wait_caught_up ~timeout_s:10. recv ~epoch ~pos);
      let m =
        Mh.start
          ~gauges:
            [
              {
                Mh.g_name = "buffer.occupancy";
                g_help = "frames in use";
                g_read = (fun () -> Buffer_mgr.occupancy (Database.buffer db));
              };
            ]
          ~health:(fun () -> (true, "primary"))
          ~port:0 ()
      in
      Fun.protect
        ~finally:(fun () -> Mh.stop m)
        (fun () ->
          let head, body = split_response (http_get (Mh.port m) "/metrics") in
          Alcotest.(check bool) "/metrics answers 200" true
            (String.length head >= 15 && String.sub head 9 3 = "200");
          let lines = String.split_on_char '\n' body in
          List.iter
            (fun l ->
              if not (prom_line_ok l) then
                Alcotest.fail ("malformed exposition line: " ^ l))
            lines;
          let has sub =
            List.exists
              (fun l ->
                String.length l >= String.length sub
                && String.sub l 0 (String.length sub) = sub)
              lines
          in
          Alcotest.(check bool) "replication lag gauge exported" true
            (has "sedna_repl_lag_bytes ");
          Alcotest.(check bool) "standby apply counter exported" true
            (has "sedna_repl_txns_applied ");
          Alcotest.(check bool) "supplied gauge exported" true
            (has "sedna_buffer_occupancy ");
          Alcotest.(check bool) "lag gauge typed as gauge" true
            (has "# TYPE sedna_repl_lag_bytes gauge");
          let hhead, hbody = split_response (http_get (Mh.port m) "/health") in
          Alcotest.(check bool) "/health answers 200 ok primary" true
            (String.sub hhead 9 3 = "200"
            && String.length hbody >= 10
            && String.sub hbody 0 10 = "ok primary");
          let nhead, _ = split_response (http_get (Mh.port m) "/nope") in
          Alcotest.(check bool) "unknown path answers 404" true
            (String.sub nhead 9 3 = "404")))

let test_prom_name () =
  Alcotest.(check string) "dots and dashes sanitized" "sedna_wal_fsync_ms"
    (Mh.prom_name "wal.fsync-ms")

(* ---- deadline preempts a lock wait ------------------------------------ *)

(* The session's auto-commit restart is the only lock wait; an armed
   deadline must end it with SE-TIMEOUT well before the restart budget
   (about 0.2 s) would surface SE-LOCK-TIMEOUT. *)
let test_deadline_preempts_lock_wait () =
  let dir = Test_util.fresh_dir () in
  let db = Database.create dir in
  Fun.protect
    ~finally:(fun () ->
      Deadline.clear ();
      Database.close db)
    (fun () ->
      ignore (Test_util.load db "d" "<r/>");
      let holder = Session.connect db and waiter = Session.connect db in
      Session.begin_txn holder;
      ignore (Session.execute holder {|UPDATE insert <a/> into doc("d")/r|});
      Deadline.set 0.02;
      let got =
        match Session.execute waiter {|UPDATE insert <b/> into doc("d")/r|} with
        | _ -> "done"
        | exception Error.Sedna_error (code, _) -> Error.code_name code
      in
      Deadline.clear ();
      Alcotest.(check string)
        "armed deadline fires inside the lock-wait loop" "SE-TIMEOUT" got;
      Session.rollback holder)

let suite =
  [
    Alcotest.test_case "monotonic clock never goes backwards" `Quick
      test_monotonic;
    Alcotest.test_case "trace context wire codec" `Quick test_wire_codec;
    Alcotest.test_case "nested spans become a tree" `Quick test_span_tree_local;
    Alcotest.test_case "disabled tracing creates nothing" `Quick
      test_disabled_is_free;
    Alcotest.test_case "span store under concurrent publish" `Quick
      test_store_concurrent;
    Alcotest.test_case "one statement, one trace, spans from every layer"
      `Quick test_span_tree_over_tcp;
    Alcotest.test_case "slow-statement log honors its threshold" `Quick
      test_slow_log_threshold;
    Alcotest.test_case "counter reset keeps gauges" `Quick test_reset_keeps_gauges;
    Alcotest.test_case "metrics endpoint speaks Prometheus" `Quick
      test_metrics_endpoint;
    Alcotest.test_case "prometheus name sanitation" `Quick test_prom_name;
    Alcotest.test_case "deadline preempts a blocked lock wait" `Quick
      test_deadline_preempts_lock_wait;
  ]
