(* An interactive shell against a Sedna database directory: XQuery
   queries, XUpdate statements and DDL, plus a few \-commands for
   transaction control and inspection.

     sedna_cli --db /path/to/dbdir [--create] [--exec STMT]...

   Statements are terminated by '&' on its own line or end-of-input
   (so multi-line queries work), like Sedna's own terminal. *)

open Sedna_core

let run_statement_inner session text =
  match String.trim text with
  | "" -> ()
  | "\\begin" ->
    Sedna_db.Session.begin_txn session;
    print_endline "transaction started"
  | "\\begin-ro" ->
    Sedna_db.Session.begin_txn ~read_only:true session;
    print_endline "read-only transaction started"
  | "\\commit" ->
    Sedna_db.Session.commit session;
    print_endline "committed"
  | "\\rollback" ->
    Sedna_db.Session.rollback session;
    print_endline "rolled back"
  | "\\documents" ->
    let db = Sedna_db.Session.database session in
    List.iter print_endline (Catalog.document_names (Database.catalog db))
  | "\\counters" ->
    List.iter
      (fun (k, v) -> Printf.printf "%-24s %d\n" k v)
      (Sedna_util.Counters.snapshot ())
  | "\\counters reset" ->
    Sedna_util.Counters.reset_all ();
    print_endline "counters reset"
  | "\\trace" -> (
    (* the newest retained trace — usually the previous statement's *)
    match Sedna_util.Span.traces () with
    | (id, _) :: _ -> print_string (Option.value (Sedna_util.Span.render id) ~default:"")
    | [] -> print_endline "no traces retained")
  | "\\trace clear" ->
    Sedna_util.Span.clear ();
    print_endline "trace store cleared"
  | "\\traces" -> (
    match Sedna_util.Span.summaries () with
    | [] -> print_endline "no traces retained"
    | ts ->
      List.iter
        (fun (id, nspans, root, total_s) ->
          Printf.printf "%s  %2d spans  root %-16s %8.3f ms\n" id nspans root
            (total_s *. 1000.))
        ts)
  | "\\slow" -> (
    match Sedna_util.Span.slow () with
    | [] -> print_endline "slow log is empty"
    | slow ->
      List.iter
        (fun t ->
          print_endline (Sedna_util.Metrics.json_to_string (Sedna_util.Span.trace_to_json t)))
        (List.rev slow))
  | "\\slow clear" ->
    Sedna_util.Span.clear_slow ();
    print_endline "slow log cleared"
  | "\\checkpoint" ->
    Database.checkpoint (Sedna_db.Session.database session);
    print_endline "checkpoint complete"
  | "\\check" -> (
    let db = Sedna_db.Session.database session in
    match Integrity.check_all (Database.store db) with
    | [] -> print_endline "all documents structurally consistent"
    | problems ->
      List.iter
        (fun (doc, errs) ->
          Printf.printf "document %S:\n" doc;
          List.iter (fun e -> Printf.printf "  %s\n" e) errs)
        problems)
  | "\\faults" ->
    List.iter
      (fun (name, hits, armed) ->
        Printf.printf "%-20s %6d hits%s\n" name hits
          (match armed with
           | Some p -> Printf.sprintf "  armed: %s" p
           | None -> ""))
      (Sedna_util.Fault.report ())
  | "\\faults disarm" ->
    Sedna_util.Fault.disarm_all ();
    print_endline "all fault policies disarmed"
  | "\\netfaults" ->
    List.iter
      (fun (name, hits, armed) ->
        Printf.printf "%-20s %6d hits%s\n" name hits
          (match armed with
           | Some p -> Printf.sprintf "  armed: %s" p
           | None -> ""))
      (Sedna_util.Netfault.report ());
    (match Sedna_util.Netfault.partitions () with
     | [] -> ()
     | ps -> List.iter (fun (a, b) -> Printf.printf "partition: %s->%s\n" a b) ps)
  | "\\netfaults disarm" ->
    Sedna_util.Netfault.disarm_all ();
    print_endline "all network fault policies disarmed, partitions healed"
  | "\\netfaults heal" ->
    Sedna_util.Netfault.heal_all ();
    print_endline "all partitions healed"
  | "\\scrub" ->
    (* one synchronous scrub pass over the session's database (the
       local shell is single-threaded, so no lock injection needed) *)
    let db = Sedna_db.Session.database session in
    let st = Scrubber.run_pass (Scrubber.create db) in
    Printf.printf
      "scrub pass: %d pages checked, %d corrupt; repaired %d pool / %d wal        / %d standby; %d deferred, %d failed\n"
      st.Scrubber.checked st.Scrubber.corrupt st.Scrubber.repaired_pool
      st.Scrubber.repaired_wal st.Scrubber.repaired_standby
      st.Scrubber.deferred st.Scrubber.failed
  | "\\scrub status" ->
    let g = Sedna_util.Counters.get in
    let open Sedna_util.Counters in
    Printf.printf
      "passes: %d  pages checked: %d  corrupt: %d\n\
       repaired: %d pool / %d wal / %d standby; deferred: %d  failed: %d\n\
       degraded: %s (entered %d, recovered %d, writes rejected %d)\n"
      (g scrub_passes) (g scrub_pages_checked) (g scrub_corrupt)
      (g scrub_repaired_pool) (g scrub_repaired_wal) (g scrub_repaired_standby)
      (g scrub_deferred) (g scrub_repair_failed)
      (if g degraded_state > 0 then "YES" else "no")
      (g degraded_entered) (g degraded_recovered) (g degraded_rejected_writes)
  | "\\quit" | "\\q" -> raise Exit
  | text when String.length text > 12 && String.sub text 0 12 = "\\faults arm " -> (
    let spec = String.trim (String.sub text 12 (String.length text - 12)) in
    try
      Sedna_util.Fault.arm_spec spec;
      Printf.printf "armed %s\n" spec
    with e -> Printf.printf "error: %s\n" (Printexc.to_string e))
  | text when String.length text > 15 && String.sub text 0 15 = "\\netfaults arm " -> (
    let spec = String.trim (String.sub text 15 (String.length text - 15)) in
    try
      Sedna_util.Netfault.arm_spec spec;
      Printf.printf "armed %s\n" spec
    with e -> Printf.printf "error: %s\n" (Printexc.to_string e))
  | text when String.length text > 7 && String.sub text 0 7 = "\\trace " -> (
    (* \trace <id>: the span tree of one retained trace (\trace clear is
       matched above) *)
    let id = String.trim (String.sub text 7 (String.length text - 7)) in
    match Sedna_util.Span.render id with
    | Some tree -> print_string tree
    | None -> Printf.printf "no trace %s retained (\\traces lists them)\n" id)
  | text when String.length text > 9 && String.sub text 0 9 = "\\profile " -> (
    let q = String.sub text 9 (String.length text - 9) in
    try
      print_endline
        (Sedna_db.Session.render_profile (Sedna_db.Session.profile session q))
    with e -> Printf.printf "error: %s\n" (Sedna_util.Error.to_string e))
  | text when String.length text > 9 && String.sub text 0 9 = "\\explain " -> (
    let q = String.sub text 9 (String.length text - 9) in
    try print_endline (Sedna_db.Session.explain session q)
    with e -> Printf.printf "error: %s\n" (Sedna_util.Error.to_string e))
  | text -> print_endline (Sedna_db.Session.execute_string session text)

(* one guard for every statement and \-command: Exit quits, a simulated
   crash is process death, anything else is reported and the shell
   lives on (corrupt pages included — the user's next move is likely
   \check or a restore) *)
let run_statement session text =
  try run_statement_inner session text with
  | Exit -> raise Exit
  | Sedna_util.Fault.Injected_crash _ as c -> raise c
  | e -> Printf.printf "error: %s\n" (Sedna_util.Error.to_string e)

let interactive session =
  print_endline
    "Sedna shell. Statements end with '&' on its own line; \\q quits.\n\
     Commands: \\begin \\begin-ro \\commit \\rollback \\documents\n\
     \\counters (\\counters reset) \\trace (\\trace clear)\n\
     \\traces \\trace <id> (span tree) \\slow (\\slow clear)\n\
     \\checkpoint \\check (integrity) \\scrub (\\scrub status)\n\
     \\explain <query> \\profile <query>\n\
     \\faults (\\faults arm <site>:<policy>, \\faults disarm)\n\
     \\netfaults (\\netfaults arm <spec>, \\netfaults disarm, \\netfaults heal)";
  let buf = Buffer.create 256 in
  try
    while true do
      print_string (if Buffer.length buf = 0 then "sedna> " else "     > ");
      flush stdout;
      match input_line stdin with
      | exception End_of_file ->
        if Buffer.length buf > 0 then run_statement session (Buffer.contents buf);
        raise Exit
      | "&" ->
        run_statement session (Buffer.contents buf);
        Buffer.clear buf
      | line when Buffer.length buf = 0 && String.length line > 0 && line.[0] = '\\'
        -> run_statement session line
      | line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n'
    done
  with Exit -> ()

(* ---- the three modes: local shell, server, network client ------------- *)

(* Opening can refuse a database (a corrupt catalog, say): report the
   typed error and exit 1 rather than die on an uncaught exception. *)
let open_or_exit f =
  try f ()
  with Sedna_util.Error.Sedna_error _ as e ->
    prerr_endline ("sedna_cli: " ^ Sedna_util.Error.to_string e);
    exit 1

let local_mode db_dir create stmts =
  let db =
    open_or_exit (fun () ->
        if create || not (Sys.file_exists (Filename.concat db_dir "data.sdb"))
        then Database.create db_dir
        else Database.open_existing db_dir)
  in
  let session = Sedna_db.Session.connect db in
  match
    match stmts with
    | [] -> interactive session
    | stmts -> List.iter (run_statement session) stmts
  with
  | () -> Database.close db
  | exception Sedna_util.Fault.Injected_crash site ->
    (* simulated process death: no clean shutdown — the next open runs
       recovery, which is the point of the drill *)
    Printf.eprintf "simulated crash at fault site %s\n" site;
    exit 1

let parse_endpoint spec =
  match String.rindex_opt spec ':' with
  | Some i -> (
    let h = String.sub spec 0 i in
    let p = String.sub spec (i + 1) (String.length spec - i - 1) in
    match int_of_string_opt p with
    | Some p when h <> "" -> (h, p)
    | _ -> failwith (Printf.sprintf "bad endpoint %S (expected HOST:PORT)" spec))
  | None -> failwith (Printf.sprintf "bad endpoint %S (expected HOST:PORT)" spec)

(* --serve: register the database with a governor, start the serving
   layer and run until SIGINT/SIGTERM, then drain gracefully
   (in-flight statements finish, databases checkpoint, WAL closes).
   With --repl-port the primary also serves WAL shipping; with
   --standby-of the database is not opened locally at all — it is
   seeded and then continuously applied from the primary, and the
   server accepts the PROMOTE admin statement. *)
let serve_mode db_dir create host port db_name max_sessions query_timeout
    repl_port standby_of metrics_port scrub_rate repair_from =
  let g = Sedna_db.Governor.create () in
  let name =
    match db_name with Some n -> n | None -> Filename.basename db_dir
  in
  let promoted = ref false in
  let recv, sender =
    match standby_of with
    | Some spec ->
      let rhost, rport = parse_endpoint spec in
      let r =
        Sedna_replication.Repl_receiver.start ~gov:g ~name ~dir:db_dir
          ~host:rhost ~port:rport ()
      in
      (* a standby with its own replication port serves page-repair
         fetches (Wire.Page_request) for the primary's scrubber — the
         source closure tracks the live database across re-seeds *)
      ( Some r,
        Option.map
          (fun p ->
            Sedna_replication.Repl_sender.start_source ~host ~port:p ~gov:g
              (fun () -> Sedna_replication.Repl_receiver.database r))
          repl_port )
    | None ->
      let db =
        open_or_exit (fun () ->
            if create || not (Sys.file_exists (Filename.concat db_dir "data.sdb"))
            then Sedna_db.Governor.create_database g ~name ~dir:db_dir
            else Sedna_db.Governor.open_database g ~name ~dir:db_dir)
      in
      ( None,
        Option.map
          (fun p -> Sedna_replication.Repl_sender.start ~host ~port:p ~gov:g db)
          repl_port )
  in
  Sedna_db.Governor.set_limits g
    { Sedna_db.Governor.max_sessions; query_timeout_s = query_timeout };
  let srv =
    Sedna_server.Server.start
      ~config:{ Sedna_server.Server.default_config with host; port }
      ?on_promote:
        (Option.map
           (fun r () ->
             let msg = Sedna_replication.Repl_receiver.promote r in
             promoted := true;
             msg)
           recv)
      g
  in
  (* monitoring listener: /metrics scrapes, /health readiness.  Gauge
     closures look the database up per scrape — on a standby it only
     exists once the seed lands. *)
  let find_db () =
    match recv with
    | Some r -> Sedna_replication.Repl_receiver.database r
    | None -> Sedna_db.Governor.find_database g name
  in
  (* self-healing: online scrubber on the primary (the standby's copy
     is rewritten by the apply stream; re-seeds would invalidate a
     scrubber's database handle) and the resource watchdog everywhere *)
  let scrubber =
    if scrub_rate <= 0 || standby_of <> None then None
    else
      match find_db () with
      | None -> None
      | Some db ->
        let fetch =
          Option.map
            (fun spec ->
              let rh, rp = parse_endpoint spec in
              Sedna_replication.Repl_client.page_fetcher ~host:rh ~port:rp db)
            repair_from
        in
        let sc =
          Scrubber.create ~pages_per_sec:scrub_rate ?fetch
            ~lock:(fun f -> Sedna_db.Governor.with_engine g f)
            db
        in
        Scrubber.start sc;
        Some sc
  in
  let watchdog = Watchdog.start ~dir:db_dir ~get_db:find_db () in
  let msrv =
    Option.map
      (fun mport ->
        let db_gauge gname help read =
          {
            Sedna_server.Metrics_http.g_name = gname;
            g_help = help;
            g_read =
              (fun () -> match find_db () with Some db -> read db | None -> 0);
          }
        in
        let gauges =
          [
            db_gauge "buffer.occupancy" "Buffer pool frames holding a page"
              (fun db -> Buffer_mgr.occupancy (Database.buffer db));
            db_gauge "wal.size_bytes" "WAL file size in bytes" (fun db ->
                Wal.size (Database.wal db));
            {
              Sedna_server.Metrics_http.g_name = "sessions.active";
              g_help = "Sessions currently connected";
              g_read = (fun () -> Sedna_db.Governor.session_count g);
            };
          ]
        in
        let health () =
          if Sedna_server.Server.is_draining srv then (false, "draining")
          else
            match find_db () with
            | Some db when Database.is_fenced db ->
              (* deposed primary: still answers reads, but a load
                 balancer must stop routing here *)
              (false, "fenced")
            | Some db when Database.is_degraded db ->
              (* resource exhaustion: reads fine, writes shed — drop
                 out of the write pool until the watchdog recovers *)
              (false, "degraded")
            | _ ->
              if recv <> None && not !promoted then (true, "standby")
              else (true, "primary")
        in
        Sedna_server.Metrics_http.start ~host ~gauges ~health ~port:mport ())
      metrics_port
  in
  Printf.printf "serving database %S on %s:%d (max %d sessions%s)\n%!" name host
    (Sedna_server.Server.port srv)
    max_sessions
    (if query_timeout > 0. then
       Printf.sprintf ", query timeout %.1fs" query_timeout
     else "");
  (match sender with
   | Some s ->
     Printf.printf "shipping WAL on %s:%d\n%!" host
       (Sedna_replication.Repl_sender.port s)
   | None -> ());
  (match standby_of with
   | Some spec ->
     Printf.printf "standby of %s; writes refused until PROMOTE\n%!" spec
   | None -> ());
  (match msrv with
   | Some m ->
     Printf.printf "metrics endpoint on %s:%d (/metrics, /health)\n%!" host
       (Sedna_server.Metrics_http.port m)
   | None -> ());
  (match scrubber with
   | Some _ ->
     Printf.printf "online scrubber at %d pages/s%s\n%!" scrub_rate
       (match repair_from with
        | Some spec -> Printf.sprintf ", standby repair from %s" spec
        | None -> "")
   | None -> ());
  let stop_requested = ref false in
  let handler _ = stop_requested := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
  while not !stop_requested do
    try Unix.sleepf 0.1 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Printf.printf "draining...\n%!";
  Option.iter Scrubber.stop scrubber;
  Watchdog.stop watchdog;
  Option.iter Sedna_replication.Repl_receiver.stop recv;
  Option.iter Sedna_replication.Repl_sender.stop sender;
  Sedna_server.Server.stop srv;
  Option.iter Sedna_server.Metrics_http.stop msrv;
  print_endline "server stopped"

(* --connect: drive a running server over the wire protocol instead of
   opening the directory locally. *)
let connect_mode host port db_name stmts =
  let name = match db_name with Some n -> n | None -> "db" in
  (* a few connect retries by default: a server mid-restart (or a
     standby mid-promotion) looks like ECONNREFUSED for a moment *)
  let c = Sedna_server.Server_client.connect ~host ~port ~retries:3 () in
  ignore (Sedna_server.Server_client.open_db c name);
  List.iter
    (fun stmt ->
      try print_endline (Sedna_server.Server_client.execute_string c stmt) with
      | Sedna_server.Server_client.Remote_error (code, msg) ->
        Printf.printf "error: %s: %s\n" code msg)
    stmts;
  Sedna_server.Server_client.close c

(* --promote: ask a standby server to take over as primary. *)
let promote_mode host port db_name =
  let name = match db_name with Some n -> n | None -> "db" in
  match Sedna_replication.Repl_client.promote ~host ~port ~database:name with
  | msg -> print_endline msg
  | exception Sedna_server.Server_client.Remote_error (code, msg) ->
    Printf.eprintf "error: %s: %s\n" code msg;
    exit 1

let main db_dir create stmts serve connect promote host port db_name
    max_sessions query_timeout repl_port standby_of metrics_port scrub_rate
    repair_from slow_ms slow_log =
  (* SEDNA_FAULT=<site>:<policy>[,...] arms injection before the
     database opens, so recovery itself can be put under fault;
     SEDNA_NETFAULT does the same for the wire layer *)
  Sedna_util.Fault.arm_from_env ();
  Sedna_util.Netfault.arm_from_env ();
  (* slow-statement log: SEDNA_SLOW_MS / SEDNA_SLOW_LOG first, explicit
     flags override *)
  Sedna_util.Span.slow_init_from_env ();
  Option.iter (fun ms -> Sedna_util.Span.set_slow_threshold (ms /. 1000.)) slow_ms;
  Option.iter (fun path -> Sedna_util.Span.set_slow_file (Some path)) slow_log;
  match (promote, connect, serve, db_dir) with
  | true, _, _, _ -> promote_mode host port db_name
  | false, true, _, _ -> connect_mode host port db_name stmts
  | false, false, true, Some dir ->
    (try
       serve_mode dir create host port db_name max_sessions query_timeout
         repl_port standby_of metrics_port scrub_rate repair_from
     with Failure m ->
       prerr_endline ("sedna_cli: " ^ m);
       exit 2)
  | false, false, false, Some dir -> local_mode dir create stmts
  | false, false, _, None ->
    prerr_endline "sedna_cli: --db is required unless --connect is used";
    exit 2

open Cmdliner

let db_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "db" ] ~docv:"DIR"
        ~doc:"Database directory (created if missing).  Required except \
              with $(b,--connect).")

let create_arg =
  Arg.(value & flag & info [ "create" ] ~doc:"Force creation of a fresh database.")

let exec_arg =
  Arg.(
    value & opt_all string []
    & info [ "exec"; "e" ] ~docv:"STMT"
        ~doc:"Execute a statement and exit (repeatable).")

let serve_arg =
  Arg.(
    value & flag
    & info [ "serve" ]
        ~doc:"Serve the database over TCP until SIGINT/SIGTERM, then drain \
              gracefully.")

let connect_arg =
  Arg.(
    value & flag
    & info [ "connect" ]
        ~doc:"Connect to a running server instead of opening a directory; \
              statements from $(b,--exec) run remotely.")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Bind/connect address.")

let port_arg =
  Arg.(value & opt int 5050 & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")

let db_name_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "db-name" ] ~docv:"NAME"
        ~doc:"Database name clients open (default: basename of $(b,--db)).")

let max_sessions_arg =
  Arg.(
    value & opt int 64
    & info [ "max-sessions" ] ~docv:"N"
        ~doc:"Admission control: refuse connections past this many sessions \
              (SE-OVERLOADED).")

let query_timeout_arg =
  Arg.(
    value & opt float 0.
    & info [ "query-timeout" ] ~docv:"SECONDS"
        ~doc:"Per-statement wall-clock budget; 0 disables (SE-TIMEOUT).")

let repl_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "repl-port" ] ~docv:"PORT"
        ~doc:"With $(b,--serve): also ship the WAL to standbys on this \
              replication port (0 picks an ephemeral port).")

let standby_of_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "standby-of" ] ~docv:"HOST:PORT"
        ~doc:"With $(b,--serve): run as a hot standby of the primary's \
              replication endpoint.  The database is seeded and then \
              continuously applied; sessions are read-only until \
              $(b,PROMOTE) (or $(b,--promote)).")

let metrics_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:"With $(b,--serve): expose $(b,GET /metrics) (Prometheus text \
              exposition) and $(b,GET /health) (readiness probe) on this \
              port (0 picks an ephemeral port).")

let scrub_rate_arg =
  Arg.(
    value & opt int 128
    & info [ "scrub-rate" ] ~docv:"PAGES_PER_SEC"
        ~doc:"With $(b,--serve): background scrub rate in pages per second \
              (0 disables the online scrubber).  The scrubber verifies every \
              data page against its CRC sidecar and repairs confirmed-corrupt \
              pages online.")

let repair_from_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "repair-from" ] ~docv:"HOST:PORT"
        ~doc:"With $(b,--serve): a standby's replication endpoint to fetch \
              clean page copies from when a corrupt page has no committed \
              WAL after-image left (standby-assisted repair).")

let slow_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:"Slow-statement threshold in milliseconds (default 1000; also \
              $(b,SEDNA_SLOW_MS)).  The traces of statements slower than \
              this are kept for $(b,\\\\slow).")

let slow_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slow-log" ] ~docv:"FILE"
        ~doc:"Append each slow-statement record as a JSON line to this file \
              (also $(b,SEDNA_SLOW_LOG)).")

let promote_arg =
  Arg.(
    value & flag
    & info [ "promote" ]
        ~doc:"Ask the server at $(b,--host)/$(b,--port) to promote its \
              standby database ($(b,--db-name)) to primary, then exit.")

let cmd =
  let doc = "Sedna XML database shell, server and network client" in
  Cmd.v
    (Cmd.info "sedna_cli" ~doc)
    Term.(
      const main $ db_arg $ create_arg $ exec_arg $ serve_arg $ connect_arg
      $ promote_arg $ host_arg $ port_arg $ db_name_arg $ max_sessions_arg
      $ query_timeout_arg $ repl_port_arg $ standby_of_arg $ metrics_port_arg
      $ scrub_rate_arg $ repair_from_arg $ slow_ms_arg $ slow_log_arg)

let () = exit (Cmd.eval cmd)
