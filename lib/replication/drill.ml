(* Seeded fault drills with one operation history and one audit (see
   the interface for the topologies).  Each drill arms its spec,
   records every insert as an op, crashes/reopens or promotes where the
   fault lands, then audits: every acked token on some survivor, every
   survivor structurally intact, plus the topology's own named checks. *)

open Sedna_util
open Sedna_core
open Sedna_db
open Sedna_server

type result = Acked of int | Refused of string | Failed of string

type op = { client : int; seq : int; token : string; t0 : float; result : result }

type kind = Local | Pair | Chaos | Heal

type outcome = {
  spec : string; kind : kind; seed : int; history : op list;
  fired : bool; injected : int; crashes : int; reseeds : int; fenced : bool;
  repaired : int; degraded : int;
  attempted : int; acked : int; refused : int; lost : int;
  post_fence_acked : int; new_primary_acked : int; failures : string list;
}

let ok o = o.failures = []

let render o =
  let topology =
    match o.kind with
    | Local -> Printf.sprintf "local crashes %d" o.crashes
    | Pair -> Printf.sprintf "pair  reseeds %d" o.reseeds
    | Chaos ->
      Printf.sprintf "chaos seed %d post-fence %d new-primary %d%s" o.seed
        o.post_fence_acked o.new_primary_acked
        (if o.fenced then " fenced" else "")
    | Heal -> Printf.sprintf "heal  repaired %d degraded %d" o.repaired o.degraded
  in
  Printf.sprintf "%s %-28s acked %d/%d refused %d lost %d injected %d  %s%s"
    (if ok o then "PASS" else "FAIL")
    o.spec o.acked o.attempted o.refused o.lost o.injected topology
    (String.concat "" (List.map (fun f -> "\n       - " ^ f) o.failures))

(* [crash@2] dies on the second hit (the first hit's path has completed
   once), [torn@2] dies mid-write leaving a torn page/frame/copy,
   [fail@1] turns the first hit into a clean abort, and [enospc@1] into
   a real ENOSPC that must be shed without a false ack. *)
let policies = [ "crash@2"; "torn@2"; "fail@1"; "enospc@1" ]

let specs () =
  List.concat_map
    (fun site -> List.map (fun p -> site ^ ":" ^ p) policies)
    (Fault.sites ~plane:Fault.Storage ())

(* Frame-level [drop] is deliberately absent: on a blocking
   request/response protocol a vanished frame is an unbounded client
   hang, so refused accepts model loss instead. *)
let cells = [ "drop"; "delay"; "torn"; "partition" ]

let cell_spec ~seed = function
  | "drop" -> Printf.sprintf "net.accept:drop%%0.3/%d" seed
  | "delay" -> Printf.sprintf "net.recv:delay=2%%0.2/%d" seed
  | "torn" -> Printf.sprintf "net.send:torn%%0.015/%d" seed
  | "partition" -> "part:primary<->standby"
  | s -> s

(* HEAL: online scrub repair under client load, then injected ENOSPC
   and degraded mode *)
let heal_cells = [ "scrub"; "enospc" ]

let kind_of spec =
  let has prefix = String.starts_with ~prefix spec in
  if List.mem spec heal_cells then Heal
  else if List.mem spec cells || has "net." || has "part:" then Chaos
  else if has "repl." then Pair
  else Local

(* ---- the run's shared state: history + named failures --------------- *)

type run = {
  mu : Mutex.t;
  mutable ops : op list;  (* newest first *)
  mutable failures : string list;  (* newest first *)
}

let locked r f =
  Mutex.lock r.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.mu) f

let fail r fmt =
  Printf.ksprintf (fun m -> locked r (fun () -> r.failures <- m :: r.failures)) fmt

let clean r = locked r (fun () -> r.failures = [])

(* an unknown site, an action of the other plane or a malformed spec
   fails the run instead of arming nothing *)
let arm r spec =
  match Fault.arm_spec spec with
  | () -> ()
  | exception Invalid_argument m -> fail r "%s" m
  | exception Failure m -> fail r "bad spec %s: %s" spec m

(* Run one insert as op [seq] of [client] and record it.  [send] runs
   the statement and returns the port of the node that acked it.  Clean
   refusals are results; any other exception is recorded as [Failed]
   and re-raised for the workload to classify. *)
let invoke r ~client ~seq ~pad send =
  let token = Printf.sprintf "|%d:%d|" client seq in
  let t0 = Metrics.mono () in
  let finish result =
    locked r (fun () -> r.ops <- { client; seq; token; t0; result } :: r.ops);
    result
  in
  match
    send
      (Printf.sprintf {|UPDATE insert <entry>%s%s</entry> into doc("log")/log|}
         token (String.make pad 'x'))
  with
  | port -> finish (Acked port)
  | exception
      Server_client.Remote_error
        ((("SE-READ-ONLY" | "SE-FENCED" | "SE-FAILOVER" | "SE-OVERLOADED") as code), _)
    ->
    finish (Refused code)
  | exception e ->
    ignore (finish (Failed (Printexc.to_string e)));
    raise e

let exec db stmt = ignore (Session.execute (Session.connect db) stmt)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_integrity r name db =
  List.iter (fail r "%s integrity: %s" name)
    (Integrity.check_document (Database.store db) "log")

(* The audit every drill ends with.  [new_port] is the promoted
   standby's statement port and [fence] the moment the deposed primary
   was seen fenced: an ack from any other port for an op invoked after
   [fence] breaks fencing.  Returns (lost, post-fence, new-primary). *)
let audit r ~survivors ?(new_port = -1) ?(fence = infinity) () =
  let read (name, db) =
    try Session.execute_string (Session.connect db) {|string(doc("log")/log)|}
    with e ->
      fail r "read on %s failed: %s" name (Printexc.to_string e);
      ""
  in
  let texts = List.map read survivors in
  let acked =
    List.filter_map
      (fun o -> match o.result with Acked port -> Some (o, port) | _ -> None)
      (locked r (fun () -> List.rev r.ops))
  in
  let lost =
    List.filter (fun (o, _) -> not (List.exists (fun t -> contains t o.token) texts)) acked
  in
  let late = List.filter (fun (o, port) -> port <> new_port && o.t0 > fence) acked in
  List.iter (fun (o, _) -> fail r "acked entry %s missing from every survivor" o.token) lost;
  List.iter
    (fun (o, port) ->
      fail r "entry %s acked by the deposed primary (port %d) %.3fs after its fence"
        o.token port (o.t0 -. fence))
    late;
  List.iter (fun (name, db) -> check_integrity r name db) survivors;
  ( List.length lost,
    List.length late,
    List.length (List.filter (fun (_, port) -> port = new_port) acked) )

let load db name xml =
  ignore
    (Database.with_txn db (fun _ st ->
         Loader.load_string st ~doc_name:name xml))

let flip_byte db pid =
  let path = File_store.path (Buffer_mgr.store (Database.buffer db)) in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let off = (pid * Page.page_size) + 64 and b = Bytes.create 1 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1))

let injections () = Counters.get Counters.fault_injected

(* ---- the primary/standby pair ---------------------------------------- *)

(* primary and standby live in one process but behind separate
   governors, exactly as two sedna_cli server processes would be *)
type pair = {
  gov_p : Governor.t; gov_s : Governor.t; primary : Database.t;
  sender : Repl_sender.t; standby : Repl_receiver.t;
}

let start_pair ~dir db =
  let gov_p = Governor.create () and gov_s = Governor.create () in
  Governor.register_database gov_p ~name:"db" db;
  let sender = Repl_sender.start ~gov:gov_p db in
  let standby =
    Repl_receiver.start ~poll_s:0.005 ~heartbeat_timeout_s:0.5 ~gov:gov_s
      ~name:"db" ~dir:(Filename.concat dir "standby") ~host:"127.0.0.1"
      ~port:(Repl_sender.port sender) ()
  in
  { gov_p; gov_s; primary = db; sender; standby }

let caught_up_within timeout_s p =
  let wal = Database.wal p.primary in
  Repl_receiver.wait_caught_up ~timeout_s p.standby ~epoch:(Wal.epoch wal)
    ~pos:(Wal.size wal)

let caught_up = caught_up_within 10.

let stop_pair p =
  Repl_receiver.stop p.standby;
  Repl_sender.stop p.sender;
  (try Governor.shutdown p.gov_s with _ -> ());
  try Governor.shutdown p.gov_p with _ -> ()

let log_pair r ~dir =
  let db = Database.create (Filename.concat dir "primary") in
  load db "log" "<log/>";
  let p = start_pair ~dir db in
  if not (caught_up p) then fail r "standby never finished the initial seed";
  (db, p)

(* ---- local: crash, reopen, recover ------------------------------------ *)

exception Dead (* a bad spec, or reopen after a crash failed: abandon the run *)

let degraded = function
  | Error.Sedna_error (Error.Degraded, _) -> true
  | e -> Sysutil.is_resource_exhaustion e

let run_local r ~ops ~dir spec =
  let primary = Filename.concat dir "primary" in
  let backup = Filename.concat dir "backup" in
  (* 2 frames: the padded entries outgrow the pool at once, so page
     faults displace resident pages and the evict/flush sites stay hot *)
  let db = ref (Database.create ~buffer_frames:2 primary) in
  load !db "log" "<log/>";
  let crashes = ref 0 and backup_ok = ref false in
  (* simulated process death: drop everything volatile and reopen (=
     recovery).  The policy is not re-armed: the tail runs clean. *)
  let reopen () =
    Fault.disarm_all ();
    Database.crash !db;
    match Database.open_existing ~buffer_frames:2 primary with
    | fresh -> db := fresh
    | exception e ->
      fail r "reopen after crash failed: %s" (Printexc.to_string e);
      raise Dead
  in
  let guarded label f =
    match f () with
    | () -> ()
    | exception Fault.Injected_crash _ ->
      incr crashes;
      reopen ()
    | exception Fault.Injected_fault _ -> ()
    | exception e when degraded e ->
      (* an [enospc] policy degraded the node; the drill plays the
         resource coming back so the rest of the run proceeds *)
      Database.exit_degraded !db
    | exception e -> fail r "%s failed: %s" label (Printexc.to_string e)
  in
  (* keeps [store.enospc] hot: on exhaustion, mirror the watchdog
     (enter degraded) and recover at once *)
  let resource_probe () =
    match Watchdog.probe_dir ~bytes:512 primary with
    | () -> ()
    | exception e when Sysutil.is_resource_exhaustion e ->
      Database.enter_degraded !db "probe: resource exhaustion";
      Database.exit_degraded !db
  in
  (* Corrupt the disk copy of the last committed page and scrub.  The
     flip is undone whenever the repair did not land (an armed fault
     aborted the pass, or the page was dirty-resident and repair
     deferred to the flush), so recovery never runs over bytes the
     drill broke itself. *)
  let corrupt_and_scrub () =
    let last =
      List.fold_left
        (fun acc -> function Wal.Image (_, pid, _) -> Some pid | _ -> acc)
        None
        (Wal.committed (Wal.read_all (Filename.concat primary "wal.sdb")))
    in
    Option.iter
      (fun pid ->
        let still_corrupt () =
          File_store.verify_page (Buffer_mgr.store (Database.buffer !db)) pid
          = `Corrupt
        in
        flip_byte !db pid;
        Fun.protect
          ~finally:(fun () -> if still_corrupt () then flip_byte !db pid)
          (fun () -> ignore (Scrubber.run_pass (Scrubber.create !db))))
      last
  in
  arm r spec;
  (try
     if not (clean r) then raise Dead;
     for i = 1 to ops do
       guarded (Printf.sprintf "insert %d" i) (fun () ->
           ignore
             (invoke r ~client:0 ~seq:i ~pad:1500 (fun stmt ->
                  exec !db stmt;
                  0)));
       guarded "scan" (fun () ->
           ignore
             (Session.execute_string (Session.connect !db)
                {|count(doc("log")/log/entry)|}));
       guarded "resource probe" resource_probe;
       if i mod 4 = 2 then guarded "scrub" corrupt_and_scrub;
       if i mod 4 = 0 then guarded "checkpoint" (fun () -> Database.checkpoint !db);
       if i = 8 then
         guarded "backup" (fun () ->
             ignore (Backup.full !db ~dest:backup);
             backup_ok := true)
     done;
     (* every run ends in a process death, so every spec exercises
        recovery *)
     reopen ()
   with Dead -> ());
  let counts =
    if not (clean r) then ((try Database.crash !db with _ -> ()); (0, 0, 0))
    else
      let c = audit r ~survivors:[ ("recovered node", !db) ] () in
      (try Database.close !db
       with e -> fail r "final close failed: %s" (Printexc.to_string e));
      c
  in
  (* the log replay heals any page the backup copy caught mid-change *)
  if clean r && !backup_ok then begin
    match Backup.restore ~src:backup ~dest:(Filename.concat dir "restored") () with
    | rdb ->
      check_integrity r "restored backup" rdb;
      (try Database.close rdb with _ -> ())
    | exception e -> fail r "backup restore failed: %s" (Printexc.to_string e)
  end;
  (!crashes, false, counts)

(* ---- pair: replication faults cost lag, never loss -------------------- *)

let run_pair r ~ops ~dir spec =
  let reseeds0 = Counters.get Counters.repl_reseeds in
  let db, p = log_pair r ~dir in
  Fun.protect ~finally:(fun () -> stop_pair p) @@ fun () ->
  let injected0 = injections () in
  arm r spec;
  if clean r then begin
    for i = 1 to ops do
      (match
         invoke r ~client:0 ~seq:i ~pad:1500 (fun stmt ->
             Governor.with_engine p.gov_p (fun () -> exec db stmt);
             0)
       with
       | _ -> ()
       | exception e -> fail r "insert %d failed: %s" i (Printexc.to_string e));
      (* pace to shipping: otherwise the loop can finish inside one poll,
         the re-seed delivers everything wholesale, and the batch-path
         sites are never hit *)
      ignore (caught_up_within 5. p);
      if i = 5 then
        match Governor.with_engine p.gov_p (fun () -> Database.checkpoint db) with
        | () -> ()
        | exception e -> fail r "checkpoint failed: %s" (Printexc.to_string e)
    done;
    if not (caught_up_within 20. p) then begin
      let te, tp = Repl_receiver.tracked p.standby in
      let wal = Database.wal db in
      fail r "standby never caught up: tracking (%d,%d), primary at (%d,%d)" te tp
        (Wal.epoch wal) (Wal.size wal)
    end
  end;
  (* heartbeat policies trip only on idle polls, which may lag the
     workload: give the armed fault a bounded grace period *)
  let deadline = Unix.gettimeofday () +. 2.0 in
  while injections () <= injected0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Fault.disarm_all ();
  let counts =
    if not (clean r) then (0, 0, 0)
    else begin
      (try ignore (Repl_receiver.promote p.standby)
       with e -> fail r "promote failed: %s" (Printexc.to_string e));
      check_integrity r "primary" db;
      match Repl_receiver.database p.standby with
      | None ->
        fail r "no standby database after promotion";
        (0, 0, 0)
      | Some sdb -> audit r ~survivors:[ ("promoted standby", sdb) ] ()
    end
  in
  (* the initial seed counts; the mid-run checkpoint must force another *)
  if clean r && Counters.get Counters.repl_reseeds - reseeds0 < 2 then
    fail r "mid-run checkpoint did not force a re-seed";
  (0, false, counts)

(* ---- chaos: split brain under network faults --------------------------- *)

(* a failed-over client re-contacting the deposed primary: one statement
   carrying the new cluster epoch in its 'E' header fences the server *)
let gossip_epoch ~port ~epoch =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Wire.write_request fd (Wire.Open "db");
      ignore (Wire.read_response fd);
      Wire.write_request ~epoch fd (Wire.Execute "1");
      ignore (Wire.read_response fd))

let run_chaos r ~ops ~clients ~dir spec =
  let db, p = log_pair r ~dir in
  (* a worker serves one connection for its lifetime: every client AND
     the gossip probe need a seat, or the fence never propagates *)
  let config = { Server.default_config with Server.pool_size = clients + 2 } in
  let srv_p = Server.start ~config p.gov_p in
  let srv_s =
    Server.start ~config ~on_promote:(fun () -> Repl_receiver.promote p.standby) p.gov_s
  in
  let p_port = Server.port srv_p and s_port = Server.port srv_s in
  (* Corrupt one clean page for the background scrubber: the first page
     of a document no client writes (a page the inserts dirty defers
     its repair to a flush that may never come), checkpointed so reads
     keep hitting the pool frame, never the broken bytes. *)
  let scrub_pid = File_store.page_count (Buffer_mgr.store (Database.buffer db)) in
  let cold = String.concat "" (List.init 16 (fun _ -> "<c>" ^ String.make 400 'c' ^ "</c>")) in
  load db "cold" ("<cold>" ^ cold ^ "</cold>");
  Database.checkpoint db;
  flip_byte db scrub_pid;
  let scrubber =
    Scrubber.create ~pages_per_sec:500 ~lock:(Governor.with_engine p.gov_p) db
  in
  Scrubber.start scrubber;
  arm r spec;
  let endpoints = [ ("127.0.0.1", p_port); ("127.0.0.1", s_port) ] in
  (* raised once the fence is confirmed (or given up on): every tail
     write starts after the fence point *)
  let tail_go = ref false in
  let worker c () =
    match
      Server_client.connect ~endpoints ~retries:8 ~backoff_s:0.01 ~port:p_port ()
    with
    | exception e -> fail r "client %d never connected: %s" c (Printexc.to_string e)
    | cl ->
      (try ignore (Server_client.open_db cl "db")
       with e -> fail r "client %d open failed: %s" c (Printexc.to_string e));
      let one i =
        (match
           invoke r ~client:c ~seq:i ~pad:0 (fun stmt ->
               ignore (Server_client.execute cl stmt);
               snd (Server_client.endpoint cl))
         with
         | Refused _ -> Unix.sleepf 0.005
         | _ -> ()
         | exception e -> fail r "client %d op %d: %s" c i (Printexc.to_string e));
        Unix.sleepf 0.002
      in
      for i = 1 to ops do one i done;
      let d = Unix.gettimeofday () +. 30. in
      while (not !tail_go) && Unix.gettimeofday () < d do Unix.sleepf 0.01 done;
      for j = 1 to 4 do one (ops + j) done;
      (try Server_client.close cl with _ -> ())
  in
  let threads = List.init clients (fun c -> Thread.create (worker (c + 1)) ()) in
  (* mid-run: promote the standby while the primary lives *)
  let settled () =
    locked r (fun () ->
        List.length
          (List.filter (fun o -> match o.result with Failed _ -> false | _ -> true) r.ops))
  in
  let deadline = Unix.gettimeofday () +. 30. in
  while settled () < clients * ops / 2 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  (try ignore (Repl_receiver.promote p.standby)
   with e -> fail r "promote failed: %s" (Printexc.to_string e));
  Fault.heal_all ();
  let fence = ref infinity in
  (match Repl_receiver.database p.standby with
   | None -> fail r "no standby database after promotion"
   | Some sdb ->
     let epoch = Database.cluster_epoch sdb in
     if epoch <= Database.cluster_epoch db then
       fail r "promotion did not raise the cluster epoch (%d vs %d)" epoch
         (Database.cluster_epoch db);
     (* gossip may race armed accept/torn faults: keep knocking *)
     let knocks = ref 50 in
     while (not (Database.is_fenced db)) && !knocks > 0 do
       (try gossip_epoch ~port:p_port ~epoch with _ -> Unix.sleepf 0.01);
       Unix.sleepf 0.005;
       decr knocks
     done;
     let d = Unix.gettimeofday () +. 5. in
     while (not (Database.is_fenced db)) && Unix.gettimeofday () < d do
       Unix.sleepf 0.005
     done;
     if Database.is_fenced db then fence := Metrics.mono ()
     else fail r "deposed primary never fenced");
  tail_go := true;
  List.iter Thread.join threads;
  Fault.disarm_all ();
  let counts =
    match Repl_receiver.database p.standby with
    | Some sdb when clean r ->
      let ((_, _, fresh) as c) =
        audit r
          ~survivors:[ ("deposed primary", db); ("promoted standby", sdb) ]
          ~new_port:s_port ~fence:!fence ()
      in
      if fresh = 0 then fail r "no client ever acked a write on the promoted standby";
      c
    | _ -> (0, 0, 0)
  in
  let fenced = Database.is_fenced db in
  (* the page corrupted at the start must have been repaired online *)
  let repaired () =
    Governor.with_engine p.gov_p (fun () ->
        File_store.verify_page (Buffer_mgr.store (Database.buffer db)) scrub_pid
        <> `Corrupt)
  in
  let d = Unix.gettimeofday () +. 5. in
  while (not (repaired ())) && Unix.gettimeofday () < d do Unix.sleepf 0.02 done;
  if not (repaired ()) then fail r "scrubber never repaired corrupted page %d" scrub_pid;
  Scrubber.stop scrubber;
  Server.stop ~shutdown_governor:false srv_p;
  Server.stop ~shutdown_governor:false srv_s;
  stop_pair p;
  (0, fenced, counts)

(* ---- heal: scrub repair under load, then degraded mode -------------- *)

(* Corrupt two clean pages behind the buffer pool while clients write
   the log and read it, and let the online scrubber repair them: one
   from a committed WAL after-image, one whose after-image a checkpoint
   already truncated away, so only the hot standby can supply it
   (Wire.Page_request).  No client may ever see the corruption. *)
let run_scrub r ~ops ~clients ~dir =
  (* small pool: the victims must be evicted (absent) when corrupted,
     so their repair cannot come from a resident frame *)
  let db = Database.create ~buffer_frames:16 (Filename.concat dir "primary") in
  List.iter (fun name -> load db name ("<" ^ name ^ "/>")) [ "cold"; "warm"; "log" ];
  let fill name n =
    for i = 1 to n do
      exec db
        (Printf.sprintf {|UPDATE insert <e i="%d">%s</e> into doc("%s")/%s|} i
           (String.make 1000 'x') name name)
    done
  in
  let cold_n = 3 * ops and warm_n = 40 in
  fill "cold" cold_n;
  (* flush everything and truncate the WAL: the cold pages now have no
     after-image left — only the standby can repair them *)
  Database.checkpoint db;
  (* warm stays at 40 in every mode: it must overflow the 16-frame pool
     so at least one warm page is evicted (absent) while its after-image
     is still in the WAL — that page is the WAL-repair victim *)
  fill "warm" warm_n;
  let p = start_pair ~dir db in
  Fun.protect ~finally:(fun () -> stop_pair p) @@ fun () ->
  if not (caught_up p) then fail r "standby never caught up";
  let page_srv =
    Repl_sender.start_source ~gov:p.gov_s (fun () -> Repl_receiver.database p.standby)
  in
  Fun.protect ~finally:(fun () -> Repl_sender.stop page_srv) @@ fun () ->
  (* make the log resident first: every page the clients touch is then
     in the pool, so the victims are cold/warm pages no client query
     faults in before the scrubber heals them *)
  exec db {|count(doc("log")/log)|};
  let fs = Buffer_mgr.store (Database.buffer db) in
  let wal_pids = Hashtbl.create 32 in
  List.iter
    (function Wal.Image (_, pid, _) -> Hashtbl.replace wal_pids pid () | _ -> ())
    (Wal.committed (Wal.read_all (Filename.concat (Database.directory db) "wal.sdb")));
  let npages = File_store.page_count fs in
  let pick wal =
    let rec go pid =
      if pid >= npages then None
      else if
        Buffer_mgr.residency (Database.buffer db) pid = `Absent
        && Hashtbl.mem wal_pids pid = wal
      then Some pid
      else go (pid + 1)
    in
    go 0
  in
  let victims = Governor.with_engine p.gov_p (fun () -> [ pick true; pick false ]) in
  let wal0 = Counters.get Counters.scrub_repaired_wal
  and sb0 = Counters.get Counters.scrub_repaired_standby in
  let victims =
    match victims with
    | [ Some a; Some b ] ->
      flip_byte db a;
      flip_byte db b;
      [ a; b ]
    | _ ->
      fail r "no victim pages found";
      []
  in
  let scrubber =
    Scrubber.create ~pages_per_sec:2000
      ~fetch:
        (Repl_client.page_fetcher ~host:"127.0.0.1" ~port:(Repl_sender.port page_srv) db)
      ~lock:(Governor.with_engine p.gov_p) db
  in
  Scrubber.start scrubber;
  let config = { Server.default_config with Server.pool_size = clients + 2 } in
  let srv = Server.start ~config p.gov_p in
  Fun.protect ~finally:(fun () -> Server.stop ~shutdown_governor:false srv) @@ fun () ->
  let port = Server.port srv in
  (* client 0 writes the log, the others read it *)
  let client c () =
    match Server_client.connect ~port () with
    | exception e -> fail r "client %d never connected: %s" c (Printexc.to_string e)
    | cl ->
      (try ignore (Server_client.open_db cl "db")
       with e -> fail r "client %d open failed: %s" c (Printexc.to_string e));
      for i = 1 to ops do
        try
          if c > 0 then ignore (Server_client.execute cl {|count(doc("log")/log/entry)|})
          else
            match
              invoke r ~client:c ~seq:i ~pad:0 (fun stmt ->
                  ignore (Server_client.execute cl stmt);
                  port)
            with
            | Acked _ -> ()
            | Refused m | Failed m -> fail r "client %d op %d refused: %s" c i m
        with e -> fail r "client %d op %d failed: %s" c i (Printexc.to_string e)
      done;
      (try Server_client.close cl with _ -> ())
  in
  List.iter Thread.join (List.init clients (fun c -> Thread.create (client c) ()));
  let repaired () =
    Counters.get Counters.scrub_repaired_wal > wal0
    && Counters.get Counters.scrub_repaired_standby > sb0
  in
  let deadline = Unix.gettimeofday () +. 15. in
  while (not (repaired ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  Scrubber.stop scrubber;
  if not (repaired ()) then
    fail r "scrubber never repaired both victims (wal %d->%d, standby %d->%d)" wal0
      (Counters.get Counters.scrub_repaired_wal)
      sb0
      (Counters.get Counters.scrub_repaired_standby);
  List.iter
    (fun pid ->
      if Governor.with_engine p.gov_p (fun () -> File_store.verify_page fs pid) = `Corrupt
      then fail r "page %d still corrupt after scrub" pid)
    victims;
  (* full scans fault every repaired page back in: they must be readable *)
  List.iter
    (fun (name, n) ->
      let seen =
        Session.execute_string (Session.connect db)
          (Printf.sprintf {|count(doc("%s")/%s/e)|} name name)
      in
      if seen <> string_of_int n then
        fail r "%s scan after repair: %s entries, want %d" name seen n)
    [ ("cold", cold_n); ("warm", warm_n) ];
  audit r ~survivors:[ ("primary", db) ] ()

(* Injected resource exhaustion, first at the watchdog's probe and then
   at the group-commit fsync itself, must flip the node into
   SE-DEGRADED write shedding — honest refusals, never a false ack,
   reads keep working — and the watchdog's hysteresis must recover it
   without a restart. *)
let run_enospc r ~dir =
  let db, p = log_pair r ~dir in
  Fun.protect ~finally:(fun () -> stop_pair p) @@ fun () ->
  let srv = Server.start p.gov_p in
  Fun.protect ~finally:(fun () -> Server.stop ~shutdown_governor:false srv) @@ fun () ->
  let wd =
    Watchdog.start ~interval_s:0.05 ~recover_after:2
      ~dir:(Filename.concat dir "primary")
      ~get_db:(fun () -> Some db)
      ()
  in
  Fun.protect ~finally:(fun () -> Watchdog.stop wd) @@ fun () ->
  let port = Server.port srv in
  let cl = Server_client.connect ~port () in
  ignore (Server_client.open_db cl "db");
  let wait_for what cond =
    let d = Unix.gettimeofday () +. 5. in
    while (not (cond ())) && Unix.gettimeofday () < d do Unix.sleepf 0.01 done;
    if not (cond ()) then fail r "timeout waiting for %s" what
  in
  let seq = ref 0 in
  let write what ~acked =
    incr seq;
    match
      invoke r ~client:0 ~seq:!seq ~pad:0 (fun stmt ->
          ignore (Server_client.execute cl stmt);
          port)
    with
    | Acked _ when acked -> ()
    | Acked _ -> fail r "%s: acked, wanted SE-DEGRADED" what
    | Refused m | Failed m -> fail r "%s: %s" what m
    (* the shed write stays in the history as [Failed]: only acked ops
       are audited *)
    | exception Server_client.Remote_error ("SE-DEGRADED", _) when not acked -> ()
    | exception e -> fail r "%s: %s" what (Printexc.to_string e)
  in
  (* disk full at the probe: degraded; writes shed, reads keep working *)
  arm r "store.enospc:enospc@1";
  wait_for "degraded mode (probe ENOSPC)" (fun () -> Database.is_degraded db);
  write "write while degraded" ~acked:false;
  (match Server_client.execute cl {|count(doc("log")/log/entry)|} with
   | _ -> ()
   | exception e -> fail r "read while degraded failed: %s" (Printexc.to_string e));
  wait_for "auto-recovery" (fun () -> not (Database.is_degraded db));
  write "write after recovery" ~acked:true;
  (* disk full at the group-commit fsync itself: the parked commit must
     fail — never a false ack — and the node degrade again *)
  arm r "wal.group_sync:enospc@1";
  write "commit across a failed group fsync" ~acked:false;
  wait_for "second auto-recovery" (fun () -> not (Database.is_degraded db));
  write "write after second recovery" ~acked:true;
  (* a shed write leaves no trace: the log holds the two acked entries *)
  let n = Server_client.execute_string cl {|count(doc("log")/log/entry)|} in
  if n <> "2" then fail r "log holds %s entries after the drill, want the 2 acked" n;
  (try Server_client.close cl with _ -> ());
  audit r ~survivors:[ ("primary", db) ] ()

(* ---- one entry point ---------------------------------------------------- *)

let run ?(ops = 12) ?(clients = 4) ?(seed = 1) ~dir spec =
  let reset () = Fault.disarm_all (); Sysutil.rm_rf dir in
  reset ();
  Unix.mkdir dir 0o755;
  let kind = kind_of spec in
  let spec = if kind = Chaos then cell_spec ~seed spec else spec in
  let r = { mu = Mutex.create (); ops = []; failures = [] } in
  let repairs () =
    Counters.(get scrub_repaired_pool + get scrub_repaired_wal + get scrub_repaired_standby)
  in
  let injected0 = injections () and reseeds0 = Counters.get Counters.repl_reseeds
  and repaired0 = repairs () and degraded0 = Counters.get Counters.degraded_entered in
  let crashes, fenced, (lost, post, fresh) =
    match kind with
    | Local -> run_local r ~ops ~dir spec
    | Pair -> run_pair r ~ops ~dir spec
    | Chaos -> run_chaos r ~ops ~clients ~dir spec
    | Heal when spec = "scrub" -> (0, false, run_scrub r ~ops ~clients ~dir)
    | Heal -> (0, false, run_enospc r ~dir)
  in
  reset ();
  let history = List.rev r.ops in
  let count p = List.length (List.filter (fun o -> p o.result) history) in
  let injected = injections () - injected0 in
  { spec; kind; seed; history; fired = injected > 0; injected; crashes;
    reseeds = Counters.get Counters.repl_reseeds - reseeds0; fenced;
    repaired = repairs () - repaired0;
    degraded = Counters.get Counters.degraded_entered - degraded0;
    attempted = List.length history;
    acked = count (function Acked _ -> true | _ -> false);
    refused = count (function Refused _ -> true | _ -> false);
    lost; post_fence_acked = post; new_primary_acked = fresh;
    failures = List.rev r.failures }
