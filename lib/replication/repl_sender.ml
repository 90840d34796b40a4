(* Primary side of WAL-shipping replication: a listener on a dedicated
   replication port, one serving thread per attached standby.

   The protocol is pull-based and the standby drives it: each Pull
   names the (epoch, position) the standby wants next, which doubles as
   the acknowledgement of everything before it — the sender keeps no
   per-standby durable state at all.  Three replies are possible:

     Batch      raw checksum-valid WAL frames from that position
     Heartbeat  nothing new yet (also proves the primary is alive)
     Hole       the position is gone — a checkpoint truncated the log
                and bumped its epoch; the standby must re-seed

   Re-seeding ships a full hot backup over the same connection
   (Seed_file per file, then Seed_done with the (epoch, position)
   streaming resumes from).  The resume position is the exact end of
   the shipped log — see {!serve_seed}.

   Reading the live WAL file concurrently with appends is safe without
   the engine lock: only whole checksum-valid frames are shipped, so a
   frame mid-append is simply not included yet (same reasoning as the
   torn-tail rule at recovery). *)

open Sedna_util
open Sedna_core
open Sedna_db
open Sedna_server

(* fault-injection sites: a fired policy severs the replication
   connection; the standby reconnects and resumes from its acked
   position, so the only effect is added lag *)
let send_site = Fault.site "repl.send"
let heartbeat_site = Fault.site "repl.heartbeat"

type t = {
  gov : Governor.t;
  (* resolved per request: a CLI standby only has a database once its
     seed completes, yet must accept page-repair connections from boot *)
  source : unit -> Database.t option;
  listen_fd : Unix.file_descr;
  bound_port : int;
  mutable stopping : bool;
  mutable listener : Thread.t option;
  mutable serving : Thread.t list;
  conns : (int, Unix.file_descr) Hashtbl.t;
  mu : Mutex.t;
  mutable next_conn : int;
}

let port t = t.bound_port

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  data

(* Ship a transaction-consistent full backup.

   The resume position is the exact end of the shipped log: Backup.full
   copies the log under the WAL writer cursor ({!Wal.fixate}), so no
   frame sits on both sides of it.  A log copy that ran past the
   position would be replayed on open and then pulled and applied again
   (a transaction applied twice); one that stopped short would lose
   the frames in between forever.  A seed position can still fall
   inside a transaction (its Begin shipped, its images not yet): the
   receiver opens the pending entry on the first image for that.  A
   checkpoint truncating the log between the data-file copy and the
   log copy would pair old data with a new log; the epoch re-check
   catches that and retries. *)
let serve_seed t db conn_id fd =
  Logs.info (fun m -> m "replication sender: seeding standby (conn %d)" conn_id);
  let tmp = Database.directory db ^ Printf.sprintf ".seed%d" conn_id in
  let rec consistent_backup attempts =
    Sysutil.rm_rf tmp;
    let epoch0 = Wal.epoch (Database.wal db) in
    let ((epoch, _) as tip) =
      Governor.with_engine t.gov (fun () -> Backup.full db ~dest:tmp)
    in
    if epoch = epoch0 && Wal.epoch (Database.wal db) = epoch then tip
    else if attempts <= 1 then
      Error.raise_error Error.Recovery_failure
        "seed backup kept racing checkpoint log truncations; giving up"
    else consistent_backup (attempts - 1)
  in
  let epoch, pos = consistent_backup 5 in
  Fun.protect
    ~finally:(fun () -> Sysutil.rm_rf tmp)
    (fun () ->
      List.iter
        (fun name ->
          let p = Filename.concat tmp name in
          if Sys.file_exists p then
            Wire.write_repl_response fd (Wire.Seed_file { name; data = read_file p }))
        [ "data.sdb"; "wal.sdb"; "catalog.sdb" ];
      Wire.write_repl_response fd
        (Wire.Seed_done { cluster = Database.cluster_epoch db; epoch; pos }))

let serve_pull db fd ~cluster ~epoch ~pos ~max_bytes =
  (* Fencing gate: a pull carrying a higher cluster epoch means the
     standby (or whoever re-seeded it) was promoted past us.  Demote
     before serving anything, and tell the puller the link is dead —
     a deposed primary must never ship WAL as if it were current. *)
  Database.observe_epoch db cluster;
  if cluster > 0 && Database.is_fenced db then begin
    Counters.bump Counters.fence_rejected_pulls;
    Wire.write_repl_response fd
      (Wire.Fenced { cluster = Database.cluster_epoch db })
  end
  else begin
  let my_cluster = Database.cluster_epoch db in
  let wal = Database.wal db in
  let cur_epoch = Wal.epoch wal in
  let tip = Wal.size wal in
  if epoch <> cur_epoch || pos > tip then
    Wire.write_repl_response fd
      (Wire.Hole { cluster = my_cluster; epoch = cur_epoch })
  else begin
    let max_bytes = max 1 (min max_bytes (Wire.max_frame / 2)) in
    (* bounded by [tip]: the file may already hold a frame whose append
       has not yet counted it, and shipping it would let the standby's
       next pull read as past the log (a Hole, and a needless re-seed) *)
    let frames, count, next_pos =
      Wal.stream_from ~upto:tip (Wal.path wal) ~pos ~max_bytes
    in
    if Wal.epoch wal <> cur_epoch then
      (* a checkpoint truncated the log while we were reading it *)
      Wire.write_repl_response fd
        (Wire.Hole { cluster = my_cluster; epoch = Wal.epoch wal })
    else if count = 0 then begin
      Fault.check heartbeat_site;
      Counters.bump Counters.repl_heartbeats;
      Wire.write_repl_response fd
        (Wire.Heartbeat { cluster = my_cluster; epoch = cur_epoch; pos = Wal.size wal })
    end
    else begin
      Fault.check send_site;
      Counters.bump ~n:(String.length frames) Counters.repl_bytes_shipped;
      Counters.bump ~n:count Counters.repl_records_shipped;
      (* forward the trace marks of the commits this batch completes,
         so the standby's apply spans join the statements' traces *)
      let marks =
        List.map
          (fun (mk_pos, mk_trace, mk_span) -> { Wire.mk_pos; mk_trace; mk_span })
          (Wal.marks_between wal ~lo:pos ~hi:next_pos)
      in
      Wire.write_repl_response fd
        (Wire.Batch { cluster = my_cluster; epoch = cur_epoch; next_pos; frames; marks })
    end;
    (* the pull position acknowledges everything before it *)
    Counters.set Counters.repl_acked_pos pos;
    Counters.set Counters.repl_lag_bytes (max 0 (Wal.size wal - pos))
  end
  end

(* Serve one page to a peer's scrubber.  Same fencing gate as pulls: a
   deposed node must never hand out pages as if it were current.  The
   image is read under the engine lock from the pool (hitting the
   buffer here is fine — the serving node is a standby or an idle
   primary, and one page per repair is not a hot-set threat). *)
let serve_page t db fd ~cluster ~pid =
  Database.observe_epoch db cluster;
  let my_cluster = Database.cluster_epoch db in
  if cluster > 0 && (not (Database.is_standby db)) && Database.is_fenced db
  then begin
    Counters.bump Counters.fence_rejected_pulls;
    Wire.write_repl_response fd (Wire.Fenced { cluster = my_cluster })
  end
  else begin
    let page =
      try
        Governor.with_engine t.gov (fun () ->
            let bm = Database.buffer db in
            if pid >= 0 && pid < File_store.page_count (Buffer_mgr.store bm)
            then Some (Bytes.to_string (Buffer_mgr.page_image bm pid))
            else None)
      with _ -> None (* corrupt here too, or out of range: can't help *)
    in
    if page <> None then Counters.bump Counters.repl_pages_served;
    Wire.write_repl_response fd (Wire.Page_reply { cluster = my_cluster; pid; page })
  end

let serve_conn t conn_id fd =
  let rec loop () =
    if not t.stopping then begin
      (match (Wire.read_repl_request fd, t.source ()) with
       | _, None ->
         (* no database yet (standby waiting on its seed): nothing to
            serve on this connection *)
         raise End_of_file
       | Wire.Pull { cluster; epoch; pos; max_bytes }, Some db ->
         serve_pull db fd ~cluster ~epoch ~pos ~max_bytes
       | Wire.Seed_request, Some db -> serve_seed t db conn_id fd
       | Wire.Page_request { cluster; pid }, Some db ->
         serve_page t db fd ~cluster ~pid);
      loop ()
    end
  in
  (try loop () with
   | End_of_file | Unix.Unix_error _ | Wire.Protocol_error _
   | Wire.Disconnected _ -> ()
   | Fault.Injected_fault _ | Fault.Injected_crash _ ->
     (* an injected replication fault costs the connection, nothing
        more: the standby reconnects and re-pulls from its acked
        position *)
     ());
  Mutex.lock t.mu;
  Hashtbl.remove t.conns conn_id;
  Mutex.unlock t.mu;
  Fault.unregister fd;
  try Unix.close fd with _ -> ()

let listener_main t () =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _addr when not (Fault.on_accept fd ~local:"primary" ~peer:"standby") ->
      (try Unix.close fd with _ -> ());
      loop ()
    | fd, _addr ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Mutex.lock t.mu;
      let id = t.next_conn in
      t.next_conn <- id + 1;
      Hashtbl.replace t.conns id fd;
      let th = Thread.create (fun () -> serve_conn t id fd) () in
      t.serving <- th :: t.serving;
      Mutex.unlock t.mu;
      loop ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
      when t.stopping ->
      ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let start_source ?(host = "127.0.0.1") ?(port = 0) ~gov
    (source : unit -> Database.t option) : t =
  (* a standby tearing down mid-stream must surface as EPIPE on our
     write, not as a process-killing signal; the TCP server does the
     same, but replication can run without one (embedded, tests) *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let addr = Unix.inet_addr_of_string host in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (addr, port));
  Unix.listen listen_fd 8;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t =
    {
      gov;
      source;
      listen_fd;
      bound_port;
      stopping = false;
      listener = None;
      serving = [];
      conns = Hashtbl.create 4;
      mu = Mutex.create ();
      next_conn = 1;
    }
  in
  t.listener <- Some (Thread.create (listener_main t) ());
  Logs.info (fun m -> m "replication sender listening on %s:%d" host bound_port);
  t

let start ?host ?port ~gov (db : Database.t) : t =
  start_source ?host ?port ~gov (fun () -> Some db)

let standby_count t =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.conns in
  Mutex.unlock t.mu;
  n

let stop t =
  if not t.stopping then begin
    t.stopping <- true;
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with _ -> ());
    (* poke the listener out of accept(2) *)
    (try
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", t.bound_port))
        with _ -> ());
       Unix.close fd
     with _ -> ());
    (match t.listener with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with _ -> ());
    Mutex.lock t.mu;
    let fds = Hashtbl.fold (fun _ fd acc -> fd :: acc) t.conns [] in
    let serving = t.serving in
    t.serving <- [];
    Mutex.unlock t.mu;
    List.iter
      (fun fd ->
        Fault.interrupt fd;
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
      fds;
    List.iter Thread.join serving
  end
