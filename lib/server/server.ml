(* The serving layer (paper §3: governor / listener / per-session trn
   processes — here a listener thread plus a bounded worker pool inside
   one process).

   A listener thread accepts TCP connections and hands each one to a
   worker through a bounded queue; admission control refuses work at
   two gates with a clean SE-OVERLOADED: the queue itself (depth
   backpressure, checked at accept) and the governor's session limit
   (checked at Open).  Workers speak the {!Wire} protocol and drive an
   ordinary {!Sedna_db.Session}.

   Concurrency model: engine access is serialized by the governor's
   coarse store lock, taken per *statement* — never held across an
   idle transaction.  An uncommitted writer therefore keeps its S2PL
   document locks between statements but not the store lock, so
   snapshot readers (which take no document locks at all) run and
   finish while the writer is still open: the paper's §6.3 claim across
   real connections.  Query results are materialized under the lock
   but streamed to clients in fetch-batches without it.

   Graceful shutdown drains: the listener stops accepting, queued but
   unstarted connections are refused with SE-SHUTDOWN, in-flight
   statements run to completion and deliver their responses, and only
   then are the databases checkpointed and their WALs closed. *)

open Sedna_util
open Sedna_db

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  pool_size : int;  (** worker threads *)
  max_queue : int;  (** accepted-but-unserved connections before SE-OVERLOADED *)
  fetch_chunk : int;  (** default fetch-batch size in bytes *)
}

let default_config =
  { host = "127.0.0.1"; port = 0; pool_size = 4; max_queue = 16; fetch_chunk = 64 * 1024 }

type t = {
  gov : Governor.t;
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  (* accepted fd + monotonic enqueue time, so the worker that picks the
     connection up can report its accept-queue wait as a span *)
  queue : (Unix.file_descr * float) Queue.t;
  qmu : Mutex.t;
  qcond : Condition.t;
  mutable draining : bool;
  mutable killed : bool; (* hard stop: skip the graceful disconnects *)
  mutable listener : Thread.t option;
  mutable workers : Thread.t list;
  (* conn id -> fd of connections currently owned by a worker, so stop
     can wake the ones idling in a read *)
  active : (int, Unix.file_descr) Hashtbl.t;
  amu : Mutex.t;
  mutable next_conn : int;
  (* PROMOTE handler, set when this server fronts a hot standby *)
  on_promote : (unit -> string) option;
}

let port t = t.bound_port
let is_draining t = t.draining

(* Per-connection worker state. *)
type conn = {
  fd : Unix.file_descr;
  conn_id : int;
  mutable gov_id : int option;
  mutable session : Session.t option;
  mutable pending : string;  (* materialized query result awaiting fetches *)
  mutable sent : int;  (* bytes of [pending] already delivered *)
  queue_wait_s : float;  (* time spent in the accept queue *)
  mutable queue_wait_reported : bool;  (* span emitted on first traced request *)
}

(* Every response is stamped with the session database's cluster epoch
   ('E' header), so fencing epochs gossip to clients on traffic they
   already exchange; the client folds them into later requests. *)
let send conn resp =
  let epoch =
    match conn.session with
    | Some s ->
      let e = Sedna_core.Database.cluster_epoch (Session.database s) in
      if e > 0 then Some e else None
    | None -> None
  in
  Wire.write_response ?epoch conn.fd resp

let err_of_exn = function
  | Error.Sedna_error (code, msg) ->
    Wire.Err { code = Error.code_name code; msg }
  | Wire.Protocol_error msg -> Wire.Err { code = "SE-PROTOCOL"; msg }
  | e -> Wire.Err { code = "SE-INTERNAL"; msg = Printexc.to_string e }

let reject fd ~code ~msg =
  Counters.bump Counters.conn_rejected;
  (try Wire.write_response fd (Wire.Err { code; msg }) with _ -> ());
  Fault.unregister fd;
  try Unix.close fd with _ -> ()

(* ---- statement handling ---------------------------------------------- *)

(* Transaction control comes over the wire as plain statements, so an
   uncommitted transaction can span many request/response round trips
   (which is what the §6.3 cross-connection tests exercise). *)
let txn_control (s : Session.t) (text : string) : string option =
  match String.lowercase_ascii (String.trim text) with
  | "begin" ->
    Session.begin_txn s;
    Some "transaction started"
  | "begin read only" ->
    Session.begin_txn ~read_only:true s;
    Some "read-only transaction started"
  | "commit" ->
    Session.commit s;
    Some "committed"
  | "rollback" ->
    Session.rollback s;
    Some "rolled back"
  | _ -> None

let run_execute t cx (s : Session.t) (text : string) : Wire.response * string option =
  (* one statement inside the store lock; the per-query wall-clock
     budget is armed only for the locked section.  The request's span
     context becomes ambient only inside the locked section — the same
     single-statement ownership rule the Deadline cell relies on —
     and "engine.wait" measures the admission wait for that lock. *)
  let wait_sp = Option.map (fun c -> Span.start c "engine.wait") cx in
  let result =
    Governor.with_engine t.gov (fun () ->
        (match (cx, wait_sp) with
         | Some c, Some sp -> Span.finish c sp
         | _ -> ());
        Span.with_current cx (fun () ->
            let timeout = (Governor.limits t.gov).Governor.query_timeout_s in
            if timeout > 0. then Deadline.set timeout;
            Fun.protect
              ~finally:(fun () -> Deadline.clear ())
              (fun () ->
                match txn_control s text with
                | Some msg -> Session.Message msg
                | None -> Session.execute s text)))
  in
  match result with
  | Session.Items body -> (Wire.Result_ready (String.length body), Some body)
  | Session.Updated n -> (Wire.Updated n, None)
  | Session.Message m -> (Wire.Message m, None)

let handle_request t (conn : conn) cx (req : Wire.request) : bool (* keep going *) =
  Counters.bump Counters.server_requests;
  match req with
  | Wire.Open database -> (
    match conn.session with
    | Some _ ->
      send conn (Wire.Err { code = "SE-PROTOCOL"; msg = "session already open" });
      true
    | None -> (
      match Governor.connect t.gov ~database with
      | gid, s ->
        conn.gov_id <- Some gid;
        conn.session <- Some s;
        send conn (Wire.Opened (Session.id s));
        true
      | exception e ->
        send conn (err_of_exn e);
        true))
  | Wire.Execute text when String.uppercase_ascii (String.trim text) = "PROMOTE" ->
    (* promotion is handled OUTSIDE the engine lock: it must join the
       replication pull thread, which itself takes the engine lock for
       each transaction it installs — going through [run_execute] here
       would deadlock *)
    (match t.on_promote with
     | None ->
       send conn
         (Wire.Err
            {
              code = "SE-UNSUPPORTED";
              msg = "this server is not a standby: nothing to promote";
            })
     | Some promote -> (
       match promote () with
       | msg -> send conn (Wire.Message msg)
       | exception e -> send conn (err_of_exn e)));
    true
  | Wire.Execute text -> (
    match (conn.session, conn.gov_id) with
    | None, _ ->
      send conn (Wire.Err { code = "SE-PROTOCOL"; msg = "no open session" });
      true
    | Some _, Some gid when not (Governor.is_connected t.gov gid) ->
      (* the governor dropped this session (a standby re-seed abandoned
         its database, rolling back its transaction): drop the
         connection unanswered, so the client reconnects and re-opens
         a session on the current database *)
      false
    | Some s, _ ->
      (match run_execute t cx s text with
       | resp, body ->
         conn.pending <- Option.value body ~default:"";
         conn.sent <- 0;
         send conn resp
       | exception e ->
         conn.pending <- "";
         conn.sent <- 0;
         send conn (err_of_exn e));
      true)
  | Wire.Fetch max_bytes ->
    (* stream the materialized result without the store lock *)
    let max_bytes =
      if max_bytes <= 0 then t.cfg.fetch_chunk else min max_bytes (Wire.max_frame / 2)
    in
    let remaining = String.length conn.pending - conn.sent in
    let n = min max_bytes remaining in
    let data = String.sub conn.pending conn.sent n in
    conn.sent <- conn.sent + n;
    let last = conn.sent >= String.length conn.pending in
    if last then begin
      conn.pending <- "";
      conn.sent <- 0
    end;
    send conn (Wire.Chunk { last; data });
    true
  | Wire.Close ->
    (* deregister before replying: a client that saw Bye must be able
       to count on its session slot being free (admission control) *)
    (match conn.gov_id with
     | Some gid ->
       (try Governor.disconnect t.gov gid with _ -> ());
       conn.gov_id <- None;
       conn.session <- None
     | None -> ());
    send conn Wire.Bye;
    false

let close_conn t (conn : conn) =
  Mutex.lock t.amu;
  Hashtbl.remove t.active conn.conn_id;
  Mutex.unlock t.amu;
  (* rolls back any open transaction; takes the store lock itself.  A
     killed server skips this: a SIGKILLed process would not have
     written abort records either, and recovery handles the rest *)
  (match conn.gov_id with
   | Some gid when not t.killed -> (
     try Governor.disconnect t.gov gid with _ -> ())
   | _ -> ());
  Fault.unregister conn.fd;
  try Unix.close conn.fd with _ -> ()

(* One traced request: rebuild the client's span context, surface the
   accept-queue wait (once per connection, under the client's request
   span so it sorts before any server work), wrap the request in a
   server-side span and publish the lot when the response is out. *)
let handle_traced t (conn : conn) trace_hdr (req : Wire.request) : bool =
  match
    if Span.is_enabled () then Option.bind trace_hdr Span.parse_wire else None
  with
  | None -> handle_request t conn None req
  | Some (trace, parent) -> (
    (* charge the accept-queue wait to the first traced *statement*:
       that is the trace a user pulls up, and the open handshake's
       trace would otherwise swallow it *)
    (match req with
     | Wire.Execute _ when not conn.queue_wait_reported ->
       conn.queue_wait_reported <- true;
       Span.emit_remote ~trace ~parent ~name:"queue.wait" ~dur:conn.queue_wait_s
         [ ("conn", Metrics.Int conn.conn_id) ]
     | _ -> ());
    match Span.make ~trace ~parent () with
    | None -> handle_request t conn None req
    | Some cx ->
      let name =
        match req with
        | Wire.Open _ -> "server.open"
        | Wire.Execute _ -> "server.execute"
        | Wire.Fetch _ -> "server.fetch"
        | Wire.Close -> "server.close"
      in
      let sp = Span.start cx name in
      Fun.protect
        ~finally:(fun () ->
          Span.finish cx sp;
          Span.publish cx)
        (fun () -> handle_request t conn (Some cx) req))

let handle_conn t fd queue_wait_s =
  let conn_id =
    Mutex.lock t.amu;
    let id = t.next_conn in
    t.next_conn <- id + 1;
    Hashtbl.replace t.active id fd;
    Mutex.unlock t.amu;
    id
  in
  let conn =
    {
      fd;
      conn_id;
      gov_id = None;
      session = None;
      pending = "";
      sent = 0;
      queue_wait_s;
      queue_wait_reported = false;
    }
  in
  let rec loop () =
    match Wire.read_request fd with
    | trace_hdr, epoch_hdr, req ->
      (* a client relaying a higher cluster epoch fences us before the
         request runs: its write must not be acked past the fence *)
      (match (epoch_hdr, conn.session) with
       | Some e, Some s -> Sedna_core.Database.observe_epoch (Session.database s) e
       | _ -> ());
      let keep = try handle_traced t conn trace_hdr req with _ -> false in
      (* a drain lets the in-flight request finish and deliver its
         response, then ends the connection *)
      if keep && not t.draining then loop ()
    | exception (End_of_file | Unix.Unix_error _ | Wire.Disconnected _) -> ()
    | exception Wire.Protocol_error msg ->
      (try send conn (Wire.Err { code = "SE-PROTOCOL"; msg }) with _ -> ())
  in
  Fun.protect ~finally:(fun () -> close_conn t conn) loop

(* ---- threads --------------------------------------------------------- *)

let worker_main t () =
  let rec next () =
    Mutex.lock t.qmu;
    while Queue.is_empty t.queue && not t.draining do
      Condition.wait t.qcond t.qmu
    done;
    let job = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
    Mutex.unlock t.qmu;
    match job with
    | None -> () (* draining and nothing queued: worker retires *)
    | Some (fd, enqueued_at) ->
      if t.draining then
        (* accepted but never started: refuse rather than run work the
           shutdown would have to wait arbitrarily long for *)
        reject fd ~code:"SE-SHUTDOWN" ~msg:"server shutting down"
      else begin
        Counters.bump Counters.conn_accepted;
        handle_conn t fd (Metrics.mono () -. enqueued_at)
      end;
      next ()
  in
  next ()

let listener_main t () =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _addr when not (Fault.on_accept fd ~local:"server" ~peer:"client") ->
      (* injected accept fault: the SYN never completed *)
      (try Unix.close fd with _ -> ());
      loop ()
    | fd, _addr ->
      let decision =
        Mutex.lock t.qmu;
        let d =
          if t.draining then `Shutdown
          else if Queue.length t.queue >= t.cfg.max_queue then `Overloaded
          else begin
            Queue.push (fd, Metrics.mono ()) t.queue;
            Condition.signal t.qcond;
            `Queued
          end
        in
        Mutex.unlock t.qmu;
        d
      in
      (match decision with
       | `Queued -> ()
       | `Overloaded ->
         reject fd ~code:"SE-OVERLOADED"
           ~msg:
             (Printf.sprintf "connection queue full (%d waiting)" t.cfg.max_queue)
       | `Shutdown ->
         reject fd ~code:"SE-SHUTDOWN" ~msg:"server shutting down");
      loop ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
      when t.draining ->
      () (* stop() closed the listen socket *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

(* ---- lifecycle ------------------------------------------------------- *)

(* a peer that disappears mid-write must surface as EPIPE on the
   write, not kill the whole process *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let start ?(config = default_config) ?on_promote (gov : Governor.t) : t =
  ignore_sigpipe ();
  let addr = Unix.inet_addr_of_string config.host in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (addr, config.port));
  Unix.listen listen_fd (max 8 config.max_queue);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let t =
    {
      gov;
      cfg = config;
      listen_fd;
      bound_port;
      queue = Queue.create ();
      qmu = Mutex.create ();
      qcond = Condition.create ();
      draining = false;
      killed = false;
      listener = None;
      workers = [];
      active = Hashtbl.create 16;
      amu = Mutex.create ();
      next_conn = 1;
      on_promote;
    }
  in
  t.workers <- List.init (max 1 config.pool_size) (fun _ -> Thread.create (worker_main t) ());
  t.listener <- Some (Thread.create (listener_main t) ());
  Logs.info (fun m -> m "server listening on %s:%d" config.host bound_port);
  t

let stop ?(shutdown_governor = true) t =
  Mutex.lock t.qmu;
  let was_draining = t.draining in
  t.draining <- true;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qmu;
  if not was_draining then begin
    Logs.info (fun m -> m "server draining");
    (* wake the listener out of accept(2) *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with _ -> ());
    (try
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_of_string t.cfg.host, t.bound_port))
        with _ -> ());
       Unix.close fd
     with _ -> ());
    (match t.listener with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with _ -> ());
    (* wake connections idling in a read; their in-flight statements
       (if any) complete first because SHUTDOWN_RECEIVE leaves the
       response direction open *)
    Mutex.lock t.amu;
    let fds = Hashtbl.fold (fun _ fd acc -> fd :: acc) t.active [] in
    Mutex.unlock t.amu;
    List.iter
      (fun fd ->
        Fault.interrupt fd;
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ())
      fds;
    List.iter Thread.join t.workers;
    t.workers <- [];
    (* every session is now disconnected (open transactions rolled
       back); checkpoint and close the stores cleanly *)
    if shutdown_governor then Governor.shutdown t.gov;
    Logs.info (fun m -> m "server stopped")
  end

(* Hard stop simulating SIGKILL: no drain, no rollbacks, no checkpoint,
   no governor shutdown.  Connections are severed mid-whatever; the
   databases keep their volatile state until the test calls
   [Database.crash] on them and re-opens through recovery. *)
let kill t =
  Mutex.lock t.qmu;
  let was_down = t.draining in
  t.draining <- true;
  t.killed <- true;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qmu;
  if not was_down then begin
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with _ -> ());
    (try
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_of_string t.cfg.host, t.bound_port))
        with _ -> ());
       Unix.close fd
     with _ -> ());
    (match t.listener with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with _ -> ());
    Mutex.lock t.amu;
    let fds = Hashtbl.fold (fun _ fd acc -> fd :: acc) t.active [] in
    Mutex.unlock t.amu;
    List.iter
      (fun fd ->
        Fault.interrupt fd;
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
      fds;
    List.iter Thread.join t.workers;
    t.workers <- [];
    Logs.info (fun m -> m "server killed")
  end
