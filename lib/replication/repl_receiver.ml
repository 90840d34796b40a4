(* Standby side of WAL-shipping replication: continuous redo, one
   thread.

   The pull thread drives the sender: connect, seed if necessary, then
   Pull in a loop.  Each received batch goes through a strict
   durability order —

     1. append the raw frames to the standby's own WAL and fsync:
        ordinary recovery can now finish the work if we die mid-redo
     2. redo the complete transactions in the batch
        ({!Database.apply_txn} under the engine lock, so concurrent
        BEGIN READ ONLY sessions keep their consistent snapshots)
     3. advance the pull position (the next Pull is the ack) and the
        durable resume state (repl.state) — but the latter only to
        transaction boundaries: a batch may end inside a transaction
        whose commit record is still on the wire, and restarting from a
        mid-transaction position would strand its page images

   Restart safety: on restart the local WAL is checkpoint-truncated by
   recovery, and pulling resumes from the persisted boundary, so the
   frames of any half-shipped transaction are simply received again.
   Applies are idempotent (absolute page images), so every step above
   may be repeated after a lost ack.  The same property covers a failed
   redo: the batch is already durable in the local WAL, so the standby
   recovers *in place* — reopen the directory, replay the log, resume
   pulling from the persisted boundary.  Added lag, zero loss.

   Epochs: the primary bumps its WAL epoch at every checkpoint
   truncation.  A Pull naming a stale epoch (or a position past the
   log) is answered with Hole, and the standby re-seeds from a fresh
   full backup shipped over the same connection.

   Promotion joins the pull thread first, which is why the serving
   layer must invoke it OUTSIDE the engine lock: the redo takes that
   lock, and a promote waiting on the join while holding it would
   deadlock. *)

open Sedna_util
open Sedna_core
open Sedna_db
open Sedna_server

(* fires before a received batch is persisted or acked: an injected
   fault drops the connection and the batch is simply pulled again *)
let apply_site = Fault.site "repl.apply"

(* fires in the pull thread, after the batch is durably appended and
   before its redo: an injected fault here must cost an in-place
   recovery (the local WAL already holds the bytes), never an acked
   commit *)
let batch_apply_site = Fault.site "repl.batch_apply"

exception Heartbeat_timeout

type t = {
  gov : Governor.t;
  name : string; (* database name in the governor *)
  dir : string; (* standby database directory (stable across re-seeds) *)
  host : string;
  port : int;
  poll_s : float;
  heartbeat_timeout_s : float;
  max_batch : int;
  mu : Mutex.t;
  mutable db : Database.t option;
  mutable cluster : int; (* highest cluster (fencing) epoch seen *)
  mutable epoch : int; (* primary WAL epoch being tracked *)
  mutable pos : int; (* next primary WAL position to pull *)
  mutable boundary : int; (* last txn-boundary position (durable resume point) *)
  pending : (int, (int * Bytes.t) list ref) Hashtbl.t;
  (* txn -> rev images of transactions not yet committed *)
  shipped_open : (int, unit) Hashtbl.t;
  (* txns whose Begin was durably appended but whose Commit/Abort was
     not yet: drives the boundary *)
  mutable stopping : bool;
  mutable promoted : bool;
  mutable fd : Unix.file_descr option;
  mutable thread : Thread.t option;
}

let state_path dir = Filename.concat dir "repl.state"

(* third field (cluster epoch) added later: absent in state files
   written by older standbys, so reading tolerates both forms *)
let persist_state t =
  Sysutil.write_file_durable (state_path t.dir)
    (Printf.sprintf "%d %d %d\n" t.epoch t.boundary t.cluster)

let read_state dir =
  let p = state_path dir in
  if not (Sys.file_exists p) then None
  else begin
    let ic = open_in_bin p in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match String.split_on_char ' ' (String.trim line) with
    | [ e; pos ] -> (
      match (int_of_string_opt e, int_of_string_opt pos) with
      | Some e, Some pos -> Some (e, pos, 0)
      | _ -> None)
    | [ e; pos; c ] -> (
      match (int_of_string_opt e, int_of_string_opt pos, int_of_string_opt c) with
      | Some e, Some pos, Some c -> Some (e, pos, c)
      | _ -> None)
    | _ -> None
  end

(* A response from the primary carried its cluster epoch: track it (the
   standby's own database adopts it too, so a promotion here mints a
   strictly higher one even after restarts). *)
let note_cluster t c =
  if c > t.cluster then begin
    t.cluster <- c;
    (match t.db with Some db -> Database.set_cluster_epoch db c | None -> ());
    persist_state t
  end

(* ---- wire helpers ----------------------------------------------------- *)

(* A silent primary is indistinguishable from a dead one: bound every
   response wait by the heartbeat timeout and treat expiry as a
   disconnect. *)
let read_response_timed t fd =
  let rec wait () =
    match Unix.select [ fd ] [] [] t.heartbeat_timeout_s with
    | [], _, _ -> raise Heartbeat_timeout
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  Wire.read_repl_response fd

(* Register a freshly opened store as the governor's read-only copy of
   this database, replacing any previous one. *)
let adopt t db =
  Database.set_standby db true;
  (match Governor.find_database t.gov t.name with
   | None -> Governor.register_database t.gov ~name:t.name db
   | Some _ -> Governor.swap_database t.gov ~name:t.name db);
  t.db <- Some db

(* ---- seeding ---------------------------------------------------------- *)

(* Swap in a freshly shipped full backup.  The directory path stays
   stable across re-seeds: the new store is staged next to it, the old
   database is dropped without flushing (its state is abandoned by
   design), and a rename moves the stage into place. *)
let install_seed t files =
  let stage = t.dir ^ ".seed" in
  Sysutil.rm_rf stage;
  Unix.mkdir stage 0o755;
  List.iter
    (fun (name, data) ->
      if Filename.basename name <> name then
        raise (Wire.Protocol_error "seed file name escapes the directory");
      Sysutil.write_file_durable (Filename.concat stage name) data)
    files;
  (match t.db with
   | Some old -> ( try Database.crash old with _ -> ())
   | None -> ());
  Sysutil.rm_rf t.dir;
  Unix.rename stage t.dir;
  Sysutil.fsync_dir (Filename.dirname t.dir);
  (* opening replays the shipped WAL, giving the exact state the
     primary recorded the resume position against *)
  adopt t (Database.open_existing t.dir)

let seed t fd =
  Wire.write_repl_request fd Wire.Seed_request;
  let rec recv files =
    match read_response_timed t fd with
    | Wire.Seed_file { name; data } -> recv ((name, data) :: files)
    | Wire.Seed_done { cluster; epoch; pos } -> (List.rev files, cluster, epoch, pos)
    | Wire.Fenced _ -> raise (Wire.Disconnected "seeding primary is fenced")
    | Wire.Batch _ | Wire.Heartbeat _ | Wire.Hole _ | Wire.Page_reply _ ->
      raise (Wire.Protocol_error "unexpected response during seed")
  in
  let files, cluster, epoch, pos = recv [] in
  install_seed t files;
  note_cluster t cluster;
  (* count the install before publishing epoch/pos: anyone who waited
     for the new epoch to appear must also see this seed counted *)
  Counters.bump Counters.repl_reseeds;
  Hashtbl.reset t.pending;
  Hashtbl.reset t.shipped_open;
  (* the seed position can fall inside a transaction: its Begin is in
     the seeded log, its images and Commit are still to be shipped, so
     it is open as far as the durable boundary is concerned *)
  List.iter
    (function
      | Wal.Begin id -> Hashtbl.replace t.shipped_open id ()
      | Wal.Commit (id, _) | Wal.Abort id -> Hashtbl.remove t.shipped_open id
      | _ -> ())
    (Wal.read_all (Wal.path (Database.wal (Option.get t.db))));
  t.epoch <- epoch;
  Counters.set Counters.repl_standby_epoch epoch;
  t.pos <- pos;
  t.boundary <- pos;
  persist_state t

(* ---- pull loop: receive, append, redo -------------------------------- *)

(* The pending entry opens on a transaction's first image, not on its
   Begin: a seed whose position falls inside a transaction ships the
   Begin in the seed's log and the images in the stream.  A Begin still
   clears any stale entry under its id. *)
let apply_batch t db records =
  List.iter
    (fun (r, _end_off) ->
      match r with
      | Wal.Begin id -> Hashtbl.remove t.pending id
      | Wal.Image (id, pid, img) -> (
        match Hashtbl.find_opt t.pending id with
        | Some l -> l := (pid, img) :: !l
        | None -> Hashtbl.replace t.pending id (ref [ (pid, img) ]))
      | Wal.Logical _ -> ()
      | Wal.Commit (id, catalog_blob) ->
        let images =
          match Hashtbl.find_opt t.pending id with
          | Some l -> List.rev !l
          | None -> []
        in
        Hashtbl.remove t.pending id;
        Governor.with_engine t.gov (fun () ->
            Database.apply_txn db ~images ~catalog_blob)
      | Wal.Abort id -> Hashtbl.remove t.pending id
      | Wal.Checkpoint -> ())
    records

(* Redo one durably appended batch.  Hangs one apply span per traced
   commit in the batch under the primary-side fsync span it was marked
   with; the duration is the redo alone, not the append/fsync. *)
let redo t db ~frames ~marks records =
  Fault.check batch_apply_site;
  let t0 = Metrics.mono () in
  apply_batch t db records;
  if marks <> [] && Span.is_enabled () then begin
    let dur = Metrics.mono () -. t0 in
    List.iter
      (fun { Wire.mk_pos; mk_trace; mk_span } ->
        Span.emit_remote ~trace:mk_trace ~parent:mk_span ~name:"standby.apply"
          ~dur
          [
            ("pos", Metrics.Int mk_pos);
            ("batch_bytes", Metrics.Int (String.length frames));
          ])
      marks
  end

(* The redo failed after its batch was durably appended.  Recover
   exactly as a standby restart would: drop the in-memory state and
   reopen the directory (recovery replays the whole local WAL, the
   failed batch included, and truncates it), then resume pulling from
   the persisted boundary.  Cost: added lag.  Loss: none. *)
let recover_in_place t =
  Hashtbl.reset t.pending;
  Hashtbl.reset t.shipped_open;
  match t.db with
  | None -> ()
  | Some db -> (
    (try Database.crash db with _ -> ());
    match Database.open_existing t.dir with
    | ndb ->
      adopt t ndb;
      t.pos <- t.boundary;
      Counters.bump Counters.repl_apply_restarts;
      Logs.warn (fun m ->
          m "standby %s: redo failed; recovered in place from the local WAL \
             (resuming at %d)"
            t.name t.boundary)
    | exception _ ->
      (* unusable remains: force a full re-seed *)
      t.db <- None;
      t.pos <- 0;
      t.boundary <- 0)

let pull_loop t fd =
  while not t.stopping do
    if t.db = None then seed t fd;
    Wire.write_repl_request fd
      (Wire.Pull
         { cluster = t.cluster; epoch = t.epoch; pos = t.pos; max_bytes = t.max_batch });
    match read_response_timed t fd with
    | Wire.Fenced { cluster } ->
      (* the sender demoted itself in response to our (higher) epoch:
         this link is dead, there is nothing to pull here any more *)
      note_cluster t cluster;
      raise (Wire.Disconnected "primary fenced")
    | Wire.Batch { cluster; epoch; next_pos; frames; marks } when epoch = t.epoch -> (
      note_cluster t cluster;
      (* fires before anything is persisted or acked: safe to re-pull *)
      Fault.check apply_site;
      let db = Option.get t.db in
      let wal = Database.wal db in
      Wal.append_raw wal frames;
      Wal.sync wal;
      let records = Wal.records_of_frames frames in
      List.iter
        (fun (r, _) ->
          match r with
          | Wal.Begin id -> Hashtbl.replace t.shipped_open id ()
          | Wal.Commit (id, _) | Wal.Abort id -> Hashtbl.remove t.shipped_open id
          | _ -> ())
        records;
      match redo t db ~frames ~marks records with
      | exception _ -> recover_in_place t
      | () ->
        (* applied: the next Pull acknowledges [next_pos].  The boundary
           tracks durably shipped transaction boundaries: a batch may
           end inside a transaction whose commit record is still on the
           wire, and resuming from there would strand its images *)
        t.pos <- next_pos;
        if Hashtbl.length t.shipped_open = 0 && t.boundary <> next_pos then begin
          t.boundary <- next_pos;
          persist_state t
        end)
    | Wire.Batch _ | Wire.Hole _ ->
      (* wrong or bumped epoch: our position is meaningless now *)
      seed t fd
    | Wire.Heartbeat { cluster; epoch = _; pos = _ } ->
      note_cluster t cluster;
      if not t.stopping then Unix.sleepf t.poll_s
    | Wire.Seed_file _ | Wire.Seed_done _ | Wire.Page_reply _ ->
      raise (Wire.Protocol_error "unsolicited seed frame")
  done

(* ---- connection management -------------------------------------------- *)

let connect_primary t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string t.host, t.port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Fault.register fd ~local:"standby" ~peer:"primary";
    fd
  with e ->
    (try Unix.close fd with _ -> ());
    raise e

let session_loop t () =
  (* unbounded: a standby outlives arbitrary primary outages.  Jittered
     so several standbys severed by the same event don't stampede the
     recovering primary; reset after each successful connection. *)
  let retry = Retry.start (Retry.policy ~base_s:0.01 ~cap_s:1.0 "repl.reconnect") in
  while not t.stopping do
    match connect_primary t with
    | exception _ -> ignore (Retry.pause retry : bool)
    | fd ->
      Retry.reset retry;
      t.fd <- Some fd;
      Counters.set Counters.repl_standby_connected 1;
      (try pull_loop t fd with
       | Heartbeat_timeout | End_of_file | Unix.Unix_error _
       | Wire.Protocol_error _ | Wire.Disconnected _ ->
         ()
       | Fault.Injected_fault _ | Fault.Injected_crash _ ->
         (* injected replication fault: treated as a channel death —
            reconnect and re-pull; nothing was acked *)
         ());
      Counters.set Counters.repl_standby_connected 0;
      t.fd <- None;
      Fault.unregister fd;
      (try Unix.close fd with _ -> ());
      if not t.stopping then Unix.sleepf t.poll_s
  done

let start ?(poll_s = 0.01) ?(heartbeat_timeout_s = 2.0) ?(max_batch = 1 lsl 22)
    ~gov ~name ~dir ~host ~port () : t =
  (* a primary vanishing mid-request must surface as EPIPE on our
     write, not as a process-killing signal (see Repl_sender.start) *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let t =
    {
      gov;
      name;
      dir;
      host;
      port;
      poll_s;
      heartbeat_timeout_s;
      max_batch;
      mu = Mutex.create ();
      db = None;
      cluster = 0;
      epoch = 0;
      pos = 0;
      boundary = 0;
      pending = Hashtbl.create 4;
      shipped_open = Hashtbl.create 4;
      stopping = false;
      promoted = false;
      fd = None;
      thread = None;
    }
  in
  (* resume a standby that was stopped cleanly: recovery applies
     whatever committed work the local WAL already holds, and pulling
     restarts from the persisted transaction boundary *)
  (match read_state dir with
   | Some (epoch, pos, cluster)
     when Sys.file_exists (Filename.concat dir "catalog.sdb") -> (
     match Database.open_existing dir with
     | db ->
       adopt t db;
       t.cluster <- max cluster (Database.cluster_epoch db);
       t.epoch <- epoch;
       Counters.set Counters.repl_standby_epoch epoch;
       t.pos <- pos;
       t.boundary <- pos
     | exception _ -> t.db <- None (* unusable remains: fall back to a seed *))
   | _ -> ());
  t.thread <- Some (Thread.create (session_loop t) ());
  t

let database t = t.db
let tracked t = (t.epoch, t.pos)

(* the pull position advances only once its batch is redone, so a
   caller that sees [pos] reached may read the applied state *)
let caught_up t ~epoch ~pos =
  t.epoch = epoch && t.pos >= pos
  && Hashtbl.length t.shipped_open = 0
  && Hashtbl.length t.pending = 0

let wait_caught_up ?(timeout_s = 10.) t ~epoch ~pos =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if caught_up t ~epoch ~pos then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.yield ();
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

let stop t =
  t.stopping <- true;
  (match t.fd with
   | Some fd ->
     (* the pull thread may be parked in a partitioned send/recv;
        release it or this join deadlocks until the partition heals *)
     Fault.interrupt fd;
     (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
   | None -> ());
  (match t.thread with Some th -> Thread.join th | None -> ());
  t.thread <- None

(* Promotion: stop pulling, then turn the standby into an ordinary
   primary.  The pull thread redoes each batch before it takes the
   next, so once it is joined every durably shipped complete
   transaction is applied (directly, or by an in-place recovery after
   a failed redo); whatever is left in [pending] lacks its commit
   record and is discarded exactly as recovery would discard it.  The closing checkpoint fixates the state and bumps the local
   WAL epoch, so future standbys of the NEW primary can never confuse
   its log with the old timeline.  Idempotent. *)
let promote t =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      if t.promoted then "already promoted"
      else begin
        stop t;
        match t.db with
        | None ->
          Error.raise_error Error.Recovery_failure
            "cannot promote: the standby never finished seeding"
        | Some db ->
          Hashtbl.reset t.pending;
          Hashtbl.reset t.shipped_open;
          Database.set_standby db false;
          (* Fencing: mint a cluster epoch strictly above everything
             this node has ever seen — on the wire or persisted — and
             durably record it BEFORE accepting writes.  Every response
             this node now sends carries the new epoch, so the deposed
             primary fences itself on first contact with any client or
             standby that has talked to us. *)
          let cluster = max t.cluster (Database.cluster_epoch db) + 1 in
          t.cluster <- cluster;
          Database.set_cluster_epoch db cluster;
          Database.unfence db;
          (try Governor.with_engine t.gov (fun () -> Database.checkpoint db)
           with Error.Sedna_error (Error.Txn_not_active, _) ->
             (* read-only sessions still open: skip the checkpoint, the
                WAL already holds everything *)
             ());
          t.promoted <- true;
          Counters.bump Counters.repl_promotions;
          let epoch = Wal.epoch (Database.wal db) in
          persist_state t;
          Logs.info (fun m ->
              m "standby %s promoted to primary (wal epoch %d, cluster epoch %d)"
                t.name epoch cluster);
          Printf.sprintf "promoted to primary (epoch %d, cluster %d)" epoch cluster
      end)
