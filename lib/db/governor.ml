(* The governor (paper §3, Figure 1): the control centre that keeps
   track of databases and sessions.  Databases register here on open;
   sessions are created against a registered database.  In the original
   system these are separate processes; here they are objects within
   one process, with the same responsibilities. *)

open Sedna_util
open Sedna_core

(* Admission-control knobs (paper §3: the governor is where global
   resource policy lives).  [max_sessions] bounds concurrent
   connections; [query_timeout_s] is the per-statement wall-clock
   budget the serving layer arms via [Deadline]; 0. disables it. *)
type limits = { max_sessions : int; query_timeout_s : float }

let default_limits = { max_sessions = 64; query_timeout_s = 0. }

type t = {
  databases : (string, Database.t) Hashtbl.t;
  mutable sessions : (int * Session.t) list;
  mutable next_session_id : int;
  mutable limits : limits;
  mu : Mutex.t; (* guards the registry fields above *)
  engine : Mutex.t; (* the coarse store lock: one statement in the engine *)
  mutable engine_owner : int; (* Thread.id of the holder, -1 when free *)
}

let create () =
  {
    databases = Hashtbl.create 4;
    sessions = [];
    next_session_id = 1;
    limits = default_limits;
    mu = Mutex.create ();
    engine = Mutex.create ();
    engine_owner = -1;
  }

let limits t = t.limits
let set_limits t l = t.limits <- l

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* The store lock serializing engine access across server worker
   threads.  Held per *statement*, never across an idle transaction:
   an uncommitted writer keeps its S2PL document locks but not this
   mutex, so snapshot readers slip in between its statements and read
   their version chain without waiting for the commit (paper §6.3). *)
let with_engine t f =
  Mutex.lock t.engine;
  t.engine_owner <- Thread.id (Thread.self ());
  Fun.protect
    ~finally:(fun () ->
      t.engine_owner <- -1;
      Mutex.unlock t.engine)
    f

(* Release the engine lock around a blocking wait — the group-commit
   park.  The caller is mid-statement inside [with_engine]; while it
   waits for the covering fsync, other sessions' statements run.

   Two global single-owner cells ride on "one statement in the engine
   at a time" and must not leak to whoever takes the lock next: the
   statement's [Deadline] budget is detached for the duration (the
   wait is bounded by the group leader's fsync, not by the budget),
   and the ambient [Span] context is cleared so a statement that runs
   while we park cannot attach its spans to our trace.  Both are
   restored after the lock is re-acquired, preserving the single-owner
   invariant on both sides of the wait.

   Callers that never took the engine lock (single-threaded tests and
   benches drive sessions directly) just run [f] inline: with no lock
   held there is nothing to release and no cell to detach. *)
let without_engine t f =
  if t.engine_owner <> Thread.id (Thread.self ()) then f ()
  else begin
    let budget = Deadline.suspend () in
    let cx = Span.current () in
    Span.set_current None;
    t.engine_owner <- -1;
    Mutex.unlock t.engine;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock t.engine;
        t.engine_owner <- Thread.id (Thread.self ());
        Span.set_current cx;
        Deadline.resume budget)
      f
  end

let create_database t ~name ~dir =
  if Hashtbl.mem t.databases name then
    Error.raise_error Error.Document_exists "database %S already registered" name;
  let db = Database.create dir in
  Hashtbl.add t.databases name db;
  db

let open_database t ~name ~dir =
  if Hashtbl.mem t.databases name then
    Error.raise_error Error.Document_exists "database %S already registered" name;
  let db = Database.open_existing dir in
  Hashtbl.add t.databases name db;
  db

(* Register a database the caller opened itself — the replication
   receiver restores a seed with Backup.restore and opens the result,
   so the create/open helpers above don't fit. *)
let register_database t ~name db =
  if Hashtbl.mem t.databases name then
    Error.raise_error Error.Document_exists "database %S already registered" name;
  Hashtbl.add t.databases name db

let find_database t name = Hashtbl.find_opt t.databases name

let get_database t name =
  match find_database t name with
  | Some db -> db
  | None -> Error.raise_error Error.No_such_document "no database %S" name

(* paper §3: "for each client, the governor creates an instance of the
   connection component and establishes the connection".  Admission
   control lives here: past [max_sessions] the connect is refused with
   SE-OVERLOADED instead of queueing. *)
let connect t ~database : int * Session.t =
  let db = get_database t database in
  locked t.mu (fun () ->
      if List.length t.sessions >= t.limits.max_sessions then begin
        Counters.bump Counters.conn_rejected;
        Error.raise_error Error.Overloaded
          "session limit reached (%d of %d)" (List.length t.sessions)
          t.limits.max_sessions
      end;
      let s = Session.connect db in
      (* governor sessions run statements under the engine lock, so
         their commits may park outside it and let other sessions
         proceed during the group fsync *)
      Session.set_park s (fun wait -> without_engine t wait);
      let id = t.next_session_id in
      t.next_session_id <- id + 1;
      t.sessions <- (id, s) :: t.sessions;
      (id, s))

let disconnect t id =
  let s = locked t.mu (fun () ->
      let s = List.assoc_opt id t.sessions in
      t.sessions <- List.remove_assoc id t.sessions;
      s)
  in
  match s with
  | Some s when Session.in_transaction s ->
    (* the rollback touches the store: take the engine lock like any
       other statement would *)
    with_engine t (fun () -> Session.rollback s)
  | _ -> ()

let is_connected t id = locked t.mu (fun () -> List.mem_assoc id t.sessions)

let session_count t = locked t.mu (fun () -> List.length t.sessions)

(* Replace a registered database in place (standby re-seed: the old
   store is abandoned for a freshly restored one).  Sessions bound to
   the replaced database are disconnected — their snapshots point into
   the store being thrown away. *)
let swap_database t ~name db =
  let old = Hashtbl.find_opt t.databases name in
  Hashtbl.replace t.databases name db;
  match old with
  | None -> ()
  | Some old ->
    let stale =
      locked t.mu (fun () ->
          List.filter (fun (_, s) -> Session.database s == old) t.sessions)
    in
    List.iter (fun (id, _) -> disconnect t id) stale

let shutdown t =
  let sessions = locked t.mu (fun () -> t.sessions) in
  List.iter (fun (id, _) -> disconnect t id) sessions;
  Hashtbl.iter (fun _ db -> Database.close db) t.databases;
  Hashtbl.reset t.databases
