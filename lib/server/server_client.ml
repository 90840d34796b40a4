(* Client side of the wire protocol: a blocking connection that the
   benches, tests and the CLI's --connect mode drive like a local
   session.  Query results arrive in fetch-batches and are reassembled
   here.

   The client knows about failover: it holds a list of endpoints
   (primary first, standbys after) and, when the connection drops, it
   reconnects to the next live endpoint with bounded exponential
   backoff and re-opens the session.  Idempotent work — a statement
   outside any explicit transaction that is not an update — is retried
   transparently; everything else surfaces SE-FAILOVER, because the
   client cannot know whether the lost statement took effect. *)

open Sedna_db
module Span = Sedna_util.Span
module Metrics = Sedna_util.Metrics
module Retry = Sedna_util.Retry
module Fault = Sedna_util.Fault

exception Remote_error of string * string

let () =
  Printexc.register_printer (function
    | Remote_error (code, msg) -> Some (Printf.sprintf "%s: %s" code msg)
    | _ -> None)

type t = {
  mutable fd : Unix.file_descr;
  fetch_chunk : int;
  mutable closed : bool;
  endpoints : (string * int) array; (* failover order; element [cur] is live *)
  mutable cur : int;
  retries : int;
  backoff_s : float;
  mutable database : string option; (* re-opened after a failover *)
  mutable in_txn : bool; (* inside an explicit BEGIN ... COMMIT *)
  mutable last_trace : string option; (* trace id of the last traced request *)
  mutable seen_epoch : int; (* highest cluster epoch seen on any response *)
}

let try_connect host port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Fault.register fd ~local:"client" ~peer:"server";
    fd
  with e ->
    (try Unix.close fd with _ -> ());
    raise e

let close_fd fd =
  Fault.unregister fd;
  try Unix.close fd with _ -> ()

(* Connection attempts that mean "not up (yet / any more)" — worth
   retrying against the same or another endpoint.  Anything else
   (EACCES, bad address...) propagates immediately. *)
let transient_connect_error = function
  | Unix.Unix_error
      ( (Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ECONNABORTED
        | Unix.ENETUNREACH | Unix.EHOSTUNREACH | Unix.ETIMEDOUT),
        _,
        _ ) ->
    true
  | _ -> false

(* Walk the endpoint list starting at [start]; between full rounds,
   sleep under {!Retry}'s decorrelated jitter — after a primary kill
   every failed-over client lands here at the same instant, and the
   old deterministic backoff made them all reconnect in lockstep
   (thundering herd on the survivor).  [retries] counts extra rounds
   after the first. *)
let connect_any ~endpoints ~start ~retries ~backoff_s =
  let n = Array.length endpoints in
  let r =
    Retry.start
      (Retry.policy ~max_attempts:(retries + 1) ~base_s:backoff_s
         ~cap_s:(backoff_s *. 256.) "connect")
  in
  let rec round last_exn =
    let rec ep i last_exn =
      if i >= n then
        if Retry.pause r then round last_exn
        else
          raise
            (Option.value last_exn
               ~default:(Unix.Unix_error (Unix.ECONNREFUSED, "connect", "")))
      else begin
        let host, port = endpoints.((start + i) mod n) in
        match try_connect host port with
        | fd -> (fd, (start + i) mod n)
        | exception e when transient_connect_error e -> ep (i + 1) (Some e)
      end
    in
    ep 0 last_exn
  in
  round None

let connect ?(host = "127.0.0.1") ?(fetch_chunk = 64 * 1024) ?endpoints
    ?(retries = 0) ?(backoff_s = 0.05) ~port () : t =
  (* a server that closed the connection must surface as EPIPE on our
     next write, not kill the client process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let endpoints =
    Array.of_list
      (match endpoints with Some (_ :: _ as l) -> l | _ -> [ (host, port) ])
  in
  let fd, cur = connect_any ~endpoints ~start:0 ~retries ~backoff_s in
  {
    fd;
    fetch_chunk;
    closed = false;
    endpoints;
    cur;
    retries;
    backoff_s;
    database = None;
    in_txn = false;
    last_trace = None;
    seen_epoch = 0;
  }

let endpoint t = t.endpoints.(t.cur)
let in_transaction t = t.in_txn
let last_trace_id t = t.last_trace

(* One request/response round trip; servers only ever push a frame in
   response to one of ours, so this is the whole protocol.  The client
   relays the highest cluster epoch it has seen on every request and
   folds in whatever the response carries: after a failover to a
   promoted standby, the client itself becomes the messenger that
   fences the deposed primary on its next contact. *)
let request ?trace (t : t) (req : Wire.request) : Wire.response =
  let epoch = if t.seen_epoch > 0 then Some t.seen_epoch else None in
  Wire.write_request ?trace ?epoch t.fd req;
  let e, resp = Wire.read_response t.fd in
  (match e with
   | Some e when e > t.seen_epoch -> t.seen_epoch <- e
   | _ -> ());
  resp

let fail_err = function
  | Wire.Err { code; msg } -> raise (Remote_error (code, msg))
  | r -> r

(* Root a fresh trace around one client-visible operation.  [f] gets
   the wire context header to send; the root span is finished and the
   trace published (client-side spans only — the server publishes its
   own half into the same trace id) when [f] returns. *)
let with_trace (t : t) name f =
  match Span.make () with
  | None -> f None
  | Some c ->
    let sp = Span.start c name in
    t.last_trace <- Some (Span.trace_id c);
    Fun.protect
      ~finally:(fun () ->
        Span.finish c sp;
        Span.publish c)
      (fun () ->
        f (Some (Span.wire_of ~trace:(Span.trace_id c) ~parent:sp.Span.sp_id)))

let fetch_all ?trace (t : t) (total : int) : string =
  let b = Buffer.create total in
  let rec go () =
    match fail_err (request ?trace t (Wire.Fetch t.fetch_chunk)) with
    | Wire.Chunk { last; data } ->
      Buffer.add_string b data;
      if not last then go ()
    | _ -> raise (Wire.Protocol_error "unexpected response to Fetch")
  in
  go ();
  Buffer.contents b

(* ---- failover -------------------------------------------------------- *)

(* The connection itself died (as opposed to the server answering with
   an error frame).  Wire normalizes all the peer-death errnos into
   [Disconnected], so there is no errno list to maintain here. *)
let connection_failure = function
  | End_of_file | Wire.Disconnected _ -> true
  | _ -> false

let statement_kind text =
  let u = String.uppercase_ascii (String.trim text) in
  if String.starts_with ~prefix:"BEGIN" u then `Begin
  else if u = "COMMIT" then `Commit
  else if u = "ROLLBACK" then `Rollback
  else if
    List.exists
      (fun p -> String.starts_with ~prefix:p u)
      [ "UPDATE"; "CREATE"; "DROP"; "LOAD"; "PROMOTE" ]
  then `Write
  else `Read

(* Reconnect to the next endpoint in the list and re-open the session.
   Whatever transaction was open on the old connection is gone. *)
let reconnect t =
  close_fd t.fd;
  t.in_txn <- false;
  let n = Array.length t.endpoints in
  let fd, cur =
    connect_any ~endpoints:t.endpoints ~start:((t.cur + 1) mod n)
      ~retries:(max 1 t.retries) ~backoff_s:t.backoff_s
  in
  t.fd <- fd;
  t.cur <- cur;
  match t.database with
  | Some db -> (
    match fail_err (request t (Wire.Open db)) with
    | Wire.Opened _ -> ()
    | _ -> raise (Wire.Protocol_error "unexpected response to Open"))
  | None -> ()

(* Opening a session is idempotent (nothing exists on the server until
   it succeeds), so a connection lost mid-open just means: reconnect —
   possibly to the next endpoint — and ask again. *)
let open_db (t : t) (database : string) : int =
  let attempt () =
    with_trace t "client.open" (fun trace ->
        match fail_err (request ?trace t (Wire.Open database)) with
        | Wire.Opened id ->
          t.database <- Some database;
          id
        | _ -> raise (Wire.Protocol_error "unexpected response to Open"))
  in
  let rec go n =
    match attempt () with
    | id -> id
    | exception e when connection_failure e && n > 0 ->
      if (try reconnect t; true with _ -> false) then go (n - 1) else raise e
  in
  go (max 1 t.retries)

let execute (t : t) (text : string) : Session.result =
  let kind = statement_kind text in
  let run () =
    (* one statement = one trace; the fetches of its result ride the
       same context so server-side fetch spans join the tree *)
    with_trace t "client.request" (fun trace ->
        match fail_err (request ?trace t (Wire.Execute text)) with
        | Wire.Updated n -> Session.Updated n
        | Wire.Message m -> Session.Message m
        | Wire.Result_ready total -> Session.Items (fetch_all ?trace t total)
        | _ -> raise (Wire.Protocol_error "unexpected response to Execute"))
  in
  let track r =
    (match kind with
     | `Begin -> t.in_txn <- true
     | `Commit | `Rollback -> t.in_txn <- false
     | `Read | `Write -> ());
    r
  in
  (* [budget] bounds the failover hops of one statement, so a retry
     that itself dies (or lands on a second fenced node) still ends in
     a clean refusal instead of leaking a raw connection error *)
  let rec attempt budget =
    match run () with
    | r -> track r
    | exception (Remote_error ("SE-FENCED", _) as e) when not t.in_txn ->
      (* A fenced node refuses before doing anything, so unlike a lost
         connection the refusal is definitive: failing over to the next
         endpoint and re-running is safe even for writes. *)
      if budget > 0 && (try reconnect t; true with _ -> false) then
        attempt (budget - 1)
      else raise e
    | exception e when connection_failure e ->
      let was_in_txn = t.in_txn in
      (* [BEGIN] is safe to replay (no transaction existed yet anywhere);
         a read outside a transaction is idempotent; anything else may
         have half-happened on the dead server *)
      let retryable =
        (not was_in_txn) && match kind with `Read | `Begin -> true | _ -> false
      in
      let reconnected =
        budget > 0 && (try reconnect t; true with _ -> false)
      in
      if retryable && reconnected then attempt (budget - 1)
      else if retryable then raise e
      else
        raise
          (Remote_error
             ( "SE-FAILOVER",
               "connection to the server was lost; the transaction (if any) is \
                gone and the statement may not have been applied — re-run \
                against the surviving endpoint" ))
  in
  attempt 2

let execute_string t text = Session.result_to_string (execute t text)

let close (t : t) =
  if not t.closed then begin
    t.closed <- true;
    (try
       with_trace t "client.close" (fun trace ->
           match request ?trace t Wire.Close with
           | Wire.Bye | _ -> ())
     with _ -> ());
    close_fd t.fd
  end
