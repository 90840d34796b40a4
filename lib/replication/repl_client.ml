(* Convenience entry points for failover-aware clients.

   The heavy lifting lives in {!Sedna_server.Server_client}: it owns
   the endpoint list, reconnect backoff and the retry/SE-FAILOVER
   decision per statement.  This module just packages the common
   call shapes. *)

open Sedna_server

(* One-shot page fetch against a peer's replication port, for the
   scrubber's standby-assisted repair.  Returns the peer's cluster
   epoch alongside the page so the caller can epoch-check before
   installing (a Fenced reply or a connection error is (epoch, None)). *)
let fetch_page ~host ~port ~cluster ~pid =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Wire.write_repl_request fd (Wire.Page_request { cluster; pid });
      match Wire.read_repl_response fd with
      | Wire.Page_reply { cluster = c; page; _ } ->
        (c, Option.map Bytes.of_string page)
      | Wire.Fenced { cluster = c } -> (c, None)
      | _ -> (cluster, None))

(* A [Scrubber.create ~fetch] hook bound to one peer endpoint, with the
   requester-side epoch gate: the fetched page is installed only if the
   peer answered at exactly our cluster epoch and we are not fenced —
   pages must never cross a promotion boundary in either direction. *)
let page_fetcher ~host ~port (db : Sedna_core.Database.t) : int -> Bytes.t option =
  fun pid ->
    let open Sedna_core in
    if Database.is_fenced db then None
    else
      match
        fetch_page ~host ~port ~cluster:(Database.cluster_epoch db) ~pid
      with
      | exception _ -> None
      | peer_cluster, page ->
        Database.observe_epoch db peer_cluster;
        if
          peer_cluster = Database.cluster_epoch db
          && not (Database.is_fenced db)
        then page
        else None

let connect ?retries ?backoff_s endpoints =
  match endpoints with
  | [] -> invalid_arg "Repl_client.connect: empty endpoint list"
  | (host, port) :: _ -> Server_client.connect ~host ~endpoints ?retries ?backoff_s ~port ()

(* Issue the PROMOTE admin statement against one specific endpoint —
   failover-on-connect would defeat the point of targeting the
   standby. *)
let promote ~host ~port ~database =
  let c = Server_client.connect ~host ~port ~retries:3 () in
  Fun.protect
    ~finally:(fun () -> try Server_client.close c with _ -> ())
    (fun () ->
      ignore (Server_client.open_db c database);
      match Server_client.execute c "PROMOTE" with
      | Sedna_db.Session.Message m -> m
      | other -> Sedna_db.Session.result_to_string other)
