(** Failover-aware client helpers on top of
    {!Sedna_server.Server_client}. *)

val connect :
  ?retries:int -> ?backoff_s:float -> (string * int) list -> Sedna_server.Server_client.t
(** Connect to the first reachable endpoint of the list (primary
    first); the returned client fails over between them transparently
    for reads and surfaces [SE-FAILOVER] for interrupted writes.
    Raises [Invalid_argument] on an empty list. *)

val fetch_page :
  host:string -> port:int -> cluster:int -> pid:int -> int * Bytes.t option
(** One-shot page fetch from a peer's replication port
    ([Wire.Page_request]); returns the peer's cluster epoch and the
    page if it could serve one.  [cluster] is the requester's epoch,
    so a fenced peer refuses and a stale requester gets demoted. *)

val page_fetcher :
  host:string -> port:int -> Sedna_core.Database.t -> int -> Bytes.t option
(** {!Sedna_core.Scrubber} [fetch] hook bound to one endpoint, with the
    requester-side epoch gate: a page is only returned when the peer
    answered at exactly this database's cluster epoch and this node is
    not fenced.  Swallows connection errors ([None]). *)

val promote : host:string -> port:int -> database:string -> string
(** Ask the server at exactly this endpoint to promote its standby
    database to primary; returns the server's status line.  Raises
    {!Sedna_server.Server_client.Remote_error} if the server is not a
    standby. *)
