(** Error taxonomy for the whole system.  Codes loosely follow Sedna's
    SE-numbering convention for storage and transaction errors, and the
    W3C error codes for query errors. *)

type code =
  | Storage_corruption
  | Corrupt_page  (** page-level CRC mismatch detected on read *)
  | Page_out_of_bounds
  | Block_full
  | No_such_document
  | Document_exists
  | No_such_collection
  | Collection_exists
  | No_such_index
  | Index_exists
  | Xml_parse
  | Xquery_parse  (** XPST0003 *)
  | Xquery_static  (** XPST0008 *)
  | Xquery_type  (** XPTY0004 *)
  | Xquery_dynamic  (** FORG0001 *)
  | Update_conflict
  | Lock_timeout
  | Txn_read_only
  | Txn_not_active
  | Recovery_failure
  | Unsupported
  | Overloaded  (** SE-OVERLOADED: admission control rejected the request *)
  | Query_timeout  (** SE-TIMEOUT: statement exceeded its wall-clock budget *)
  | Server_shutdown  (** SE-SHUTDOWN: server draining, no new work accepted *)
  | Standby_read_only
      (** SE-READ-ONLY: write refused by a hot-standby replica *)
  | Failover
      (** SE-FAILOVER: the primary died mid-transaction; the client must
          re-run its transaction against the surviving endpoint *)
  | Fenced
      (** SE-FENCED: this node observed a higher cluster epoch (another
          node was promoted) and refuses writes until re-seeded *)
  | Degraded
      (** SE-DEGRADED: resource exhaustion (disk full, fd limit) put the
          node in degraded read-only mode; writes are shed until the
          watchdog observes the resource recovering *)

exception Sedna_error of code * string

val code_name : code -> string

val raise_error : code -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [raise_error code fmt ...] formats the message and raises
    {!Sedna_error}. *)

val to_string : exn -> string
val pp : Format.formatter -> exn -> unit
