(* Error taxonomy for the whole system.  Codes loosely follow Sedna's
   SE-numbering convention: storage errors, query static/dynamic errors,
   transaction errors. *)

type code =
  | Storage_corruption
  | Corrupt_page
  | Page_out_of_bounds
  | Block_full
  | No_such_document
  | Document_exists
  | No_such_collection
  | Collection_exists
  | No_such_index
  | Index_exists
  | Xml_parse
  | Xquery_parse
  | Xquery_static
  | Xquery_type
  | Xquery_dynamic
  | Update_conflict
  | Lock_timeout
  | Txn_read_only
  | Txn_not_active
  | Recovery_failure
  | Unsupported
  | Overloaded
  | Query_timeout
  | Server_shutdown
  | Standby_read_only
  | Failover
  | Fenced
  | Degraded

let code_name = function
  | Storage_corruption -> "SE-STORAGE-CORRUPTION"
  | Corrupt_page -> "SE-CORRUPT-PAGE"
  | Page_out_of_bounds -> "SE-PAGE-OOB"
  | Block_full -> "SE-BLOCK-FULL"
  | No_such_document -> "SE-NO-DOCUMENT"
  | Document_exists -> "SE-DOCUMENT-EXISTS"
  | No_such_collection -> "SE-NO-COLLECTION"
  | Collection_exists -> "SE-COLLECTION-EXISTS"
  | No_such_index -> "SE-NO-INDEX"
  | Index_exists -> "SE-INDEX-EXISTS"
  | Xml_parse -> "SE-XML-PARSE"
  | Xquery_parse -> "XPST0003"
  | Xquery_static -> "XPST0008"
  | Xquery_type -> "XPTY0004"
  | Xquery_dynamic -> "FORG0001"
  | Update_conflict -> "SE-UPDATE-CONFLICT"
  | Lock_timeout -> "SE-LOCK-TIMEOUT"
  | Txn_read_only -> "SE-TXN-READONLY"
  | Txn_not_active -> "SE-TXN-NOT-ACTIVE"
  | Recovery_failure -> "SE-RECOVERY"
  | Unsupported -> "SE-UNSUPPORTED"
  | Overloaded -> "SE-OVERLOADED"
  | Query_timeout -> "SE-TIMEOUT"
  | Server_shutdown -> "SE-SHUTDOWN"
  | Standby_read_only -> "SE-READ-ONLY"
  | Failover -> "SE-FAILOVER"
  | Fenced -> "SE-FENCED"
  | Degraded -> "SE-DEGRADED"

exception Sedna_error of code * string

let raise_error code fmt =
  Format.kasprintf (fun msg -> raise (Sedna_error (code, msg))) fmt

let to_string = function
  | Sedna_error (code, msg) -> Printf.sprintf "%s: %s" (code_name code) msg
  | e -> Printexc.to_string e

let pp ppf e = Format.pp_print_string ppf (to_string e)
