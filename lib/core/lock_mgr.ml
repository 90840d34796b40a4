(* Document lock modes for strict two-phase locking (paper §6.2).  The
   locks themselves live on the transactions that hold them
   ([Txn.locks]); [Database.lock_exn] grants against the active
   transaction table. *)

type mode = Shared | Exclusive

let compatible a b = match (a, b) with Shared, Shared -> true | _ -> false
