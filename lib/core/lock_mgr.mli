(** Document lock modes for strict two-phase locking (paper §6.2).

    A transaction's locks are kept on the transaction itself
    ({!Txn.t.locks}); {!Database.lock_exn} grants or refuses a request
    against every other active transaction's locks, and a transaction's
    locks end when it leaves the active table (commit or abort). *)

type mode = Shared | Exclusive

val compatible : mode -> mode -> bool
(** Whether two different transactions may hold these modes on one
    document at once: only shared with shared. *)
