(** Hot backup (paper §6.5): full and incremental online backups with
    point-in-time restore.

    A full backup copies data file → log → catalog, in that order,
    while the database serves requests; a page torn by a concurrent
    write ("split-block problem") is healed because restore replays the
    copied WAL.  Incremental backups ship only the log and catalog.

    Increments are valid until the next checkpoint truncates the log;
    take a fresh full backup after checkpointing. *)

val full : Database.t -> dest:string -> int * int
(** Returns the [(epoch, position)] the copied log ends at: the log is
    copied under its writer cursor ({!Wal.fixate}), so the copy holds
    exactly the frames below that position. *)

val incremental : Database.t -> dest:string -> seq:int -> unit
(** Adds [wal.<seq>.sdb] / [catalog.<seq>.sdb] to an existing full
    backup directory. *)

val restore : src:string -> dest:string -> ?up_to:int -> unit -> Database.t
(** Materialize the backup into a fresh directory and open it (which
    replays the appropriate log).  [up_to] selects how many increments
    to apply — point-in-time recovery at increment granularity. *)

val copy_file : string -> string -> unit
