(** Seeded fault drills: one harness for every fault plane.

    [run] arms one spec, drives [<entry>] inserts into a [log] document
    (each one an op of the history), crashes, reopens or promotes where
    the fault lands, and audits: each acked token is on some survivor
    and every survivor passes {!Sedna_core.Integrity.check_document}.
    The spec picks the topology.  A non-[repl.*] {!Sedna_util.Fault}
    site runs one node: crash, reopen, recover, restore a mid-run
    backup.  A [repl.*] site runs a primary/standby pair with a forced
    re-seed, then promotes.  A chaos cell ({!cells}) or raw
    {!Sedna_util.Netfault} spec runs the pair behind TCP servers: wire
    clients, mid-run promotion, fencing, online scrub repair.  Each
    topology check that fails is a named entry of [failures]. *)

type result =
  | Acked of int  (** statement port of the acking node; 0 in-process *)
  | Refused of string  (** SE-READ-ONLY / SE-FENCED / SE-FAILOVER / SE-OVERLOADED *)
  | Failed of string

type op = { client : int; seq : int; token : string; t0 : float; result : result }
(** [token] is the unique text the insert carries; [t0] its invoke
    time ({!Sedna_util.Metrics.mono}). *)

type kind = Local | Pair | Chaos

type outcome = {
  spec : string;  (** the armed spec (chaos cells expanded) *)
  kind : kind;
  seed : int;
  history : op list;  (** completion order *)
  fired : bool;  (** some armed policy injected a fault *)
  injected : int;  (** fault + network injections during the run *)
  crashes : int;  (** injected process deaths *)
  reseeds : int;  (** standby seeds, the initial one included *)
  fenced : bool;  (** the deposed primary ended fenced *)
  attempted : int;
  acked : int;
  refused : int;
  lost : int;  (** acked ops missing from every survivor *)
  post_fence_acked : int;  (** acked by the deposed primary after its fence *)
  new_primary_acked : int;  (** acked by the promoted standby *)
  failures : string list;  (** empty = passed *)
}

val ok : outcome -> bool
val render : outcome -> string

val run : ?ops:int -> ?clients:int -> ?seed:int -> dir:string -> string -> outcome
(** One drill in [dir] (recreated, then removed).  [ops] per client
    (default 12); [clients] (default 4) and [seed] (default 1) drive
    chaos runs.  Never raises: an unknown site or a bad spec is a
    failure. *)

val specs : unit -> string list
(** Every registered fault site crossed with [crash@2], [torn@2],
    [fail@1] and [enospc@1]. *)

val cells : string list
(** ["drop"; "delay"; "torn"; "partition"]. *)

(** {1 Shared pieces} *)

type pair = {
  gov_p : Sedna_db.Governor.t; gov_s : Sedna_db.Governor.t;
  primary : Sedna_core.Database.t;
  sender : Repl_sender.t; standby : Repl_receiver.t;
}

val start_pair : dir:string -> Sedna_core.Database.t -> pair
(** Register the database as ["db"] on a new governor, ship it, and
    start a standby under [dir/standby] on a second governor. *)

val caught_up : pair -> bool
(** Wait (up to 10 s) until the standby has applied the primary's WAL
    tip. *)

val stop_pair : pair -> unit

val flip_byte : Sedna_core.Database.t -> int -> unit
(** XOR one byte of this page in the data file, behind the buffer
    pool; a second call undoes it. *)
