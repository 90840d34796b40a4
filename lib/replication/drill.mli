(** Seeded fault drills: one runner for every fault plane.

    [run] takes one spec of the {!Sedna_util.Fault} grammar or one named
    cell, drives [<entry>] inserts into a [log] document (each one an op
    of the history), crashes, reopens or promotes where the fault lands,
    and audits: each acked token is on some survivor and every survivor
    passes {!Sedna_core.Integrity.check_document}.  The spec picks the
    topology:
    - a storage site outside [repl.*] runs one node: crash, reopen,
      recover, restore a mid-run backup;
    - a [repl.*] site runs a primary/standby pair with a forced
      re-seed, then promotes;
    - a chaos cell ({!cells}), a [net.*] site or a [part:] partition
      runs the pair behind TCP servers: wire clients, mid-run
      promotion, fencing, online scrub repair;
    - a heal cell ({!heal_cells}) runs the pair behind a TCP server:
      ["scrub"] repairs a WAL victim and a standby victim online under
      client load, ["enospc"] degrades the node at the store probe and
      at the group-commit fsync and needs two automatic recoveries.

    CRASH ({!specs}), CHAOS ({!cells}) and HEAL ({!heal_cells}) are the
    three schedule sets.  Each topology check that fails is a named
    entry of [failures]; a failing run replays from its [spec] and
    [seed]. *)

type result =
  | Acked of int  (** statement port of the acking node; 0 in-process *)
  | Refused of string  (** SE-READ-ONLY / SE-FENCED / SE-FAILOVER / SE-OVERLOADED *)
  | Failed of string

type op = { client : int; seq : int; token : string; t0 : float; result : result }
(** [token] is the unique text the insert carries; [t0] its invoke
    time ({!Sedna_util.Metrics.mono}). *)

type kind = Local | Pair | Chaos | Heal

val kind_of : string -> kind
(** The topology a spec or cell runs: CRASH's specs are [Local] or
    [Pair], CHAOS's are [Chaos], HEAL's are [Heal]. *)

type outcome = {
  spec : string;  (** the armed spec (chaos cells expanded) *)
  kind : kind;
  seed : int;
  history : op list;  (** completion order *)
  fired : bool;  (** some armed policy injected a fault *)
  injected : int;  (** storage + network injections during the run *)
  crashes : int;  (** injected process deaths *)
  reseeds : int;  (** standby seeds, the initial one included *)
  fenced : bool;  (** the deposed primary ended fenced *)
  repaired : int;  (** pages the scrubber repaired *)
  degraded : int;  (** degraded-mode episodes entered *)
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
    chaos and heal runs.  Never raises: a spec {!Sedna_util.Fault.arm_spec}
    refuses is a failure. *)

val specs : unit -> string list
(** Every registered storage site crossed with [crash@2], [torn@2],
    [fail@1] and [enospc@1]. *)

val cells : string list
(** ["drop"; "delay"; "torn"; "partition"]. *)

val heal_cells : string list
(** ["scrub"; "enospc"]. *)
