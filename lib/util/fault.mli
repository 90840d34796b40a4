(** Fault injection for crash-safety and network-chaos testing.

    One registry of named {e sites}, each on one plane fixed when it
    registers.  Storage layers declare {e storage} sites at
    survivable-failure operations (page writes, fsyncs, WAL appends,
    buffer flushes, backup copies) and call {!hit}/{!check}; the wire
    layer calls {!on_send}/{!on_recv} around every frame and
    {!on_accept} per accepted connection, the three {e network} sites.
    Hitting a site is a counter bump until a {e policy} is armed on it.

    Spec grammar ([SEDNA_FAULT], comma-separated; also [\faults arm]):
    {v
      <site>:<action>[@N | @N+ | %P[/SEED]]
      wal.append:crash@2       crash on the 2nd WAL append
      file_store.write:torn    torn page write on the 1st write
      buffer.flush:fail%0.25/7 25% of flushes fail, seed 7
      net.send:drop@3          drop the 3rd frame sent
      net.recv:delay=50@2+     hold every 2nd received frame 50ms
      part:primary->standby    one-way partition by connection role
      part:client<->server     two-way partition
    v}
    Storage actions: [fail crash torn enospc]; network actions:
    [drop dup torn delay=MS]. *)

exception Injected_fault of string  (** argument is the site name *)

exception Injected_crash of string
(** Simulated process death.  Must escape to the harness untouched: the
    session layer must not try to abort or otherwise write after it. *)

type plane = Storage | Network

type action =
  | Fail
  | Crash
  | Torn  (** both planes: a torn write on disk, a torn frame on the wire *)
  | Enospc
      (** raises a genuine [Unix.Unix_error (ENOSPC, ...)] so disk-full
          takes the same classification path as the real thing *)
  | Drop
  | Dup
  | Delay of float  (** seconds *)

(** The trigger half of the policy grammar: the [@N]/[@N+]/[%P/SEED]
    suffix and its deterministic LCG. *)
module Trigger : sig
  type t =
    | Nth of int  (** fire on the Nth hit after arming (1-based), once *)
    | Every of int  (** fire on every Nth hit after arming *)
    | Prob of float * int  (** probability per hit, deterministic seed *)

  type state
  (** Mutable firing state: hit count since arming plus LCG state. *)

  val state : t -> state
  val fire : state -> t -> bool
  (** Record one hit; [true] iff the policy fires on it. *)

  val parse : string -> t
  (** The suffix after the action name: [""], ["@N"], ["@N+"], or
      ["%P[/SEED]"].  Raises [Invalid_argument] on garbage. *)
end

type trigger = Trigger.t =
  | Nth of int
  | Every of int
  | Prob of float * int

type policy = { action : action; trigger : trigger }
type site

val site : string -> site
(** Register (or look up) a storage site by name.  Layers bind their
    sites at module init so the harness can enumerate them. *)

val sites : ?plane:plane -> unit -> string list
(** Registered site names (of one plane, if given), sorted. *)

val site_hits : site -> int

(** {1 Arming} *)

val arm : string -> policy -> unit
(** Raises [Invalid_argument] for an unregistered site or an action of
    the other plane. *)

val disarm : string -> unit

val disarm_all : unit -> unit
(** Also heals all partitions. *)

val armed_count : unit -> int
(** Armed site policies plus active partition directions. *)

val with_armed : string -> policy -> (unit -> 'a) -> 'a
(** Arm for the duration of a closure, disarming on the way out. *)

val parse_policy : string -> policy
val parse_spec : string -> string * policy
(** ["<site>:<policy>"] *)

val arm_spec : string -> unit
(** One spec of the grammar above, a partition included.  Raises
    [Invalid_argument] where {!arm} does, and on a malformed spec. *)

val env_var : string
(** ["SEDNA_FAULT"] — comma-separated arm specs. *)

val arm_from_env : unit -> unit
val heal_all : unit -> unit
val partitions : unit -> (string * string) list
val policy_to_string : policy -> string

val report : unit -> (string * int * string option) list
(** Per site: name, total hits, armed policy if any. *)

(** {1 Storage injection points} *)

type verdict = Proceed | Short_write of int

val hit : ?len:int -> site -> verdict
(** Always bumps the site's hit counter.  May raise {!Injected_fault},
    {!Injected_crash} or ENOSPC per the armed policy; a [Short_write n]
    verdict asks the caller to write only the first [n] of its [len]
    bytes and then call {!crash}. *)

val check : site -> unit
(** [hit] for sites with nothing to tear (fsyncs, resets). *)

val crash : site -> 'a
(** Raise {!Injected_crash} for this site (after a torn prefix write). *)

(** {1 Network injection points} *)

type frame_verdict =
  | Pass
  | Drop_frame  (** pretend the frame was transmitted *)
  | Dup_frame  (** transmit it twice (send side only) *)
  | Torn_frame of int
      (** send: write only this prefix then kill the connection;
          recv: the peer died mid-frame — surface [Disconnected] *)

val register : Unix.file_descr -> local:string -> peer:string -> unit
(** Declare the connection's direction for partition matching. *)

val unregister : Unix.file_descr -> unit

val interrupt : Unix.file_descr -> unit
(** Unblock any partition wait on this fd: call before shutting the
    socket down, or a thread parked in a partitioned send/recv would
    keep the owner's stop/promote joined on it until the partition
    heals.  The released I/O fails at the syscall instead. *)

val on_send : Unix.file_descr -> len:int -> frame_verdict
(** Called before writing a frame of [len] bytes.  Blocks while the
    fd's direction is partitioned; sleeps for delay policies. *)

val on_recv : Unix.file_descr -> frame_verdict
(** Called before reading a frame. *)

val on_accept : Unix.file_descr -> local:string -> peer:string -> bool
(** Called after [accept].  [false] = refuse (caller closes the fd);
    [true] = proceed (the fd's roles have been registered). *)
