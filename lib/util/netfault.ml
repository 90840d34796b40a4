(* Deterministic network fault injection.

   The wire layer ({!Wire}) calls {!on_send} / {!on_recv} around every
   length-prefixed frame and {!on_accept} for every accepted
   connection.  Like {!Fault}'s crash sites, each call is a cheap
   counter bump until a policy is armed; then the triggering hit
   injects network weather:

     drop        the frame silently vanishes (sender believes it went)
     dup         the frame is transmitted twice
     torn        only a prefix of the frame is written, then the
                 connection is killed — the peer sees EOF mid-frame
     delay=MS    the frame is held for MS milliseconds

   plus *partitions*, which are not per-frame policies but a set of
   directed role pairs: while ["primary" -> "standby"] is partitioned,
   every send on a connection registered with those roles blocks until
   the partition heals — modelling TCP retransmission during a link
   failure rather than byte loss.  Heartbeat timeouts above the wire
   decide when a blocked peer counts as dead.

   Triggers reuse {!Fault.Trigger} (same [@N]/[@N+]/[%P/SEED] grammar,
   same LCG), so a seeded schedule replays identically.  Armed via
   [SEDNA_NETFAULT] or the [\netfaults] CLI. *)

module Trigger = Fault.Trigger

type action = Drop | Dup | Torn | Delay of float (* seconds *)

type policy = { action : action; trigger : Trigger.t }

type verdict = Proceed | Drop_frame | Dup_frame | Torn_frame of int

let action_name = function
  | Drop -> "drop"
  | Dup -> "dup"
  | Torn -> "torn"
  | Delay s -> Printf.sprintf "delay=%g" (s *. 1000.)

let policy_to_string p = action_name p.action ^ Trigger.to_string p.trigger

type site = {
  name : string;
  mutable armed : (policy * Trigger.state) option;
  hits : int ref;
}

let mk name = { name; armed = None; hits = Counters.cell name }

(* the three sites are fixed — no open registry like Fault's *)
let send_site = mk Counters.net_send
let recv_site = mk Counters.net_recv
let accept_site = mk Counters.net_accept
let sites = [ send_site; recv_site; accept_site ]
let injected_cell = Counters.cell Counters.net_injected

let find name = List.find_opt (fun s -> s.name = name) sites

(* ---- connection roles and partitions --------------------------------- *)

(* Every wire connection may register who it is and who it talks to
   ("client" -> "server", "standby" -> "primary", ...).  Partitions
   are directed pairs of roles; a send or recv on a registered fd
   whose direction is partitioned blocks until healed. *)

let mu = Mutex.create ()
let roles : (Unix.file_descr, string * string) Hashtbl.t = Hashtbl.create 16
let parts : (string * string) list ref = ref []

(* fds whose partition-block must end NOW: set by the owner of a
   connection that is being shut down while its direction is
   partitioned (otherwise stop/promote would deadlock waiting on the
   thread parked in {!wait_heal}).  The unblocked I/O then fails at the
   syscall on the shut-down socket, which the wire layer already
   normalizes.  Cleared on (re-)register: fd numbers are reused. *)
let interrupts : (Unix.file_descr, unit) Hashtbl.t = Hashtbl.create 4

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let register fd ~local ~peer =
  locked (fun () ->
      Hashtbl.remove interrupts fd;
      Hashtbl.replace roles fd (local, peer))

let unregister fd =
  locked (fun () ->
      Hashtbl.remove interrupts fd;
      Hashtbl.remove roles fd)

let interrupt fd = locked (fun () -> Hashtbl.replace interrupts fd ())
let interrupted fd = locked (fun () -> Hashtbl.mem interrupts fd)

let partition ?(both = false) ~from_role ~to_role () =
  locked (fun () ->
      let add p = if not (List.mem p !parts) then parts := p :: !parts in
      add (from_role, to_role);
      if both then add (to_role, from_role))

let heal ?(both = false) ~from_role ~to_role () =
  locked (fun () ->
      let dead p =
        p = (from_role, to_role) || (both && p = (to_role, from_role))
      in
      parts := List.filter (fun p -> not (dead p)) !parts)

let heal_all () = locked (fun () -> parts := [])
let partitions () = locked (fun () -> List.rev !parts)

let direction fd = locked (fun () -> Hashtbl.find_opt roles fd)

let blocked dir =
  match dir with
  | None -> false
  | Some d -> locked (fun () -> List.mem d !parts)

(* Block while the fd's direction is partitioned.  5ms poll: coarse
   enough to be cheap, fine enough that a heal is seen promptly. *)
let wait_heal fd =
  let dir = direction fd in
  while blocked dir && not (interrupted fd) do
    Unix.sleepf 0.005
  done

(* ---- arming ----------------------------------------------------------- *)

let arm name policy =
  match find name with
  | None -> invalid_arg (Printf.sprintf "Netfault.arm: unknown site %S" name)
  | Some s -> s.armed <- Some (policy, Trigger.state policy.trigger)

let disarm name = match find name with None -> () | Some s -> s.armed <- None

let disarm_all () =
  List.iter (fun s -> s.armed <- None) sites;
  heal_all ()

let armed_count () =
  List.fold_left (fun acc s -> if s.armed = None then acc else acc + 1) 0 sites
  + List.length !parts

(* action token: everything before the trigger suffix ('@' or '%') *)
let parse_policy spec =
  let cut =
    let n = String.length spec in
    let rec go i = if i >= n then n else match spec.[i] with '@' | '%' -> i | _ -> go (i + 1) in
    go 0
  in
  let tok = String.sub spec 0 cut in
  let rest = String.sub spec cut (String.length spec - cut) in
  let action =
    match tok with
    | "drop" -> Drop
    | "dup" -> Dup
    | "torn" -> Torn
    | _ when String.length tok > 6 && String.sub tok 0 6 = "delay=" ->
      Delay (float_of_string (String.sub tok 6 (String.length tok - 6)) /. 1000.)
    | _ -> invalid_arg (Printf.sprintf "Netfault.parse_policy: bad action in %S" spec)
  in
  { action; trigger = Trigger.parse rest }

(* one SEDNA_NETFAULT item:
     net.send:drop@3        net.recv:delay=50%0.2/7
     part:primary->standby  part:client<->server        *)
let arm_spec spec =
  match String.index_opt spec ':' with
  | None -> invalid_arg (Printf.sprintf "Netfault.arm_spec: missing ':' in %S" spec)
  | Some i ->
    let head = String.sub spec 0 i in
    let body = String.sub spec (i + 1) (String.length spec - i - 1) in
    if head = "part" then begin
      let split sep =
        match
          let n = String.length body and m = String.length sep in
          let rec at j = if j + m > n then None
            else if String.sub body j m = sep then Some j else at (j + 1)
          in
          at 0
        with
        | Some j ->
          Some (String.sub body 0 j, String.sub body (j + String.length sep)
                  (String.length body - j - String.length sep))
        | None -> None
      in
      match split "<->" with
      | Some (a, b) -> partition ~both:true ~from_role:a ~to_role:b ()
      | None -> (
        match split "->" with
        | Some (a, b) -> partition ~from_role:a ~to_role:b ()
        | None ->
          invalid_arg
            (Printf.sprintf "Netfault.arm_spec: bad partition %S" spec))
    end
    else arm head (parse_policy body)

let env_var = "SEDNA_NETFAULT"

let arm_from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> ()
  | Some v -> List.iter (fun s -> if s <> "" then arm_spec s) (String.split_on_char ',' v)

(* ---- the injection points -------------------------------------------- *)

let record_fired action =
  incr injected_cell;
  Counters.bump (Counters.net_injected ^ "." ^ action_name action)

(* shared decision: did the armed policy fire on this hit? *)
let fired site =
  match site.armed with
  | None -> None
  | Some (policy, st) ->
    if not (Trigger.fire st policy.trigger) then None
    else begin
      if Trigger.one_shot policy.trigger then site.armed <- None;
      record_fired policy.action;
      Some policy.action
    end

(* [len] is the frame size about to be written (header + payload) so a
   torn verdict can ask for a strict prefix. *)
let on_send fd ~len : verdict =
  incr send_site.hits;
  wait_heal fd;
  match fired send_site with
  | None -> Proceed
  | Some Drop -> Drop_frame
  | Some Dup -> Dup_frame
  | Some Torn -> Torn_frame (max 1 (len / 2))
  | Some (Delay s) ->
    Unix.sleepf s;
    Proceed

let on_recv fd : verdict =
  incr recv_site.hits;
  wait_heal fd;
  match fired recv_site with
  | None -> Proceed
  | Some Drop -> Drop_frame
  | Some Dup -> Dup_frame (* receive-side dup needs buffering; treated as no-op by Wire *)
  | Some Torn -> Torn_frame 0 (* peer "died" mid-frame: Wire raises Disconnected *)
  | Some (Delay s) ->
    Unix.sleepf s;
    Proceed

(* Accept-site faults: a fired policy of any action simply refuses the
   connection (Wire closes it immediately), modelling a SYN that never
   completes.  Registers the roles on a clean accept. *)
let on_accept fd ~local ~peer =
  incr accept_site.hits;
  match fired accept_site with
  | None ->
    register fd ~local ~peer;
    true
  | Some _ -> false

(* ---- reporting (the [\netfaults] CLI) -------------------------------- *)

let report () =
  List.map
    (fun s ->
      ( s.name,
        !(s.hits),
        match s.armed with
        | None -> None
        | Some (p, _) -> Some (policy_to_string p) ))
    sites
