(* Fault injection for crash-safety and network-chaos testing (cf. the
   torn-write / crash-point discipline of production storage engines).

   One registry holds every named *site*, and each site belongs to one
   plane, fixed when it registers:

   - storage sites sit at the operations whose failure must be
     survivable: page writes, fsyncs, WAL appends, buffer flushes,
     backup copies.  The chosen hit raises [Injected_fault] (an I/O
     error the engine must turn into a clean transaction abort),
     [Injected_crash] (a simulated process death the harness catches
     before reopening the database), a real ENOSPC, or asks a [torn]
     caller to persist only a prefix of its buffer before the crash;
   - the three network sites ([net.send], [net.recv], [net.accept]) sit
     in the wire layer around every frame and accepted connection.  A
     firing policy drops, duplicates, tears or delays the frame, or
     refuses the connection.

   A site is a cheap hit counter until a *policy* is armed on it.
   Besides site policies the network plane has *partitions*: directed
   pairs of connection roles ("primary" -> "standby").  While one is
   active every send and recv on a connection registered with those
   roles blocks until it heals — modelling TCP retransmission during a
   link failure rather than byte loss; heartbeat timeouts above the
   wire decide when a blocked peer counts as dead.

   Probabilistic triggers use a per-policy LCG with an explicit seed,
   so every run of a drill is reproducible. *)

exception Injected_fault of string
exception Injected_crash of string

type plane = Storage | Network

type action = Fail | Crash | Torn | Enospc | Drop | Dup | Delay of float (* seconds *)

module Trigger = struct
  type t =
    | Nth of int (* fire on the Nth hit after arming (1-based), once *)
    | Every of int (* fire on every Nth hit after arming *)
    | Prob of float * int (* probability per hit, deterministic seed *)

  (* per-armed-policy mutable half: hit count since arming + LCG state *)
  type state = { mutable hits : int; mutable rng : int }

  let state = function
    | Prob (_, seed) -> { hits = 0; rng = (2 * seed) + 1 }
    | _ -> { hits = 0; rng = 1 }

  (* minimal-standard LCG; only the trigger decision consumes it *)
  let next_rng st =
    st.rng <- st.rng * 48271 mod 0x7FFFFFFF;
    st.rng

  (* record one hit against the armed policy and decide whether it
     fires.  [Nth] policies are one-shot: the caller disarms on fire. *)
  let fire st t =
    st.hits <- st.hits + 1;
    match t with
    | Nth n -> st.hits = n
    | Every n -> n > 0 && st.hits mod n = 0
    | Prob (p, _) -> float_of_int (next_rng st) /. 2147483647.0 < p

  let one_shot = function Nth _ -> true | Every _ | Prob _ -> false

  (* the suffix after the action name: "" | "@N" | "@N+" | "%P[/SEED]" *)
  let parse rest =
    if rest = "" then Nth 1
    else if rest.[0] = '@' then begin
      let num = String.sub rest 1 (String.length rest - 1) in
      if num <> "" && num.[String.length num - 1] = '+' then
        Every (int_of_string (String.sub num 0 (String.length num - 1)))
      else Nth (int_of_string num)
    end
    else if rest.[0] = '%' then begin
      let body = String.sub rest 1 (String.length rest - 1) in
      match String.index_opt body '/' with
      | Some i ->
        Prob
          ( float_of_string (String.sub body 0 i),
            int_of_string (String.sub body (i + 1) (String.length body - i - 1)) )
      | None -> Prob (float_of_string body, 1)
    end
    else invalid_arg (Printf.sprintf "Fault.Trigger.parse: bad trigger in %S" rest)

  let to_string = function
    | Nth 1 -> ""
    | Nth n -> Printf.sprintf "@%d" n
    | Every n -> Printf.sprintf "@%d+" n
    | Prob (pr, seed) -> Printf.sprintf "%%%g/%d" pr seed
end

type trigger = Trigger.t =
  | Nth of int
  | Every of int
  | Prob of float * int

type policy = { action : action; trigger : trigger }

type verdict = Proceed | Short_write of int

type frame_verdict = Pass | Drop_frame | Dup_frame | Torn_frame of int

type site = {
  name : string;
  plane : plane;
  mutable armed : (policy * Trigger.state) option;
  hits : int ref; (* total hits, shared with the global counter table *)
}

let registry : (string, site) Hashtbl.t = Hashtbl.create 16

(* A storage site counts its hits as [fault.hit.<name>]; the network
   sites' counters are the site names themselves ([net.send], ...),
   which /metrics exports as [sedna_net_send]. *)
let add_site plane name =
  match Hashtbl.find_opt registry name with
  | Some s when s.plane = plane -> s
  | Some _ -> invalid_arg (Printf.sprintf "Fault.site: %S is a network site" name)
  | None ->
    let cell = match plane with Storage -> "fault.hit." ^ name | Network -> name in
    let s = { name; plane; armed = None; hits = Counters.cell cell } in
    Hashtbl.add registry name s;
    s

let site = add_site Storage
let send_site = add_site Network Counters.net_send
let recv_site = add_site Network Counters.net_recv
let accept_site = add_site Network Counters.net_accept

let sites ?plane () =
  Hashtbl.fold
    (fun n s acc -> if plane = None || plane = Some s.plane then n :: acc else acc)
    registry []
  |> List.sort String.compare

let site_hits s = !(s.hits)

let action_name = function
  | Fail -> "fail"
  | Crash -> "crash"
  | Torn -> "torn"
  | Enospc -> "enospc"
  | Drop -> "drop"
  | Dup -> "dup"
  | Delay s -> Printf.sprintf "delay=%g" (s *. 1000.)

(* [torn] is the one action both planes know: a torn page or WAL frame
   on disk, a torn wire frame on the network *)
let fits plane = function
  | Torn -> true
  | Fail | Crash | Enospc -> plane = Storage
  | Drop | Dup | Delay _ -> plane = Network

let policy_to_string p = action_name p.action ^ Trigger.to_string p.trigger

(* ---- connection roles and partitions ---------------------------------- *)

(* Every wire connection may register who it is and who it talks to
   ("client" -> "server", "standby" -> "primary", ...).  A send or recv
   on a registered fd whose direction is partitioned blocks until
   healed. *)

let mu = Mutex.create ()
let roles : (Unix.file_descr, string * string) Hashtbl.t = Hashtbl.create 16
let parts : (string * string) list ref = ref []

(* fds whose partition-block must end NOW: set by the owner of a
   connection that is being shut down while its direction is
   partitioned (otherwise stop/promote would deadlock waiting on the
   thread parked in [wait_heal]).  The unblocked I/O then fails at the
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

let partition ~both a b =
  locked (fun () ->
      let add p = if not (List.mem p !parts) then parts := p :: !parts in
      add (a, b);
      if both then add (b, a))

let heal_all () = locked (fun () -> parts := [])
let partitions () = locked (fun () -> List.rev !parts)

let blocked dir =
  match dir with
  | None -> false
  | Some d -> locked (fun () -> List.mem d !parts)

(* Block while the fd's direction is partitioned.  5ms poll: coarse
   enough to be cheap, fine enough that a heal is seen promptly. *)
let wait_heal fd =
  let dir = locked (fun () -> Hashtbl.find_opt roles fd) in
  while blocked dir && not (interrupted fd) do
    Unix.sleepf 0.005
  done

(* ---- arming ----------------------------------------------------------- *)

let arm name policy =
  match Hashtbl.find_opt registry name with
  | None -> invalid_arg (Printf.sprintf "unknown fault site %S" name)
  | Some s when not (fits s.plane policy.action) ->
    invalid_arg
      (Printf.sprintf "Fault.arm: %s is not an action of the %s site %S"
         (action_name policy.action)
         (match s.plane with Storage -> "storage" | Network -> "network")
         name)
  | Some s -> s.armed <- Some (policy, Trigger.state policy.trigger)

let disarm name =
  match Hashtbl.find_opt registry name with Some s -> s.armed <- None | None -> ()

let disarm_all () =
  Hashtbl.iter (fun _ s -> s.armed <- None) registry;
  heal_all ()

let armed_count () =
  Hashtbl.fold (fun _ s acc -> if s.armed = None then acc else acc + 1) registry 0
  + List.length (partitions ())

(* Arm a policy for the duration of a closure (tests). *)
let with_armed name policy f =
  arm name policy;
  Fun.protect ~finally:(fun () -> disarm name) f

(* ---- policy specs ----------------------------------------------------

   Grammar (the SEDNA_FAULT form, comma-separated):
     <site>:<action>[@N[+]][%P[/SEED]]   part:<a>-><b>   part:<a><-><b>

     wal.append:crash@2        crash on the 2nd WAL append
     file_store.write:torn     torn page write on the 1st write
     wal.sync:fail@3+          fsync error on every 3rd sync
     buffer.flush:fail%0.25/7  25% of flushes fail, seed 7
     net.recv:delay=50@2+      hold every 2nd received frame 50ms
     net.accept:drop@1+        refuse every connection
     part:primary->standby     one-way partition by connection role *)

(* split [s] at the first occurrence of [sep] *)
let cut sep s =
  let n = String.length s and m = String.length sep in
  let rec at j =
    if j + m > n then None
    else if String.sub s j m = sep then Some (String.sub s 0 j, String.sub s (j + m) (n - j - m))
    else at (j + 1)
  in
  at 0

(* action token: everything before the trigger suffix ('@' or '%') *)
let parse_policy spec =
  let n = String.length spec in
  let rec stop i = if i >= n || spec.[i] = '@' || spec.[i] = '%' then i else stop (i + 1) in
  let i = stop 0 in
  let action =
    match String.sub spec 0 i with
    | "fail" -> Fail
    | "crash" -> Crash
    | "torn" -> Torn
    | "enospc" -> Enospc
    | "drop" -> Drop
    | "dup" -> Dup
    | tok when String.starts_with ~prefix:"delay=" tok ->
      Delay (float_of_string (String.sub tok 6 (String.length tok - 6)) /. 1000.)
    | _ -> invalid_arg (Printf.sprintf "Fault.parse_policy: bad action in %S" spec)
  in
  { action; trigger = Trigger.parse (String.sub spec i (n - i)) }

let parse_spec spec =
  match cut ":" spec with
  | None -> invalid_arg (Printf.sprintf "Fault.parse_spec: missing ':' in %S" spec)
  | Some (name, policy) -> (name, parse_policy policy)

let arm_spec spec =
  match cut ":" spec with
  | Some ("part", body) -> (
    match (cut "<->" body, cut "->" body) with
    | Some (a, b), _ -> partition ~both:true a b
    | None, Some (a, b) -> partition ~both:false a b
    | None, None -> invalid_arg (Printf.sprintf "Fault.arm_spec: bad partition %S" spec))
  | _ ->
    let name, policy = parse_spec spec in
    arm name policy

let env_var = "SEDNA_FAULT"

let arm_from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> ()
  | Some v -> List.iter (fun s -> if s <> "" then arm_spec s) (String.split_on_char ',' v)

(* ---- the injection points -------------------------------------------- *)

(* One hit: bump the counter and return the armed action if it fires. *)
let fired s =
  incr s.hits;
  match s.armed with
  | None -> None
  | Some (policy, st) ->
    if not (Trigger.fire st policy.trigger) then None
    else begin
      if Trigger.one_shot policy.trigger then s.armed <- None;
      Some policy.action
    end

let record_fired action =
  Counters.bump Counters.fault_injected;
  Counters.bump (Counters.fault_injected ^ "." ^ action_name action)

(* Raise the simulated process death; [hit] has already recorded the
   injection, so this is bare (the torn-write caller lands here after
   its partial write). *)
let crash s = raise (Injected_crash s.name)

(* The storage injection point.  [len] is the size of the buffer about
   to be written, for [Torn] policies; a torn verdict asks the caller
   to write only that prefix and then call {!crash}.  Nothing to tear
   turns [torn] into a plain crash. *)
let hit ?len s : verdict =
  match (fired s, len) with
  | None, _ -> Proceed
  | Some Torn, Some len when len > 1 ->
    record_fired Torn;
    Short_write (len / 2)
  | Some Fail, _ ->
    record_fired Fail;
    raise (Injected_fault s.name)
  | Some Enospc, _ ->
    (* a real errno, not [Injected_fault]: disk-full must flow through
       the same classification path as the genuine error *)
    record_fired Enospc;
    raise (Unix.Unix_error (Unix.ENOSPC, "write", s.name))
  | Some _, _ ->
    record_fired Crash;
    crash s

(* [hit] for sites with nothing to tear (fsyncs, resets). *)
let check s = ignore (hit s)

(* The wire injection points: wait out a partition, then apply the
   frame's policy.  [torn] is the prefix a torn frame keeps. *)
let on_frame s fd ~torn =
  wait_heal fd;
  match fired s with
  | None -> Pass
  | Some action -> (
    record_fired action;
    match action with
    | Drop -> Drop_frame
    | Dup -> Dup_frame
    | Torn -> Torn_frame torn
    | Delay d ->
      Unix.sleepf d;
      Pass
    | Fail | Crash | Enospc -> Pass)

(* [len] is the frame size about to be written (header + payload), so
   a torn send keeps a strict prefix; a torn recv is a peer that died
   mid-frame *)
let on_send fd ~len = on_frame send_site fd ~torn:(max 1 (len / 2))
let on_recv fd = on_frame recv_site fd ~torn:0

(* A fired accept policy of any action refuses the connection (the
   caller closes it), modelling a SYN that never completes.  A clean
   accept registers the connection's roles. *)
let on_accept fd ~local ~peer =
  match fired accept_site with
  | None ->
    register fd ~local ~peer;
    true
  | Some action ->
    record_fired action;
    false

(* One line per registered site, for [\faults]. *)
let report () =
  List.map
    (fun n ->
      let s = Hashtbl.find registry n in
      (n, !(s.hits), Option.map (fun (p, _) -> policy_to_string p) s.armed))
    (sites ())
