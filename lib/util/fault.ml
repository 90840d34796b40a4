(* Fault injection for crash-safety testing (cf. the torn-write /
   crash-point discipline of production storage engines).

   The storage layers declare named *sites* at the operations whose
   failure must be survivable: page writes, fsyncs, WAL appends, buffer
   flushes, backup copies.  A site is a cheap hit counter until a
   *policy* is armed on it; then the chosen hit raises either
   [Injected_fault] (an I/O error the engine must turn into a clean
   transaction abort) or [Injected_crash] (a simulated process death
   the crash harness catches, after which the database directory is
   reopened and recovery is exercised).  A [Torn] policy additionally
   asks the caller to persist only a prefix of its buffer before the
   crash, simulating a torn write.

   Probabilistic triggers use a per-site LCG with an explicit seed, so
   every run of the harness is reproducible. *)

exception Injected_fault of string
exception Injected_crash of string

type action = Fail | Crash | Torn | Enospc

(* The trigger half of the policy grammar is shared with the network
   chaos layer ({!Netfault}): same suffix syntax, same deterministic
   LCG, so a seed reproduces the same firing pattern in both worlds. *)
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

type site = {
  name : string;
  mutable armed : policy option;
  mutable hits_since_arm : int;
  mutable rng : int; (* LCG state for Prob triggers *)
  hits : int ref; (* total hits, shared with the global counter table *)
}

let registry : (string, site) Hashtbl.t = Hashtbl.create 16

let site name =
  match Hashtbl.find_opt registry name with
  | Some s -> s
  | None ->
    let s =
      {
        name;
        armed = None;
        hits_since_arm = 0;
        rng = 1;
        hits = Counters.cell ("fault.hit." ^ name);
      }
    in
    Hashtbl.add registry name s;
    s

let sites () =
  Hashtbl.fold (fun n _ acc -> n :: acc) registry [] |> List.sort String.compare

let find name = Hashtbl.find_opt registry name
let site_hits s = !(s.hits)
let site_armed s = s.armed

let action_name = function
  | Fail -> "fail"
  | Crash -> "crash"
  | Torn -> "torn"
  | Enospc -> "enospc"

let policy_to_string p = action_name p.action ^ Trigger.to_string p.trigger

let arm name policy =
  let s = site name in
  s.armed <- Some policy;
  s.hits_since_arm <- 0;
  s.rng <- (match policy.trigger with Prob (_, seed) -> (2 * seed) + 1 | _ -> 1)

let disarm name =
  match Hashtbl.find_opt registry name with
  | Some s ->
    s.armed <- None;
    s.hits_since_arm <- 0
  | None -> ()

let disarm_all () = Hashtbl.iter (fun _ s -> s.armed <- None; s.hits_since_arm <- 0) registry

let armed_count () =
  Hashtbl.fold (fun _ s acc -> if s.armed = None then acc else acc + 1) registry 0

(* minimal-standard LCG; only the trigger decision consumes it *)
let next_rng s =
  s.rng <- (s.rng * 48271) mod 0x7FFFFFFF;
  s.rng

let due s policy =
  match policy.trigger with
  | Nth n -> s.hits_since_arm = n
  | Every n -> n > 0 && s.hits_since_arm mod n = 0
  | Prob (p, _) -> float_of_int (next_rng s) /. 2147483647.0 < p

let record_fired action =
  Counters.bump "fault.injected";
  Counters.bump ("fault.injected." ^ action_name action)

(* Raise the simulated process death; [hit] has already recorded the
   injection, so this is bare (the torn-write caller lands here after
   its partial write). *)
let crash s = raise (Injected_crash s.name)

(* The injection point.  [len] is the size of the buffer about to be
   written, for [Torn] policies; a torn verdict asks the caller to
   write only that prefix and then call {!crash}. *)
let hit ?len s : verdict =
  incr s.hits;
  match s.armed with
  | None -> Proceed
  | Some policy ->
    s.hits_since_arm <- s.hits_since_arm + 1;
    if not (due s policy) then Proceed
    else begin
      (match policy.trigger with Nth _ -> s.armed <- None | _ -> ());
      match (policy.action, len) with
      | Fail, _ ->
        record_fired Fail;
        raise (Injected_fault s.name)
      | Crash, _ ->
        record_fired Crash;
        crash s
      | Torn, Some len when len > 1 ->
        record_fired Torn;
        Short_write (len / 2)
      | Torn, _ ->
        record_fired Crash;
        crash s
      | Enospc, _ ->
        (* a real errno, not [Injected_fault]: disk-full must flow
           through the same classification path as the genuine error *)
        record_fired Enospc;
        raise (Unix.Unix_error (Unix.ENOSPC, "write", s.name))
    end

(* [check] for sites with nothing to tear. *)
let check s = ignore (hit s)

(* ---- policy specs ----------------------------------------------------

   Grammar (the SEDNA_FAULT form):   <site>:<action>[@N[+]][%P[/SEED]]
     wal.append:crash@2      crash on the 2nd WAL append
     file_store.write:torn   torn page write on the 1st write
     wal.sync:fail@3+        fsync error on every 3rd sync
     buffer.flush:fail%0.25/7  25% of flushes fail, seed 7              *)

let parse_policy spec =
  let action, rest =
    let take p = String.length spec >= String.length p
                 && String.sub spec 0 (String.length p) = p in
    if take "fail" then (Fail, String.sub spec 4 (String.length spec - 4))
    else if take "crash" then (Crash, String.sub spec 5 (String.length spec - 5))
    else if take "torn" then (Torn, String.sub spec 4 (String.length spec - 4))
    else if take "enospc" then (Enospc, String.sub spec 6 (String.length spec - 6))
    else invalid_arg (Printf.sprintf "Fault.parse_policy: bad action in %S" spec)
  in
  { action; trigger = Trigger.parse rest }

let parse_spec spec =
  match String.index_opt spec ':' with
  | None -> invalid_arg (Printf.sprintf "Fault.parse_spec: missing ':' in %S" spec)
  | Some i ->
    ( String.sub spec 0 i,
      parse_policy (String.sub spec (i + 1) (String.length spec - i - 1)) )

let arm_spec spec =
  let name, policy = parse_spec spec in
  arm name policy

let env_var = "SEDNA_FAULT"

let arm_from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> ()
  | Some v -> List.iter (fun s -> if s <> "" then arm_spec s) (String.split_on_char ',' v)

(* Arm a policy for the duration of a closure (tests). *)
let with_armed name policy f =
  arm name policy;
  Fun.protect ~finally:(fun () -> disarm name) f

(* One line per registered site, for [\faults] and the governor report. *)
let report () =
  List.map
    (fun n ->
      let s = site n in
      ( n,
        !(s.hits),
        match s.armed with None -> None | Some p -> Some (policy_to_string p) ))
    (sites ())
