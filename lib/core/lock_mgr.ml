(* Strict two-phase locking at document granularity (paper §6.2).

   Transactions acquire S or X locks on document names and hold them to
   commit/abort.  Conflicts are reported to the caller, which may
   enqueue the request; a wait-for graph detects deadlocks.  The engine
   is single-process, so "waiting" is cooperative: the scheduler in the
   tests/benches retries blocked transactions. *)

type mode = Shared | Exclusive

type entry = {
  mutable holders : (int * mode) list; (* txn id, mode *)
  mutable queue : (int * mode) list; (* FIFO of waiters *)
}

type t = {
  table : (string, entry) Hashtbl.t;
  wait_for : (int, int list) Hashtbl.t; (* waiter -> holders it waits on *)
}

type outcome = Granted | Blocked | Deadlock_detected

let create () = { table = Hashtbl.create 16; wait_for = Hashtbl.create 16 }

let entry t name =
  match Hashtbl.find_opt t.table name with
  | Some e -> e
  | None ->
    let e = { holders = []; queue = [] } in
    Hashtbl.add t.table name e;
    e

let compatible requested holders ~requester =
  List.for_all
    (fun (txn, mode) ->
      txn = requester
      || match (requested, mode) with Shared, Shared -> true | _ -> false)
    holders

(* Would granting [txn] create a cycle in the wait-for graph? *)
let creates_cycle t ~waiter ~blockers =
  let rec reachable seen from target =
    if from = target then true
    else if List.mem from seen then false
    else
      let next = Option.value (Hashtbl.find_opt t.wait_for from) ~default:[] in
      List.exists (fun n -> reachable (from :: seen) n target) next
  in
  List.exists (fun b -> reachable [] b waiter) blockers

let holds t name txn =
  match Hashtbl.find_opt t.table name with
  | None -> None
  | Some e -> List.assoc_opt txn e.holders

let acquire t ~txn ~name ~mode : outcome =
  let e = entry t name in
  match List.assoc_opt txn e.holders with
  | Some Exclusive -> Granted (* already strongest *)
  | Some Shared when mode = Shared -> Granted
  | Some Shared ->
    (* upgrade S -> X: grantable iff sole holder *)
    if List.for_all (fun (h, _) -> h = txn) e.holders then begin
      e.holders <- [ (txn, Exclusive) ];
      Granted
    end
    else begin
      let blockers =
        List.filter_map (fun (h, _) -> if h <> txn then Some h else None)
          e.holders
      in
      if creates_cycle t ~waiter:txn ~blockers then Deadlock_detected
      else begin
        Hashtbl.replace t.wait_for txn blockers;
        if not (List.mem_assoc txn e.queue) then e.queue <- e.queue @ [ (txn, mode) ];
        Blocked
      end
    end
  | None ->
    if compatible mode e.holders ~requester:txn && e.queue = [] then begin
      e.holders <- (txn, mode) :: e.holders;
      Granted
    end
    else begin
      let blockers = List.map fst e.holders in
      if creates_cycle t ~waiter:txn ~blockers then Deadlock_detected
      else begin
        Hashtbl.replace t.wait_for txn blockers;
        if not (List.mem_assoc txn e.queue) then e.queue <- e.queue @ [ (txn, mode) ];
        Blocked
      end
    end

(* Release everything held or queued by [txn]; then promote waiters. *)
let release_all t ~txn =
  Hashtbl.remove t.wait_for txn;
  Hashtbl.iter
    (fun _ e ->
      e.holders <- List.filter (fun (h, _) -> h <> txn) e.holders;
      e.queue <- List.filter (fun (h, _) -> h <> txn) e.queue)
    t.table;
  (* grant queued requests that have become compatible, FIFO *)
  Hashtbl.iter
    (fun _ e ->
      let rec promote () =
        match e.queue with
        | (w, m) :: rest when compatible m e.holders ~requester:w ->
          (* an upgrade waiter replaces its shared hold *)
          e.holders <- (w, m) :: List.filter (fun (h, _) -> h <> w) e.holders;
          e.queue <- rest;
          Hashtbl.remove t.wait_for w;
          promote ()
        | _ -> ()
      in
      promote ())
    t.table

(* For diagnostics and tests. *)
let holders t name =
  match Hashtbl.find_opt t.table name with
  | None -> []
  | Some e -> e.holders

let waiters t name =
  match Hashtbl.find_opt t.table name with
  | None -> []
  | Some e -> e.queue

let pp_mode ppf = function
  | Shared -> Format.pp_print_string ppf "S"
  | Exclusive -> Format.pp_print_string ppf "X"
