(* Snapshot-based page multiversioning (paper §6.1).

   Data elements are pages.  A snapshot is logically a pair
   (timestamp, list of active transactions); here read-only
   transactions register the timestamp they read at, and the version
   manager keeps, for every page, the displaced committed images that
   some registered snapshot still needs.

   Old versions are purged exactly when they belong to no snapshot;
   the check happens when a new version is created (at commit install),
   as in the paper. *)

type saved = { version_ts : int; image : Bytes.t }

(* keyed by page id: monomorphic lookups on the snapshot read path *)
module Pages = Hashtbl.Make (Int)

type t = {
  versions : saved list Pages.t; (* pid -> newest first *)
  current_ts : int Pages.t; (* pid -> commit ts of current image *)
  mutable snapshots : (int * int ref) list; (* (ts, refcount), any order *)
  mutable last_commit_ts : int;
}

let create () =
  {
    versions = Pages.create 256;
    current_ts = Pages.create 256;
    snapshots = [];
    last_commit_ts = 0;
  }

let last_commit_ts t = t.last_commit_ts
let set_last_commit_ts t ts = t.last_commit_ts <- max t.last_commit_ts ts

(* ---- snapshots ---------------------------------------------------- *)

(* A read-only transaction acquires the latest committed timestamp as
   its snapshot.  Snapshots are advanced implicitly: each new reader
   sees the latest commit (the paper advances them periodically; our
   advancement granularity is per-acquire, a valid special case). *)
let acquire_snapshot t =
  let ts = t.last_commit_ts in
  (match List.assoc_opt ts t.snapshots with
   | Some rc -> incr rc
   | None -> t.snapshots <- (ts, ref 1) :: t.snapshots);
  ts

let release_snapshot t ts =
  match List.assoc_opt ts t.snapshots with
  | Some rc ->
    decr rc;
    if !rc <= 0 then begin
      t.snapshots <- List.filter (fun (s, _) -> s <> ts) t.snapshots;
      (* purge versions needed by no remaining snapshot *)
      let needed version_ts until =
        List.exists (fun (s, _) -> version_ts <= s && s < until) t.snapshots
      in
      let prune pid lst =
        (* a saved version v is valid until the ts of the next newer
           kept version, or the current image's ts if none is newer *)
        let rec keep newer_kept = function
          | [] -> List.rev newer_kept
          | v :: older ->
            let until =
              match newer_kept with
              | newer :: _ -> newer.version_ts
              | [] -> (
                match Pages.find_opt t.current_ts pid with
                | Some c -> c
                | None -> max_int)
            in
            if needed v.version_ts until then keep (v :: newer_kept) older
            else keep newer_kept older
        in
        (* input and output are newest-first *)
        keep [] lst |> List.rev
      in
      Pages.iter
        (fun pid lst -> Pages.replace t.versions pid (prune pid lst))
        (Pages.copy t.versions);
      Pages.iter
        (fun pid lst -> if lst = [] then Pages.remove t.versions pid)
        (Pages.copy t.versions)
    end
  | None -> ()

let active_snapshots t = List.map fst t.snapshots

(* ---- version creation at commit ----------------------------------- *)

(* When a transaction commits at [commit_ts], the displaced committed
   image of each page it wrote (captured before its first write) may
   still be needed by an active snapshot: its validity interval is
   [version_ts, commit_ts).  Keep it only in that case — the paper's
   purge-on-creation rule. *)
let install_commit t ~commit_ts pages =
  List.iter
    (fun (pid, before_image) ->
      let version_ts =
        match Pages.find_opt t.current_ts pid with Some c -> c | None -> 0
      in
      let needed =
        List.exists
          (fun (s, _) -> version_ts <= s && s < commit_ts)
          t.snapshots
      in
      if needed then begin
        let existing =
          Option.value (Pages.find_opt t.versions pid) ~default:[]
        in
        Pages.replace t.versions pid
          ({ version_ts; image = before_image } :: existing)
      end;
      Pages.replace t.current_ts pid commit_ts)
    pages;
  t.last_commit_ts <- max t.last_commit_ts commit_ts

(* ---- reads --------------------------------------------------------- *)

(* For a reader at snapshot [ts]: [None] means the current buffer image
   is the right version; [Some img] is an older saved image. *)
let read_for_snapshot t ~snapshot_ts pid =
  let current =
    match Pages.find_opt t.current_ts pid with Some c -> c | None -> 0
  in
  if current <= snapshot_ts then None
  else
    let saved = Option.value (Pages.find_opt t.versions pid) ~default:[] in
    (* newest first; pick the newest with version_ts <= snapshot *)
    let rec pick = function
      | [] -> None
      | v :: rest -> if v.version_ts <= snapshot_ts then Some v.image else pick rest
    in
    pick saved

let version_count t =
  Pages.fold (fun _ l acc -> acc + List.length l) t.versions 0

let clear t =
  Pages.reset t.versions;
  Pages.reset t.current_ts;
  t.snapshots <- []
