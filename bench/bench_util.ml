(* Timing and reporting helpers shared by all experiments.

   Wall-clock measurements use repeated runs with a warmup and report
   the median; counter-based measurements (disk reads, buffer faults,
   fields updated) come from Sedna_util.Metrics snapshots/diffs and are
   exact — deltas, not resets, so the global totals survive.

   Besides the text output every experiment can [record] values; [main]
   writes them as one machine-readable JSON file at the end
   (BENCH_metrics.json, or $SEDNA_BENCH_JSON). *)

module Metrics = Sedna_util.Metrics

let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  (t1 -. t0, r)

(* median wall time over [runs] executions (after one warmup) *)
let time_median ?(runs = 5) f =
  ignore (f ());
  let samples =
    List.init runs (fun _ ->
        let d, _ = time_once f in
        d)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (runs / 2)

let ms t = t *. 1000.0

let pf = Printf.printf

let header title claim =
  pf "\n==============================================================\n";
  pf "%s\n" title;
  pf "  claim: %s\n" claim;
  pf "--------------------------------------------------------------\n"

let row3 a b c = pf "  %-34s %14s %14s\n" a b c
let row4 a b c d = pf "  %-26s %12s %12s %14s\n" a b c d

(* quick mode: CI smoke runs with scaled-down populations *)
let quick () = Sys.getenv_opt "SEDNA_BENCH_QUICK" <> None

let fresh_db ?(buffer_frames = 1024) () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sedna-bench-%d-%f" (Unix.getpid ()) (Unix.gettimeofday ()))
  in
  Sedna_util.Sysutil.rm_rf dir;
  Sedna_core.Database.create ~buffer_frames dir

let load_events db name events =
  Sedna_core.Database.with_txn db (fun _ st ->
      Sedna_core.Loader.load_events st ~doc_name:name events)

let session ?opts db =
  let s = Sedna_db.Session.connect db in
  (match opts with
   | Some o -> Sedna_db.Session.set_rewriter_options s o
   | None -> ());
  s

let exec s q = Sedna_db.Session.execute_string s q

(* run under a cold buffer: drop every frame first, count disk reads *)
let cold_reads db f =
  ignore (Sedna_core.Buffer_mgr.flush_all (Sedna_core.Database.buffer db));
  Sedna_core.Buffer_mgr.drop_all (Sedna_core.Database.buffer db);
  let before = Sedna_util.Counters.get Sedna_util.Counters.page_reads in
  let r = f () in
  (Sedna_util.Counters.get Sedna_util.Counters.page_reads - before, r)

let counter_during name f =
  let before = Sedna_util.Counters.get name in
  let r = f () in
  (Sedna_util.Counters.get name - before, r)

(* every global counter that moved while [f] ran *)
let deltas_during f =
  let before = Sedna_util.Counters.snapshot_all () in
  let r = f () in
  let after = Sedna_util.Counters.snapshot_all () in
  (Sedna_util.Counters.diff ~before ~after, r)

(* ---- machine-readable metrics output -------------------------------- *)

let recorded : (string * Metrics.json) list ref = ref []

let record key j = recorded := (key, j) :: !recorded
let record_ms key seconds = record key (Metrics.Float (ms seconds))
let record_int key n = record key (Metrics.Int n)

let metrics_json_path () =
  Option.value (Sys.getenv_opt "SEDNA_BENCH_JSON") ~default:"BENCH_metrics.json"

(* One JSON document: everything the experiments recorded, plus the
   final global counters and registered histograms. *)
let write_metrics_json () =
  let doc =
    Metrics.Obj
      [
        ("quick", Metrics.Bool (quick ()));
        ("experiments", Metrics.Obj (List.rev !recorded));
        ( "counters",
          Metrics.Obj
            (List.map (fun (k, v) -> (k, Metrics.Int v)) (Sedna_util.Counters.snapshot ()))
        );
        ( "histograms",
          Metrics.Obj
            (List.map
               (fun h -> (Metrics.hist_name h, Metrics.hist_to_json h))
               (Metrics.histograms ())) );
      ]
  in
  let path = metrics_json_path () in
  let oc = open_out path in
  output_string oc (Metrics.json_to_string doc);
  output_char oc '\n';
  close_out oc;
  pf "\nmetrics json written to %s\n" path
