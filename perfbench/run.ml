(* One measured run of one workload: the load-generating parent.

   The parent spawns the server child, drives it with [connections]
   closed-loop connections (one thread each, through Server_client),
   discards a warm-up, then measures.  Untraced, it reports the
   end-to-end metrics from client-side timings.  Traced, it alternates
   tracing off and on over [pairs] pairs of equal slices: the "on"
   slices give the per-layer breakdown (client spans joined with the
   child's spans on trace id), and the paired throughputs give the
   tracing overhead. *)

module Client = Sedna_server.Server_client
module Span = Sedna_util.Span
module Counters = Sedna_util.Counters

let connections = 2
let warmup_s = 3.

(* An untraced run is measured in windows of this length and reports
   the median over windows: a burst of interference from other work on
   the machine then moves one window, not the result. *)
let window_s = 2.

(* A traced run alternates tracing off and on over this many pairs of
   slices. *)
let pairs = 10

(* Set-up, start and stop time allowed on top of warm-up and
   measurement before a run counts as hung. *)
let watchdog_s = 140.

(* ---- the child ------------------------------------------------------------- *)

type child = {
  pid : int;
  cmd : out_channel;
  reply : in_channel;
  dir : string;
}

let spawn (w : Workload.t) ~seed ~dir ~count =
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [|
        exe; "server"; "--workload"; w.name; "--seed"; string_of_int seed; "--dir"; dir;
        "--count"; (if count then "1" else "0");
      |]
      child_in child_out Unix.stderr
  in
  Unix.close child_in;
  Unix.close child_out;
  { pid; cmd = Unix.out_channel_of_descr to_child; reply = Unix.in_channel_of_descr from_child; dir }

let read_line ch =
  match input_line ch.reply with
  | l -> l
  | exception End_of_file -> failwith "server child exited unexpectedly"

let send ch cmd =
  output_string ch.cmd (cmd ^ "\n");
  flush ch.cmd

let command ch cmd =
  send ch cmd;
  match read_line ch with "ok" -> () | l -> failwith ("server child: " ^ l)

(* Closing its stdin makes the child stop the server and exit; wait
   for it, then remove its directory. *)
let finish ch =
  (try close_out ch.cmd with Sys_error _ -> ());
  (try close_in ch.reply with Sys_error _ -> ());
  let rec wait () =
    match Unix.waitpid [] ch.pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  ignore (wait ());
  Workload.rm_rf ch.dir

type span = { sp_id : int; sp_parent : int; sp_name : string; sp_start : float; sp_dur : float }

type report = {
  stats : (string, float) Hashtbl.t;
  spans : (string, span list) Hashtbl.t;  (* by trace id *)
}

let stop ch =
  send ch "stop";
  let stats = Hashtbl.create 32 and spans = Hashtbl.create 1024 in
  let rec go () =
    match String.split_on_char ' ' (read_line ch) with
    | [ "end" ] -> ()
    | [ "stat"; k; v ] ->
      Hashtbl.replace stats k (float_of_string v);
      go ()
    | [ "span"; trace; id; parent; name; start; dur ] ->
      let sp =
        {
          sp_id = int_of_string id;
          sp_parent = int_of_string parent;
          sp_name = name;
          sp_start = float_of_string start;
          sp_dur = float_of_string dur;
        }
      in
      Hashtbl.replace spans trace
        (sp :: Option.value (Hashtbl.find_opt spans trace) ~default:[]);
      go ()
    | _ -> failwith "server child: malformed report line"
  in
  go ();
  { stats; spans }

(* ---- closed-loop connections ------------------------------------------------ *)

type sample = {
  slice : int;
  stmt : Workload.stmt;
  lat : float;  (* seconds, send until the whole result arrived *)
  ok : bool;
  trace : string option;
}

(* The controller parks every connection between statements to switch
   phases, so a phase boundary never splits a statement. *)
type ctl = {
  mu : Mutex.t;
  cond : Condition.t;
  mutable paused : bool;
  mutable parked : int;
  mutable gone : int;  (* connections whose thread has ended *)
  mutable cur_slice : int;  (* -1 warm-up, then 0, 1, ... measured slices *)
  mutable cur_traced : bool;
  mutable finished : bool;
}

(* returns the slice to run the next statement in, None once finished *)
let gate ctl =
  Mutex.lock ctl.mu;
  if ctl.paused then begin
    ctl.parked <- ctl.parked + 1;
    Condition.broadcast ctl.cond;
    while ctl.paused do
      Condition.wait ctl.cond ctl.mu
    done;
    ctl.parked <- ctl.parked - 1
  end;
  let r = if ctl.finished then None else Some (ctl.cur_slice, ctl.cur_traced) in
  Mutex.unlock ctl.mu;
  r

let pause ctl =
  Mutex.lock ctl.mu;
  ctl.paused <- true;
  while ctl.parked + ctl.gone < connections do
    Condition.wait ctl.cond ctl.mu
  done;
  Mutex.unlock ctl.mu;
  Unix.gettimeofday ()

let resume ?(finished = false) ctl ~slice ~traced =
  Mutex.lock ctl.mu;
  ctl.cur_slice <- slice;
  ctl.cur_traced <- traced;
  ctl.finished <- finished;
  ctl.paused <- false;
  Condition.broadcast ctl.cond;
  Mutex.unlock ctl.mu;
  Unix.gettimeofday ()

type conn_result = {
  samples : sample list;
  acked_writes : int;
  errors : string list;
  broken : bool;  (* the connection itself failed *)
}

let connection ctl ~port ~next () =
  let samples = ref [] and acked = ref 0 and errors = ref [] and broken = ref false in
  let rec loop c =
    match gate ctl with
    | None -> ()
    | Some (slice, traced) ->
      let stmt : Workload.stmt = next () in
      let t0 = Unix.gettimeofday () in
      let ok =
        match Client.execute c stmt.text with
        | r ->
          let ok = stmt.check r in
          if not ok then
            errors := Printf.sprintf "%s -> %s" stmt.text (Sedna_db.Session.result_to_string r)
                      :: !errors;
          ok
        | exception e ->
          errors := Printf.sprintf "%s -> %s" stmt.text (Printexc.to_string e) :: !errors;
          false
      in
      let lat = Unix.gettimeofday () -. t0 in
      if ok && stmt.cls = Workload.Write then incr acked;
      if slice >= 0 then
        samples :=
          { slice; stmt; lat; ok; trace = (if traced then Client.last_trace_id c else None) }
          :: !samples;
      loop c
  in
  (try
     let c = Client.connect ~port () in
     Fun.protect
       ~finally:(fun () -> Client.close c)
       (fun () ->
         ignore (Client.open_db c "main");
         loop c)
   with e ->
     broken := true;
     errors := ("connection: " ^ Printexc.to_string e) :: !errors);
  Mutex.lock ctl.mu;
  ctl.gone <- ctl.gone + 1;
  Condition.broadcast ctl.cond;
  Mutex.unlock ctl.mu;
  { samples = !samples; acked_writes = !acked; errors = !errors; broken = !broken }

(* ---- metrics ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string; samples : int }

let ms = 1000.

(* Exact percentiles [qs] of the samples' latencies, named [prefix]pNN_ms *)
let latency_metrics ?(qs = [ 0.5; 0.95; 0.99 ]) prefix samples =
  let a = Stats.sorted (List.map (fun s -> s.lat *. ms) samples) in
  List.map
    (fun q ->
      { name = Printf.sprintf "%sp%.0f_ms" prefix (q *. 100.); value = Stats.percentile a q;
        unit = "ms"; samples = Array.length a })
    qs

let stat r k = Option.value (Hashtbl.find_opt r.stats k) ~default:0.

(* self time: duration minus the part of it the span's children cover *)
let self_time spans sp =
  let kids =
    List.filter (fun k -> k.sp_parent = sp.sp_id) spans
    |> List.map (fun k -> (k.sp_start, k.sp_start +. k.sp_dur))
    |> List.sort compare
  in
  let ends = sp.sp_start +. sp.sp_dur in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach and b = Float.min b ends in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0., sp.sp_start) kids
  in
  Float.max 0. (sp.sp_dur -. covered)

(* The per-layer breakdown of a traced run.  [is_on i] tells whether
   slice i was traced and [durations] are the slice lengths; [sends]
   counts the frames the client sent, [counts] holds the counting
   pass.  Layer times are means per statement: they add up to the mean
   latency and are not quantized by the clock the way a percentile of
   microsecond spans is.  Percentiles are printed alongside. *)
let layer_metrics ~rep ~samples ~durations ~is_on ~sends ~counts =
  let stat = stat rep in
  let ratio a b = if b = 0. then 0. else a /. b in
  let n = List.length samples in
  let num ?(samples = n) name unit value = { name; value; unit; samples } in
  let per_stmt k = ratio (stat k) (float_of_int n) in
  let commits =
    List.length (List.filter (fun s -> s.ok && s.stmt.cls = Workload.Write) samples)
  in
  let per_commit k = ratio (stat k) (float_of_int commits) in
  (* join each traced statement's client span with the child's spans *)
  let layers = Hashtbl.create 16 in
  let add k v = Hashtbl.replace layers k (v :: Option.value (Hashtbl.find_opt layers k) ~default:[]) in
  let traced = List.filter (fun s -> is_on s.slice) samples in
  let joined = ref 0 in
  List.iter
    (fun s ->
      let client =
        Option.bind s.trace Span.find
        |> Option.map (List.filter (fun (sp : Span.span) -> sp.sp_name = "client.request"))
      in
      match (client, Option.bind s.trace (Hashtbl.find_opt rep.spans)) with
      | Some [ c ], Some spans when List.exists (fun sp -> sp.sp_name = "server.execute") spans ->
        let total names f =
          List.fold_left
            (fun acc sp -> if List.mem sp.sp_name names then acc +. f sp else acc)
            0. spans
          *. ms
        in
        let dur sp = sp.sp_dur and self sp = self_time spans sp in
        incr joined;
        add "server.wire_ms" ((c.Span.sp_dur *. ms) -. total [ "server.execute"; "server.fetch" ] dur);
        add "governor.engine_wait_ms" (total [ "engine.wait" ] dur);
        add "session.compile_ms" (total [ "compile" ] self);
        add "executor.eval_ms" (total [ "eval" ] self);
        add ("executor.eval_ms." ^ Workload.cls_name s.stmt.cls) (total [ "eval" ] self);
        if s.stmt.cls = Workload.Write then begin
          add "lock_mgr.wait_ms" (total [ "lock.wait" ] dur);
          add "wal.fsync_ms" (total [ "commit.fsync" ] self);
          add "group_commit.park_ms" (total [ "commit.park" ] dur)
        end
      | _ -> ())
    traced;
  let times k = Option.value (Hashtbl.find_opt layers k) ~default:[] in
  let mean k =
    let l = times k in
    num ~samples:(List.length l) (k ^ ".mean") "ms" (if l = [] then 0. else Stats.mean l)
  in
  let pct k q =
    let a = Stats.sorted (times k) in
    let v = Stats.percentile a q in
    num ~samples:(Array.length a) (Printf.sprintf "%s.p%.0f" k (q *. 100.)) "ms"
      (if Float.is_nan v then 0. else v)
  in
  (* paired tracing overhead: throughput off against on within a pair *)
  let tput i =
    float_of_int (List.length (List.filter (fun s -> s.slice = i) samples)) /. durations.(i)
  in
  let overheads =
    Stats.sorted
      (List.init (Array.length durations / 2) (fun p ->
           let on, off = if is_on (2 * p) then (2 * p, (2 * p) + 1) else ((2 * p) + 1, 2 * p) in
           100. *. (tput off -. tput on) /. tput off))
  in
  let q1, q3 = Stats.quartiles overheads in
  let pairs = Array.length overheads in
  (* the counting pass, per statement over every template it ran *)
  let counted = Child.count_stmts * List.length (List.sort_uniq compare (List.map (fun (t, _, _) -> t) counts)) in
  let count_unit k = if k = "wal_bytes" then "B" else "count" in
  let count_total k = List.fold_left (fun a (_, k', v) -> if k' = k then a +. v else a) 0. counts in
  let layers = [ "server.wire_ms"; "governor.engine_wait_ms"; "session.compile_ms"; "executor.eval_ms" ] in
  ( List.map mean layers
    @ [
        num "server.round_trips_per_stmt" "count" (ratio (float_of_int sends) (float_of_int n));
        num "session.plan_hit_ratio" "ratio"
          (ratio (stat Counters.plan_hit) (stat Counters.plan_hit +. stat Counters.plan_miss));
        num "executor.derefs_per_stmt" "count" (per_stmt Counters.deref);
        num "executor.block_touches_per_stmt" "count" (per_stmt Counters.block_touch);
        num "executor.index_probes_per_stmt" "count" (per_stmt Counters.index_probe);
        num "buffer_mgr.faults_per_stmt" "count" (per_stmt Counters.buffer_fault);
        (* a dereference hits through the VAS fast path or the pool's table *)
        num "buffer_mgr.hit_ratio" "ratio"
          (ratio (stat Counters.vas_fast_hit +. stat Counters.buffer_hit) (stat Counters.deref));
        num "buffer_mgr.evictions_per_stmt" "count" (per_stmt "buffer.evict");
        num "buffer_mgr.frames_end" "count" (stat "buffer.frames");
        num "file_store.reads_per_stmt" "count" (per_stmt Counters.page_reads);
        num "file_store.writes_per_stmt" "count" (per_stmt Counters.page_writes);
        num "lock_mgr.restarts_per_kstmt" "count"
          (1000. *. (per_stmt Counters.stmt_lock_restarts +. per_stmt Counters.lock_retry));
        num ~samples:commits "wal.syncs_per_commit" "count" (per_commit Counters.wal_syncs);
        num ~samples:commits "wal.bytes_per_commit" "B" (per_commit "wal.bytes");
        num ~samples:(int_of_float (stat "commit.groups")) "group_commit.group_size_mean" "count"
          (ratio (stat "commit.group_members") (stat "commit.groups"));
        num "gc.minor_words_per_stmt" "count" (per_stmt "gc.minor_words");
        num "gc.major_collections_per_kstmt" "count" (1000. *. per_stmt "gc.major_collections");
        num "gc.top_heap_mb" "MB" (stat "gc.top_heap_words" *. 8. /. 1048576.);
        num ~samples:pairs "trace.overhead_pct" "%" (Stats.median overheads);
      ]
    @ List.map
        (fun k ->
          num ~samples:counted ("count." ^ k ^ "_per_stmt") (count_unit k)
            (ratio (count_total k) (float_of_int counted)))
        (List.map fst Child.count_keys @ [ "wal_bytes" ]),
    List.concat_map (fun k -> [ pct k 0.5; pct k 0.95 ]) layers
    @ List.map (fun k -> pct k 0.5)
        [ "executor.eval_ms.lookup"; "executor.eval_ms.scan"; "executor.eval_ms.write";
          "lock_mgr.wait_ms"; "wal.fsync_ms"; "group_commit.park_ms" ]
    @ [
        num ~samples:pairs "trace.overhead_pct.q1" "%" q1;
        num ~samples:pairs "trace.overhead_pct.q3" "%" q3;
        num ~samples:(List.length traced) "trace.joined_pct" "%"
          (100. *. ratio (float_of_int !joined) (float_of_int (List.length traced)));
      ]
    @ List.map
        (fun (t, k, v) ->
          num ~samples:Child.count_stmts (Printf.sprintf "count.%s.%s" t k) (count_unit k)
            (v /. float_of_int Child.count_stmts))
        (List.sort compare counts) )

(* The end-to-end metrics of an untraced run, from client-side
   timings: throughput and latency percentiles are medians over the
   measurement windows.  p99 and per-class percentiles over all samples
   come back as extras. *)
let end_to_end_metrics ~samples ~durations =
  let n = List.length samples in
  let windows f =
    Stats.median
      (Stats.sorted
         (List.init (Array.length durations) (fun i ->
              f i (List.filter (fun s -> s.slice = i) samples))))
  in
  let window_pct q _ l = Stats.percentile (Stats.sorted (List.map (fun s -> s.lat *. ms) l)) q in
  let num name unit value = { name; value; unit; samples = n } in
  ( [
      num "throughput_ops_s" "1/s" (windows (fun i l -> float_of_int (List.length l) /. durations.(i)));
      num "latency_p50_ms" "ms" (windows (window_pct 0.5));
      num "latency_p95_ms" "ms" (windows (window_pct 0.95));
    ],
    latency_metrics ~qs:[ 0.99 ] "latency_" samples
    @ List.concat_map
         (fun cls ->
           match List.filter (fun s -> s.stmt.cls = cls) samples with
           | [] -> []
           | l -> latency_metrics (Workload.cls_name cls ^ "_") l)
         [ Workload.Lookup; Workload.Scan; Workload.Write ] )

(* ---- one run -------------------------------------------------------------------- *)

type result = {
  workload : Workload.t;
  seed : int;
  traced : bool;
  measured_s : float;
  setups : int;
  attempted : int;
  failed : int;
  correct : bool;
  metrics : metric list;
  extra : metric list;  (* printed and recorded, not part of BENCHMARK.json *)
}

let run (w : Workload.t) ~seed ~seconds ~traced =
  let dir = Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let ch = spawn w ~seed ~dir ~count:traced in
  (* a hung server must end the run with an error, not outlive it *)
  let over = ref false in
  ignore
    (Thread.create
       (fun () ->
         Thread.delay (watchdog_s +. warmup_s +. seconds);
         if not !over then begin
           prerr_endline "run timed out: killing the server";
           (try Unix.kill ch.pid Sys.sigkill with Unix.Unix_error _ -> ());
           finish ch;
           exit 3
         end)
       ());
  let cleanup () =
    over := true;
    finish ch
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let setup_times = ref [] and space = ref (0, 0) and counts = ref [] in
  let rec await () =
    match String.split_on_char ' ' (read_line ch) with
    | [ "ready"; port ] -> int_of_string port
    | [ "setup"; s ] ->
      setup_times := float_of_string s :: !setup_times;
      await ()
    | [ "space"; d; x ] ->
      space := (int_of_string d, int_of_string x);
      await ()
    | [ "count"; tpl; k; v ] ->
      counts := (tpl, k, float_of_string v) :: !counts;
      await ()
    | _ -> failwith "server child: malformed start-up line"
  in
  let port = await () in
  Span.set_enabled false;
  Span.set_capacity 10_000_000;
  let ctl =
    {
      mu = Mutex.create ();
      cond = Condition.create ();
      paused = true;
      parked = 0;
      gone = 0;
      cur_slice = -1;
      cur_traced = false;
      finished = false;
    }
  in
  let results = Array.make connections None in
  let threads =
    List.init connections (fun conn ->
        let next = Workload.stream w w.data ~seed ~conn in
        Thread.create (fun () -> results.(conn) <- Some (connection ctl ~port ~next ())) ())
  in
  ignore (pause ctl);
  ignore (resume ctl ~slice:(-1) ~traced:false);
  Thread.delay warmup_s;
  ignore (pause ctl);
  command ch "start";
  let sends0 = Counters.get Counters.net_send in
  let nslices =
    if traced then 2 * pairs else max 1 (int_of_float (Float.round (seconds /. window_s)))
  in
  let slice_s = seconds /. float_of_int nslices in
  (* pair p runs off-then-on when p is even, on-then-off when odd, so a
     drift over the run does not read as overhead *)
  let is_on i = traced && (i mod 2 = 1) = ((i / 2) mod 2 = 0) in
  let durations =
    Array.init nslices (fun i ->
        let on = is_on i in
        if traced then begin
          command ch (if on then "trace on" else "trace off");
          Span.set_enabled on
        end;
        let t0 = resume ctl ~slice:i ~traced:on in
        Thread.delay slice_s;
        let t1 = pause ctl in
        t1 -. t0)
  in
  Span.set_enabled false;
  let sends = Counters.get Counters.net_send - sends0 in
  let rep = stop ch in
  ignore (resume ~finished:true ctl ~slice:0 ~traced:false);
  List.iter Thread.join threads;
  let conns = Array.to_list results |> List.filter_map Fun.id in
  let samples = List.concat_map (fun (r : conn_result) -> r.samples) conns in
  let acked = List.fold_left (fun a (r : conn_result) -> a + r.acked_writes) 0 conns in
  let errors = List.concat_map (fun (r : conn_result) -> r.errors) conns in
  (* every acknowledged write must be there, and nothing else *)
  let total_ok =
    let q, initial = Workload.written w.data in
    let want = string_of_int (initial + acked) in
    match
      let c = Client.connect ~port () in
      ignore (Client.open_db c "main");
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.execute_string c q)
    with
    | got when got = want -> true
    | got ->
      Printf.printf "  WRONG: %s = %s, want %s (initial %d + %d acknowledged writes)\n" q
        got want initial acked;
      false
    | exception e ->
      Printf.printf "  WRONG: %s raised %s\n" q (Printexc.to_string e);
      false
  in
  List.iteri (fun i e -> if i < 5 then Printf.printf "  FAILED: %s\n" e) errors;
  (* the final count is one more statement whose answer is checked, and
     a connection that broke fails the run *)
  let attempted = List.length samples + 1 in
  let failed =
    List.length (List.filter (fun s -> not s.ok) samples)
    + (if total_ok then 0 else 1)
    + List.length (List.filter (fun (r : conn_result) -> r.broken) conns)
  in
  let measured_s = Array.fold_left ( +. ) 0. durations in
  let setup =
    { name = "setup_s"; value = Stats.median (Stats.sorted !setup_times); unit = "s";
      samples = List.length !setup_times }
  in
  let metrics, extra =
    if traced then
      let per_layer, extra =
        layer_metrics ~rep ~samples ~durations ~is_on ~sends ~counts:!counts
      in
      (per_layer, setup :: extra)
    else
      let timings, extra = end_to_end_metrics ~samples ~durations in
      let d, x = !space in
      ( timings
        @ [
            setup;
            { name = "server_rss_mb"; value = stat rep "rss.peak_kb" /. 1024.; unit = "MB"; samples = 1 };
            { name = "space_amp"; value = float_of_int d /. float_of_int x; unit = "ratio"; samples = 1 };
          ],
        extra )
  in
  {
    workload = w;
    seed;
    traced;
    measured_s;
    setups = List.length !setup_times;
    attempted;
    failed;
    correct = failed = 0;
    metrics;
    extra;
  }
