(* The server side of a run, in a process of its own (suite.exe
   server ...), so the load generator never competes with the server
   for the OCaml runtime lock.

   It sets the workload's dataset up several times (set-up time is
   reported per attempt, the first copy hosts the counting pass of a
   traced run), serves the last one through Server.start with
   the default configuration, and answers one-line commands on stdin:

     start          snapshot counters, GC statistics and the WAL size
     trace on|off   enable or disable spans
     stop           print the deltas since start and every span recorded,
                    one per line, then "end"
     (EOF)          stop the server and exit

   Everything it prints on stdout is for the parent; each line starts
   with a keyword. *)

module Span = Sedna_util.Span
module Counters = Sedna_util.Counters
module Metrics = Sedna_util.Metrics
module Database = Sedna_core.Database
module Session = Sedna_db.Session

let counters =
  [
    Counters.deref; Counters.block_touch; Counters.index_probe; Counters.buffer_fault;
    Counters.buffer_hit; Counters.vas_fast_hit; "buffer.evict"; Counters.page_reads;
    Counters.page_writes; Counters.wal_syncs; Counters.lock_retry;
    Counters.stmt_lock_restarts; Counters.plan_hit; Counters.plan_miss;
  ]

let group_size = Metrics.histogram "commit.group_size"

let say fmt = Printf.ksprintf print_endline fmt

(* Peak resident set of this process, in KiB. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | l -> (
        match Scanf.sscanf l "VmHWM: %d kB" Fun.id with
        | kb -> kb
        | exception _ -> scan ())
    in
    let kb = scan () in
    close_in ic;
    kb

(* What the counting pass reports per template, by metric name. *)
let count_keys =
  [
    ("derefs", Counters.deref);
    ("block_touches", Counters.block_touch);
    ("index_probes", Counters.index_probe);
    ("faults", Counters.buffer_fault);
    ("disk_reads", Counters.page_reads);
  ]

let count_stmts = 50

(* The counting pass: one session, no server, [count_stmts] seeded
   statements per template.  A template starts from an emptied pool
   when the data does not fit the pool, so its faults and reads are
   those of a cold lookup.  Run on a set-up copy that is thrown away
   afterwards, so the measured database never sees these statements.
   Its counts repeat exactly for a given seed. *)
let counting_pass (w : Workload.t) db ~seed =
  let s = Session.connect db in
  let bm = Database.buffer db in
  let wal = Database.wal db in
  let data_pages =
    (Unix.stat (Filename.concat (Database.directory db) "data.sdb")).Unix.st_size
    / Sedna_core.Page.page_size
  in
  let cold = data_pages > Sedna_core.Buffer_mgr.frame_count bm in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun conn ->
      List.iter
        (fun (_, tpl) ->
          let rng = Random.State.make [| seed; conn; 2 |] in
          let stmts = List.init count_stmts (fun _ -> tpl rng) in
          let name = (List.hd stmts).Workload.tpl in
          if not (Hashtbl.mem seen name) then begin
            Hashtbl.add seen name ();
            if cold then begin
              ignore (Sedna_core.Buffer_mgr.flush_all bm);
              Sedna_core.Buffer_mgr.drop_all bm
            end;
            let c0 = List.map (fun (_, k) -> Counters.get k) count_keys in
            let wal0 = Sedna_core.Wal.size wal in
            List.iter
              (fun (st : Workload.stmt) ->
                if not (st.check (Session.execute s st.text)) then
                  failwith ("counting pass: wrong answer to " ^ st.text))
              stmts;
            List.iter2
              (fun (m, k) v0 -> say "count %s %s %d" name m (Counters.get k - v0))
              count_keys c0;
            say "count %s wal_bytes %d" name (Sedna_core.Wal.size wal - wal0)
          end)
        (w.mix w.data ~conn))
    [ 0; 1 ]

type snap = {
  c : int list;
  gc : Gc.stat;
  wal : int;
  groups : int;
  group_sum : float;
}

let snap db =
  {
    c = List.map Counters.get counters;
    gc = Gc.quick_stat ();
    wal = Sedna_core.Wal.size (Database.wal db);
    groups = Metrics.hist_count group_size;
    group_sum = Metrics.hist_sum group_size;
  }

let report db s0 =
  let s1 = snap db in
  List.iter2 (fun k (a, b) -> say "stat %s %d" k (b - a)) counters
    (List.combine s0.c s1.c);
  say "stat wal.bytes %d" (s1.wal - s0.wal);
  say "stat commit.groups %d" (s1.groups - s0.groups);
  say "stat commit.group_members %.0f" (s1.group_sum -. s0.group_sum);
  say "stat gc.minor_words %.0f" (s1.gc.Gc.minor_words -. s0.gc.Gc.minor_words);
  say "stat gc.major_collections %d"
    (s1.gc.Gc.major_collections - s0.gc.Gc.major_collections);
  say "stat gc.top_heap_words %d" s1.gc.Gc.top_heap_words;
  say "stat buffer.frames %d" (Sedna_core.Buffer_mgr.frame_count (Database.buffer db));
  say "stat rss.peak_kb %d" (peak_rss_kb ());
  List.iter
    (fun (_, spans) ->
      List.iter
        (fun (sp : Span.span) ->
          Printf.printf "span %s %d %d %s %.9f %.9f\n" sp.sp_trace sp.sp_id sp.sp_parent
            sp.sp_name sp.sp_start sp.sp_dur)
        spans)
    (Span.traces ());
  Span.clear ();
  say "end"

(* Set-up repeats at least [min_setups] times and until it has taken
   [setup_budget_s] in all, so a set-up of a few milliseconds still
   reports a steady median. *)
let min_setups = 3
let max_setups = 25
let setup_budget_s = 1.0

let main (w : Workload.t) ~seed ~dir ~count =
  Span.set_enabled false;
  (* one trace per statement: the store must not drop any *)
  Span.set_capacity 10_000_000;
  let rec setup i spent =
    let d = Filename.concat dir (string_of_int i) in
    let t0 = Unix.gettimeofday () in
    let db, xml_bytes = Workload.build w w.data ~seed ~dir:d in
    let took = Unix.gettimeofday () -. t0 in
    say "setup %.9f" took;
    let spent = spent +. took in
    if i + 1 < min_setups || (spent < setup_budget_s && i + 1 < max_setups) then begin
      if count && i = 0 then counting_pass w db ~seed;
      Database.close db;
      Workload.rm_rf d;
      setup (i + 1) spent
    end
    else begin
      say "space %d %d" (Workload.dir_bytes d) xml_bytes;
      db
    end
  in
  let db = setup 0 0. in
  let gov = Sedna_db.Governor.create () in
  Sedna_db.Governor.register_database gov ~name:"main" db;
  let srv = Sedna_server.Server.start ~config:Sedna_server.Server.default_config gov in
  say "ready %d" (Sedna_server.Server.port srv);
  let s0 = ref (snap db) in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | cmd ->
      (match cmd with
       | "start" ->
         Span.clear ();
         s0 := snap db;
         say "ok"
       | "trace on" ->
         Span.set_enabled true;
         say "ok"
       | "trace off" ->
         Span.set_enabled false;
         say "ok"
       | "stop" -> report db !s0
       | _ -> say "error unknown command %S" cmd);
      loop ()
  in
  loop ();
  Sedna_server.Server.stop srv
