(* suite --check: every template of every workload, run in-process on a
   miniature and on the measured dataset, against the oracle.  Also
   asserts the set-up guard (Workload.build refuses a reopened pool of
   the wrong size). *)

module Session = Sedna_db.Session

let per_template = 20

let dataset w data ~label ~seed ~dir =
  let t0 = Unix.gettimeofday () in
  let db, _ = Workload.build w data ~seed ~dir in
  let s = Session.connect db in
  let bad = ref 0 and acked = ref 0 and ran = ref 0 in
  let fail text got =
    incr bad;
    Printf.printf "  MISMATCH %s/%s: %s\n    got %s\n%!" w.Workload.name label text got
  in
  List.iter
    (fun conn ->
      List.iter
        (fun (_, tpl) ->
          let rng = Random.State.make [| seed; conn; 1 |] in
          for _ = 1 to per_template do
            let st = tpl rng in
            incr ran;
            match Session.execute s st.Workload.text with
            | r when st.Workload.check r ->
              if st.Workload.cls = Workload.Write then incr acked
            | r -> fail st.Workload.text (Session.result_to_string r)
            | exception e -> fail st.Workload.text (Printexc.to_string e)
          done)
        (w.Workload.mix data ~conn))
    [ 0; 1 ];
  let q, initial = Workload.written data in
  let want = string_of_int (initial + !acked) in
  (match Session.execute_string s q with
   | got when got = want -> ()
   | got -> fail q (got ^ ", want " ^ want)
   | exception e -> fail q (Printexc.to_string e));
  Sedna_core.Database.close db;
  Workload.rm_rf dir;
  Printf.printf "  %-12s %-5s %4d statements, %d wrong  (%.1f s)\n%!" w.Workload.name
    label !ran !bad
    (Unix.gettimeofday () -. t0);
  !bad

let run ~seed ~dir workloads =
  let bad =
    List.fold_left
      (fun acc w ->
        let small = dataset w w.Workload.small ~label:"small" ~seed ~dir in
        acc + small + dataset w w.Workload.data ~label:"full" ~seed ~dir)
      0 workloads
  in
  if bad > 0 then begin
    Printf.printf "check FAILED: %d wrong answers\n" bad;
    exit 1
  end;
  print_endline "check passed"
