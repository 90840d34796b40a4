(* The client benchmark: one command runs seeded workloads against a
   server in a separate process and checks every answer.

     suite.exe [--workload W[,W...]] [--seed N] [--seconds S] [--trace 0|1]
               [--out FILE]
         measure the named workloads (default: all).  --trace 0 prints
         the end-to-end metrics, --trace 1 the per-layer ones.  The last
         line of stdout is one JSON object: correct, attempted, failed
         and metrics.  --out appends a fuller record per workload, as one
         JSON line, for [compare].  Exits 1 if any answer was wrong.
     suite.exe --check [--seed N]
         every template against its oracle, in-process, on a small and
         the measured dataset of each workload
     suite.exe compare A.json B.json
         per workload and end-to-end metric, each side's median and
         quartiles, with the verdict under BENCHMARK.json's bounds

   Run from the repository root: databases go under .perfbench/ and
   compare reads ./BENCHMARK.json. *)

module J = Sedna_util.Metrics

let usage () =
  prerr_endline
    "usage: suite.exe [--workload W[,W...]] [--seed N] [--seconds S] [--trace 0|1] \
     [--out FILE]\n\
    \       suite.exe --check [--seed N]\n\
    \       suite.exe compare A.json B.json";
  exit 2

let rec flags acc = function
  | "--check" :: tl -> flags (("--check", "1") :: acc) tl
  | k :: v :: tl when String.starts_with ~prefix:"--" k -> flags ((k, v) :: acc) tl
  | [] -> acc
  | _ -> usage ()

let int_flag fl k ~default =
  match List.assoc_opt k fl with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

let workloads fl =
  match List.assoc_opt "--workload" fl with
  | None -> Workload.all
  | Some names ->
    List.map
      (fun n ->
        match Workload.find n with
        | Some w -> w
        | None ->
          Printf.eprintf "unknown workload %s (known: %s)\n" n
            (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
          exit 2)
      (String.split_on_char ',' names)

let json_metric (m : Run.metric) ~samples =
  J.Obj
    ([ ("value", J.Float m.value); ("unit", J.Str m.unit) ]
    @ if samples then [ ("samples", J.Int m.samples) ] else [])

let print_result (r : Run.result) =
  Printf.printf "== %s  seed %d, %d connections, nproc %d, warm-up %.0f s, measured %.2f s%s\n"
    r.workload.name r.seed Run.connections
    (Domain.recommended_domain_count ())
    Run.warmup_s r.measured_s
    (if r.traced then Printf.sprintf ", tracing alternated over %d pairs" Run.pairs else "");
  List.iter
    (fun (m : Run.metric) ->
      Printf.printf "  %-40s %14.4f %-6s n=%d\n" m.name m.value m.unit m.samples)
    (r.metrics @ r.extra);
  Printf.printf "  %d statements, %d failed, answers %s\n%!" r.attempted r.failed
    (if r.correct then "correct" else "WRONG")

let record (r : Run.result) =
  J.Obj
    [
      ("workload", J.Str r.workload.name);
      ("seed", J.Int r.seed);
      ("traced", J.Bool r.traced);
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("connections", J.Int Run.connections);
      ("setups", J.Int r.setups);
      ("warmup_s", J.Float Run.warmup_s);
      ("measured_s", J.Float r.measured_s);
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map (fun (m : Run.metric) -> (m.name, json_metric m ~samples:true))
             (r.metrics @ r.extra)) );
    ]

let measure fl =
  let seed = int_flag fl "--seed" ~default:1 in
  let seconds = float_of_int (int_flag fl "--seconds" ~default:20) in
  let traced =
    match List.assoc_opt "--trace" fl with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some _ -> usage ()
  in
  let ws = workloads fl in
  let results =
    List.map
      (fun w ->
        let r = Run.run w ~seed ~seconds ~traced in
        print_result r;
        Option.iter
          (fun path ->
            let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
            output_string oc (J.json_to_string (record r) ^ "\n");
            close_out oc)
          (List.assoc_opt "--out" fl);
        r)
      ws
  in
  (* one workload: metrics by name; several: prefixed by workload *)
  let metrics =
    List.concat_map
      (fun (r : Run.result) ->
        List.map
          (fun (m : Run.metric) ->
            ( (match ws with [ _ ] -> m.name | _ -> r.workload.name ^ "." ^ m.name),
              json_metric m ~samples:false ))
          r.metrics)
      results
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let correct = List.for_all (fun (r : Run.result) -> r.correct) results in
  print_endline
    (J.json_to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int (sum (fun r -> r.attempted)));
            ("failed", J.Int (sum (fun r -> r.failed)));
            ("metrics", J.Obj metrics);
          ]));
  if not correct then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "server" :: args ->
    let fl = flags [] args in
    let w = match workloads fl with [ w ] -> w | _ -> usage () in
    Child.main w
      ~seed:(int_flag fl "--seed" ~default:1)
      ~dir:(Option.value (List.assoc_opt "--dir" fl) ~default:".perfbench/server")
      ~count:(int_flag fl "--count" ~default:0 = 1)
  | [ "compare"; a; b ] -> exit (Compare.run a b)
  | args ->
    let fl = flags [] args in
    Sedna_util.Span.set_enabled false;
    if List.mem_assoc "--check" fl then
      Check.run ~seed:(int_flag fl "--seed" ~default:1) ~dir:".perfbench/check" (workloads fl)
    else measure fl
