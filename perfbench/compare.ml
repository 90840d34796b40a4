(* suite.exe compare A.json B.json: A is the baseline, B the change;
   each file holds the JSON lines that runs with --out appended.  For
   every workload and every end-to-end metric of BENCHMARK.json it
   prints each side's median and quartiles and a verdict:

     ok           B's median is within the metric's bound of A's
     REGRESSION   B's median is worse than A's by more than the bound
     unresolved   either side's spread (quartile distance over median)
                  is wider than the bound, unless every run of B reads
                  better than every run of A

   Exits 1 when any metric regressed. *)

module J = Sedna_util.Metrics

type bound = { name : string; lower_better : bool; bound : float }

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let lines path =
  let ic = try open_in path with Sys_error e -> fail "%s" e in
  let rec go acc =
    match input_line ic with
    | l when String.trim l = "" -> go acc
    | l -> go (Stats.parse_json l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  try go [] with Stats.Bad_json e -> fail "%s: %s" path e

let bounds () =
  let ic = try open_in "BENCHMARK.json" with Sys_error e -> fail "%s" e in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Stats.member "end_to_end" (Stats.parse_json text) with
  | Some (J.List ms) ->
    List.filter_map
      (fun m ->
        match
          ( Option.bind (Stats.member "name" m) Stats.to_string,
            Option.bind (Stats.member "better" m) Stats.to_string,
            Option.bind (Stats.member "bound" m) Stats.to_float )
        with
        | Some name, Some better, Some bound ->
          Some { name; lower_better = better = "lower"; bound }
        | _ -> None)
      ms
  | _ -> fail "BENCHMARK.json: no end_to_end list"

(* untraced values of one metric on one workload, one per run *)
let values records ~workload ~metric =
  List.filter_map
    (fun r ->
      if
        Option.bind (Stats.member "workload" r) Stats.to_string = Some workload
        && Stats.member "traced" r = Some (J.Bool false)
      then
        Option.bind (Stats.member "metrics" r) (Stats.member metric)
        |> Fun.flip Option.bind (Stats.member "value")
        |> Fun.flip Option.bind Stats.to_float
      else None)
    records
  |> Stats.sorted

let run a b =
  let ra = lines a and rb = lines b in
  let workloads =
    List.filter_map (fun r -> Option.bind (Stats.member "workload" r) Stats.to_string) ra
    |> List.sort_uniq compare
  in
  let regressions = ref 0 in
  Printf.printf "%-13s %-18s %34s %34s %9s  %s\n" "workload" "metric" "A median [q1, q3] n"
    "B median [q1, q3] n" "change" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun m ->
          let va = values ra ~workload ~metric:m.name
          and vb = values rb ~workload ~metric:m.name in
          if Array.length va > 0 && Array.length vb > 0 then begin
            let side v =
              let med = Stats.median v and q1, q3 = Stats.quartiles v in
              (med, q1, q3, Printf.sprintf "%.4g [%.4g, %.4g] %d" med q1 q3 (Array.length v))
            in
            let ma, q1a, q3a, sa = side va and mb, q1b, q3b, sb = side vb in
            let change = (mb -. ma) /. Float.abs ma in
            let worse = if m.lower_better then change else -.change in
            let spread = Float.max ((q3a -. q1a) /. Float.abs ma) ((q3b -. q1b) /. Float.abs mb) in
            let b_always_better =
              if m.lower_better then vb.(Array.length vb - 1) < va.(0)
              else vb.(0) > va.(Array.length va - 1)
            in
            let verdict =
              if spread > m.bound && not b_always_better then "unresolved"
              else if worse > m.bound then begin
                incr regressions;
                "REGRESSION"
              end
              else "ok"
            in
            Printf.printf "%-13s %-18s %34s %34s %+8.1f%%  %s\n" workload m.name sa sb
              (100. *. change) verdict
          end)
        (bounds ()))
    workloads;
  if !regressions > 0 then 1 else 0
