(* Timers, fixed-bucket latency histograms and a small JSON type — the
   measurement layer the benches, the session, the span store and the
   governor report are built on.  Named integer cells live in
   {!Counters}. *)

(* -------------------------------------------------------------- JSON *)

(* A tiny JSON document type + printer: enough for span annotations,
   slow-log lines and bench output without an external dependency. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec json_to_buf b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.1f" f)
    else if Float.is_nan f then Buffer.add_string b "null"
    else if f = Float.infinity then Buffer.add_string b "1e999"
    else Buffer.add_string b (Printf.sprintf "%.12g" f)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (json_escape s);
    Buffer.add_char b '"'
  | List xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        json_to_buf b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        Buffer.add_string b (json_escape k);
        Buffer.add_string b "\":";
        json_to_buf b v)
      kvs;
    Buffer.add_char b '}'

let json_to_string j =
  let b = Buffer.create 256 in
  json_to_buf b j;
  Buffer.contents b

(* ------------------------------------------------------------ timers *)

let now () = Unix.gettimeofday ()

(* monotonic source for durations — wall time is only for log stamps *)
let mono = Sysutil.monotonic

let time f =
  let t0 = mono () in
  let r = f () in
  (mono () -. t0, r)

(* --------------------------------------------------------- histograms *)

type histogram = {
  hist_name : string;
  bounds : float array; (* ascending upper bounds, seconds *)
  counts : int array; (* length = Array.length bounds + 1; last = overflow *)
  mutable sum : float;
  mutable total : int;
}

(* 10 µs .. 10 s in a 1 / 2.5 / 5 ladder: fine enough that p50/p95/p99
   of sub-millisecond statement latencies land in distinct buckets. *)
let default_buckets =
  [|
    1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 1e-2; 2.5e-2;
    5e-2; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0;
  |]

let registry : (string, histogram) Hashtbl.t = Hashtbl.create 8

let histogram ?(buckets = default_buckets) hist_name =
  match Hashtbl.find_opt registry hist_name with
  | Some h -> h
  | None ->
    let h =
      {
        hist_name;
        bounds = Array.copy buckets;
        counts = Array.make (Array.length buckets + 1) 0;
        sum = 0.;
        total = 0;
      }
    in
    Hashtbl.add registry hist_name h;
    h

let histograms () =
  Hashtbl.fold (fun _ h acc -> h :: acc) registry []
  |> List.sort (fun a b -> String.compare a.hist_name b.hist_name)

let observe h v =
  let n = Array.length h.bounds in
  let rec idx i = if i >= n then n else if v <= h.bounds.(i) then i else idx (i + 1) in
  let i = idx 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v;
  h.total <- h.total + 1

let hist_name h = h.hist_name
let hist_count h = h.total
let hist_sum h = h.sum

(* bucket bounds + per-bucket counts (one extra overflow slot) — the
   Prometheus exposition needs the raw shape, not just percentiles *)
let hist_buckets h = (Array.copy h.bounds, Array.copy h.counts)
let hist_mean h = if h.total = 0 then Float.nan else h.sum /. float_of_int h.total

(* Upper bound of the bucket holding the q-quantile observation
   (rank ceil(q * total), clamped to [1, total]); [infinity] when it
   landed in the overflow bucket, [nan] when the histogram is empty. *)
let percentile h q =
  if h.total = 0 then Float.nan
  else begin
    let rank = int_of_float (ceil (q *. float_of_int h.total)) in
    let rank = max 1 (min rank h.total) in
    let n = Array.length h.bounds in
    let rec go i acc =
      let acc = acc + h.counts.(i) in
      if acc >= rank then if i < n then h.bounds.(i) else Float.infinity
      else go (i + 1) acc
    in
    go 0 0
  end

let hist_to_json h =
  Obj
    [
      ("count", Int h.total);
      ("sum_s", Float h.sum);
      ("mean_s", if h.total = 0 then Null else Float (hist_mean h));
      ("p50_s", if h.total = 0 then Null else Float (percentile h 0.5));
      ("p95_s", if h.total = 0 then Null else Float (percentile h 0.95));
      ("p99_s", if h.total = 0 then Null else Float (percentile h 0.99));
    ]
