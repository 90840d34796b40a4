(* The monitoring listener: a tiny HTTP/1.1 server on its own port
   (--metrics-port) exposing

     GET /metrics   Prometheus text exposition of every global counter,
                    every registered histogram, and a set of gauges the
                    embedding process supplies (buffer-pool occupancy,
                    active sessions, WAL size, replication lag, ...)
     GET /health    readiness probe: 200 with the role ("ok primary" /
                    "ok standby") while serving, 503 while draining,
                    fenced (a deposed primary must drop out of the LB)
                    or degraded (resource exhaustion: shedding writes)

   One accept thread, one request per connection (Connection: close) —
   a scrape every few seconds is the design load, so no pool.  The
   handler never takes the engine lock: counters are plain int refs,
   histograms are read racily (a torn scrape is one sample off), and
   the gauge closures are required to be lock-free reads too. *)

open Sedna_util

type gauge = { g_name : string; g_help : string; g_read : unit -> int }

type t = {
  fd : Unix.file_descr;
  port : int;
  gauges : gauge list;
  health : unit -> bool * string; (* ready?, role line *)
  mutable stopped : bool;
  mutable thread : Thread.t option;
}

(* ---- Prometheus text exposition ------------------------------------- *)

(* metric names must match [a-zA-Z_:][a-zA-Z0-9_:]* — our counter names
   use dots and dashes, so sanitize and prefix *)
let prom_name name =
  let b = Buffer.create (String.length name + 6) in
  Buffer.add_string b "sedna_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let render_metrics gauges =
  let b = Buffer.create 4096 in
  let meta name typ = Printf.ksprintf (Buffer.add_string b) "# TYPE %s %s\n" name typ in
  (* gauge cells are exported even before anything touches them — an
     alert on lag, the degraded flag or a fencing epoch must not find
     the series missing on a node where the event never happened *)
  List.iter
    (fun name ->
      let pn = prom_name name in
      meta pn "gauge";
      Printf.ksprintf (Buffer.add_string b) "%s %d\n" pn (Counters.get name))
    Counters.gauges;
  (* global counters *)
  List.iter
    (fun (name, v) ->
      if not (List.mem name Counters.gauges) then begin
        let pn = prom_name name in
        meta pn "counter";
        Printf.ksprintf (Buffer.add_string b) "%s %d\n" pn v
      end)
    (Counters.snapshot_all ());
  (* supplied gauges *)
  List.iter
    (fun g ->
      let pn = prom_name g.g_name in
      if g.g_help <> "" then
        Printf.ksprintf (Buffer.add_string b) "# HELP %s %s\n" pn g.g_help;
      meta pn "gauge";
      Printf.ksprintf (Buffer.add_string b) "%s %d\n" pn (g.g_read ()))
    gauges;
  (* registered histograms, in seconds with cumulative le buckets *)
  List.iter
    (fun h ->
      let pn = prom_name (Metrics.hist_name h) ^ "_seconds" in
      meta pn "histogram";
      let bounds, counts = Metrics.hist_buckets h in
      let acc = ref 0 in
      Array.iteri
        (fun i bound ->
          acc := !acc + counts.(i);
          Printf.ksprintf (Buffer.add_string b) "%s_bucket{le=\"%s\"} %d\n" pn
            (prom_float bound) !acc)
        bounds;
      Printf.ksprintf (Buffer.add_string b) "%s_bucket{le=\"+Inf\"} %d\n" pn
        (Metrics.hist_count h);
      Printf.ksprintf (Buffer.add_string b) "%s_sum %s\n" pn
        (prom_float (Metrics.hist_sum h));
      Printf.ksprintf (Buffer.add_string b) "%s_count %d\n" pn
        (Metrics.hist_count h))
    (Metrics.histograms ());
  Buffer.contents b

(* ---- http ------------------------------------------------------------ *)

let http_respond fd ~status ~content_type body =
  let head =
    Printf.sprintf
      "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
       close\r\n\r\n"
      status content_type (String.length body)
  in
  let out = head ^ body in
  let buf = Bytes.unsafe_of_string out in
  let rec go off len =
    if len > 0 then
      match Unix.write fd buf off len with
      | n -> go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
  in
  go 0 (String.length out)

(* read until the blank line ending the request head (we ignore bodies:
   every endpoint is a GET), bounded so garbage can't balloon *)
let read_request_head fd =
  let b = Buffer.create 256 in
  let chunk = Bytes.create 512 in
  let rec go () =
    if Buffer.length b > 8192 then Buffer.contents b
    else
      let seen =
        let s = Buffer.contents b in
        let has sub =
          let n = String.length s and m = String.length sub in
          let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
          at 0
        in
        has "\r\n\r\n" || has "\n\n"
      in
      if seen then Buffer.contents b
      else
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents b
        | n ->
          Buffer.add_subbytes b chunk 0 n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let handle t fd =
  let head = read_request_head fd in
  let path =
    match String.split_on_char ' ' (List.hd (String.split_on_char '\n' head)) with
    | _meth :: path :: _ -> path
    | _ -> "/"
  in
  match path with
  | "/metrics" ->
    http_respond fd ~status:"200 OK"
      ~content_type:"text/plain; version=0.0.4; charset=utf-8"
      (render_metrics t.gauges)
  | "/health" ->
    let ready, role = t.health () in
    (* belt-and-braces: a draining or fenced node is never ready, even
       if the embedder's closure forgot to flip the bool — an LB
       routing writes to a fenced ex-primary is exactly the split-brain
       the fence exists to stop *)
    let ready = ready && role <> "draining" && role <> "fenced" && role <> "degraded" in
    if ready then
      http_respond fd ~status:"200 OK" ~content_type:"text/plain" ("ok " ^ role ^ "\n")
    else
      http_respond fd ~status:"503 Service Unavailable" ~content_type:"text/plain"
        (role ^ "\n")
  | _ ->
    http_respond fd ~status:"404 Not Found" ~content_type:"text/plain" "not found\n"

let accept_loop t () =
  let rec loop () =
    match Unix.accept t.fd with
    | fd, _ ->
      (try handle t fd with _ -> ());
      (try Unix.close fd with _ -> ());
      loop ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
      when t.stopped ->
      ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let start ?(host = "127.0.0.1") ?(gauges = []) ?(health = fun () -> (true, "primary"))
    ~port () =
  let addr = Unix.inet_addr_of_string host in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 8;
  let bound =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  let t = { fd; port = bound; gauges; health; stopped = false; thread = None } in
  t.thread <- Some (Thread.create (accept_loop t) ());
  Logs.info (fun m -> m "metrics endpoint on %s:%d" host bound);
  t

let port t = t.port

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with _ -> ());
    (try
       (* unblock accept on platforms where shutdown doesn't *)
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port))
        with _ -> ());
       Unix.close fd
     with _ -> ());
    (match t.thread with Some th -> Thread.join th | None -> ());
    try Unix.close t.fd with _ -> ()
  end
