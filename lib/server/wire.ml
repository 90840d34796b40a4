(* The wire protocol: length-prefixed binary frames over a byte stream
   (paper §3: clients speak to their session through a socket pair).

     frame    := u32_be payload_length, payload
     payload  := opcode byte, body
     str      := u32_be byte_length, bytes

   Requests (client -> server):
     'O' str database          open a session against a database
     'X' str statement         execute one statement
     'C'                       close the session

   Any request or response may be prefixed (inside the same frame) with
   in-frame headers, so old-style bare messages remain valid:
     'T' str "trace_id:parent_span_id"   trace context (requests)
     'E' u32 cluster_epoch               fencing epoch (both directions):
                                         each side stamps the highest
                                         cluster epoch it has observed,
                                         so epochs gossip along every
                                         existing exchange

   Responses (server -> client):
     'o' u32 session_id        session opened
     'u' u32 count             update statement done (affected nodes)
     'm' str message           DDL / transaction-control done
     'c' u8 last, str data     query rows: an Execute that ran a query is
                               answered by back-to-back chunks of at most
                               [chunk_bytes] each, the final one [last]
     'b'                       session closed, connection ends
     'e' str code, str msg     error (code = SE-*/W3C error name)

   Replication extension (spoken on the primary's replication port;
   the standby drives a pull loop, so its Pull doubles as the ack of
   everything before [pos]):

   Repl requests (standby -> primary):
     'P' u32 cluster, u32 epoch, u32 pos, u32 max_bytes
                                              pull frames from (epoch,pos);
                                              cluster is the standby's fencing
                                              epoch, so a deposed primary
                                              learns of its deposition from
                                              the very next pull
     'S'                                      request a full seed (backup)

   Repl responses (primary -> standby), all carrying the primary's
   cluster (fencing) epoch as their first field:
     'B' u32 cluster, u32 epoch, u32 next_pos, str frames
        u32 nmarks, nmarks * (u32 pos, str trace, u32 span)
                                              raw WAL frames [pos,next_pos);
                                              trace marks: commits inside the
                                              batch whose statement was traced,
                                              so the standby can hang its apply
                                              span under the right parent
     'h' u32 cluster, u32 epoch, u32 pos      heartbeat: no new frames; pos =
                                              primary WAL end
     'H' u32 cluster, u32 epoch               hole: (epoch,pos) not servable
                                              (checkpoint truncation) — re-seed
     'f' str name, str data                   one file of a full backup
     'd' u32 cluster, u32 epoch, u32 pos      seed complete; stream from here
     'x' u32 cluster                          fenced: the pull carried a higher
                                              cluster epoch than the sender's —
                                              the sender has demoted itself and
                                              this link is dead *)

type request =
  | Open of string
  | Execute of string
  | Close

type response =
  | Opened of int
  | Updated of int
  | Message of string
  | Chunk of { last : bool; data : string }
  | Bye
  | Err of { code : string; msg : string }

type repl_request =
  | Pull of { cluster : int; epoch : int; pos : int; max_bytes : int }
  | Seed_request
  | Page_request of { cluster : int; pid : int }

(* commit position, trace id, parent span id — see the 'B' frame *)
type trace_mark = { mk_pos : int; mk_trace : string; mk_span : int }

type repl_response =
  | Batch of {
      cluster : int;
      epoch : int;
      next_pos : int;
      frames : string;
      marks : trace_mark list;
    }
  | Heartbeat of { cluster : int; epoch : int; pos : int }
  | Hole of { cluster : int; epoch : int }
  | Seed_file of { name : string; data : string }
  | Seed_done of { cluster : int; epoch : int; pos : int }
  | Fenced of { cluster : int }
  | Page_reply of { cluster : int; pid : int; page : string option }

(* Frames larger than this are a protocol violation, not a payload:
   reject before allocating. *)
let max_frame = 64 * 1024 * 1024

let chunk_bytes = 64 * 1024

exception Protocol_error of string

exception Disconnected of string
(* The peer died: ECONNRESET / EPIPE / unexpected EOF mid-frame, all
   normalized here so retry classification upstream matches one
   exception instead of errno lists. *)

let perror fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

let disconnected fmt = Printf.ksprintf (fun m -> raise (Disconnected m)) fmt

(* ---- byte-level helpers -------------------------------------------- *)

(* Partial reads/writes are retried; EINTR (signal delivery) restarts
   the call, and EAGAIN/EWOULDBLOCK (socket briefly non-ready, e.g.
   spurious readiness after select) waits for the descriptor instead of
   spinning.  Without the EINTR loop a SIGCHLD from a forked bench
   worker aborts a perfectly healthy connection mid-frame. *)

let rec wait_readable fd =
  match Unix.select [ fd ] [] [] (-1.0) with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd

let rec wait_writable fd =
  match Unix.select [] [ fd ] [] (-1.0) with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_writable fd

(* errnos that mean "the peer is gone", normalized to {!Disconnected}
   so no caller has to pattern-match this list again *)
let peer_death = function
  | Unix.ECONNRESET | Unix.EPIPE | Unix.ECONNABORTED | Unix.ENOTCONN
  | Unix.ESHUTDOWN | Unix.ETIMEDOUT ->
    true
  | _ -> false

let really_read fd buf off len =
  let rec go off len =
    if len > 0 then begin
      match Unix.read fd buf off len with
      | 0 -> raise End_of_file
      | n -> go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        wait_readable fd;
        go off len
      | exception Unix.Unix_error (e, _, _) when peer_death e ->
        disconnected "read: %s" (Unix.error_message e)
    end
  in
  go off len

let really_write fd buf off len =
  let rec go off len =
    if len > 0 then begin
      match Unix.write fd buf off len with
      | n -> go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        wait_writable fd;
        go off len
      | exception Unix.Unix_error (e, _, _) when peer_death e ->
        disconnected "write: %s" (Unix.error_message e)
    end
  in
  go off len

let add_u32 b n =
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff))

let add_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

type reader = { bytes : Bytes.t; mutable pos : int }

let get_u8 r =
  if r.pos >= Bytes.length r.bytes then perror "truncated frame";
  let v = Char.code (Bytes.get r.bytes r.pos) in
  r.pos <- r.pos + 1;
  v

let get_u32 r =
  let a = get_u8 r in
  let b = get_u8 r in
  let c = get_u8 r in
  let d = get_u8 r in
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let get_str r =
  let len = get_u32 r in
  if r.pos + len > Bytes.length r.bytes then perror "truncated string";
  let s = Bytes.sub_string r.bytes r.pos len in
  r.pos <- r.pos + len;
  s

(* ---- framing -------------------------------------------------------- *)

open Sedna_util

(* Every frame passes a {!Fault} network site on the way out and in.  The
   injected weather lives entirely below the message codecs: a dropped
   send never reaches the socket, a torn send kills the connection
   after a prefix, a dropped recv silently reads the next frame — the
   codecs above see either a whole frame or {!Disconnected}. *)

let write_frame fd (payload : Buffer.t) =
  let len = Buffer.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (len land 0xff));
  Bytes.blit_string (Buffer.contents payload) 0 b 4 len;
  match Fault.on_send fd ~len:(4 + len) with
  | Pass -> really_write fd b 0 (4 + len)
  | Drop_frame -> () (* the sender believes it went *)
  | Dup_frame ->
    really_write fd b 0 (4 + len);
    really_write fd b 0 (4 + len)
  | Torn_frame n ->
    (* a strict prefix hits the wire, then the connection dies: the
       peer sees EOF mid-frame *)
    really_write fd b 0 (min n (4 + len - 1));
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    disconnected "torn frame injected"

let rec read_frame fd : reader =
  let verdict = Fault.on_recv fd in
  (match verdict with
   | Torn_frame _ ->
     (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
     disconnected "torn read injected"
   | _ -> ());
  let hdr = Bytes.create 4 in
  (* EOF on the first header byte is a clean close (End_of_file);
     anywhere later the peer died mid-frame *)
  (let rec go off =
     if off < 4 then begin
       match Unix.read fd hdr off (4 - off) with
       | 0 -> if off = 0 then raise End_of_file else disconnected "EOF mid-frame"
       | n -> go (off + n)
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
         wait_readable fd;
         go off
       | exception Unix.Unix_error (e, _, _) when peer_death e ->
         disconnected "read: %s" (Unix.error_message e)
     end
   in
   go 0);
  let len =
    (Char.code (Bytes.get hdr 0) lsl 24)
    lor (Char.code (Bytes.get hdr 1) lsl 16)
    lor (Char.code (Bytes.get hdr 2) lsl 8)
    lor Char.code (Bytes.get hdr 3)
  in
  if len > max_frame then perror "frame of %d bytes exceeds the limit" len;
  let payload = Bytes.create len in
  (try really_read fd payload 0 len
   with End_of_file -> disconnected "EOF mid-frame");
  match verdict with
  | Drop_frame -> read_frame fd (* the frame vanishes; deliver the next one *)
  | _ -> { bytes = payload; pos = 0 }

(* ---- requests -------------------------------------------------------- *)

let write_request ?trace ?epoch fd (req : request) =
  let b = Buffer.create 64 in
  (match trace with
   | Some t ->
     Buffer.add_char b 'T';
     add_str b t
   | None -> ());
  (match epoch with
   | Some e ->
     Buffer.add_char b 'E';
     add_u32 b e
   | None -> ());
  (match req with
   | Open db ->
     Buffer.add_char b 'O';
     add_str b db
   | Execute text ->
     Buffer.add_char b 'X';
     add_str b text
   | Close -> Buffer.add_char b 'C');
  write_frame fd b

(* consume any in-frame headers ('T' trace, 'E' epoch) before the
   opcode proper; either may be absent, order free *)
let read_headers r =
  let trace = ref None and epoch = ref None in
  let rec go opcode =
    match opcode with
    | 'T' ->
      trace := Some (get_str r);
      go (Char.chr (get_u8 r))
    | 'E' ->
      epoch := Some (get_u32 r);
      go (Char.chr (get_u8 r))
    | c -> c
  in
  let opcode = go (Char.chr (get_u8 r)) in
  (!trace, !epoch, opcode)

(* returns the trace-context and epoch headers (if the client sent
   them) alongside the request proper *)
let read_request fd : string option * int option * request =
  let r = read_frame fd in
  let trace, epoch, opcode = read_headers r in
  let req =
    match opcode with
    | 'O' -> Open (get_str r)
    | 'X' -> Execute (get_str r)
    | 'C' -> Close
    | c -> perror "unknown request opcode %C" c
  in
  (trace, epoch, req)

(* ---- responses ------------------------------------------------------- *)

let write_response ?epoch fd (resp : response) =
  let b = Buffer.create 64 in
  (match epoch with
   | Some e ->
     Buffer.add_char b 'E';
     add_u32 b e
   | None -> ());
  (match resp with
   | Opened id ->
     Buffer.add_char b 'o';
     add_u32 b id
   | Updated n ->
     Buffer.add_char b 'u';
     add_u32 b n
   | Message m ->
     Buffer.add_char b 'm';
     add_str b m
   | Chunk { last; data } ->
     Buffer.add_char b 'c';
     Buffer.add_char b (if last then '\001' else '\000');
     add_str b data
   | Bye -> Buffer.add_char b 'b'
   | Err { code; msg } ->
     Buffer.add_char b 'e';
     add_str b code;
     add_str b msg);
  write_frame fd b

(* back-to-back chunks of at most [chunk_bytes], the last one flagged;
   an empty result is one empty last chunk *)
let write_rows ?epoch fd body =
  let len = String.length body in
  let rec go off =
    let n = min chunk_bytes (len - off) in
    let last = off + n >= len in
    write_response ?epoch fd (Chunk { last; data = String.sub body off n });
    if not last then go (off + n)
  in
  go 0

let read_response fd : int option * response =
  let r = read_frame fd in
  let _trace, epoch, opcode = read_headers r in
  let resp =
    match opcode with
    | 'o' -> Opened (get_u32 r)
    | 'u' -> Updated (get_u32 r)
    | 'm' -> Message (get_str r)
    | 'c' ->
      let last = get_u8 r <> 0 in
      Chunk { last; data = get_str r }
    | 'b' -> Bye
    | 'e' ->
      let code = get_str r in
      Err { code; msg = get_str r }
    | c -> perror "unknown response opcode %C" c
  in
  (epoch, resp)

(* ---- replication ----------------------------------------------------- *)

let write_repl_request fd (req : repl_request) =
  let b = Buffer.create 16 in
  (match req with
   | Pull { cluster; epoch; pos; max_bytes } ->
     Buffer.add_char b 'P';
     add_u32 b cluster;
     add_u32 b epoch;
     add_u32 b pos;
     add_u32 b max_bytes
   | Seed_request -> Buffer.add_char b 'S'
   | Page_request { cluster; pid } ->
     Buffer.add_char b 'G';
     add_u32 b cluster;
     add_u32 b pid);
  write_frame fd b

let read_repl_request fd : repl_request =
  let r = read_frame fd in
  match Char.chr (get_u8 r) with
  | 'P' ->
    let cluster = get_u32 r in
    let epoch = get_u32 r in
    let pos = get_u32 r in
    Pull { cluster; epoch; pos; max_bytes = get_u32 r }
  | 'S' -> Seed_request
  | 'G' ->
    let cluster = get_u32 r in
    Page_request { cluster; pid = get_u32 r }
  | c -> perror "unknown replication request opcode %C" c

let write_repl_response fd (resp : repl_response) =
  let b = Buffer.create 64 in
  (match resp with
   | Batch { cluster; epoch; next_pos; frames; marks } ->
     Buffer.add_char b 'B';
     add_u32 b cluster;
     add_u32 b epoch;
     add_u32 b next_pos;
     add_str b frames;
     add_u32 b (List.length marks);
     List.iter
       (fun { mk_pos; mk_trace; mk_span } ->
         add_u32 b mk_pos;
         add_str b mk_trace;
         add_u32 b mk_span)
       marks
   | Heartbeat { cluster; epoch; pos } ->
     Buffer.add_char b 'h';
     add_u32 b cluster;
     add_u32 b epoch;
     add_u32 b pos
   | Hole { cluster; epoch } ->
     Buffer.add_char b 'H';
     add_u32 b cluster;
     add_u32 b epoch
   | Seed_file { name; data } ->
     Buffer.add_char b 'f';
     add_str b name;
     add_str b data
   | Seed_done { cluster; epoch; pos } ->
     Buffer.add_char b 'd';
     add_u32 b cluster;
     add_u32 b epoch;
     add_u32 b pos
   | Fenced { cluster } ->
     Buffer.add_char b 'x';
     add_u32 b cluster
   | Page_reply { cluster; pid; page } ->
     Buffer.add_char b 'g';
     add_u32 b cluster;
     add_u32 b pid;
     (match page with
      | None -> add_u8 b 0
      | Some p ->
        add_u8 b 1;
        add_str b p));
  write_frame fd b

let read_repl_response fd : repl_response =
  let r = read_frame fd in
  match Char.chr (get_u8 r) with
  | 'B' ->
    let cluster = get_u32 r in
    let epoch = get_u32 r in
    let next_pos = get_u32 r in
    let frames = get_str r in
    let nmarks = get_u32 r in
    if nmarks > 65536 then perror "implausible trace-mark count %d" nmarks;
    let marks =
      List.init nmarks (fun _ ->
          let mk_pos = get_u32 r in
          let mk_trace = get_str r in
          { mk_pos; mk_trace; mk_span = get_u32 r })
    in
    Batch { cluster; epoch; next_pos; frames; marks }
  | 'h' ->
    let cluster = get_u32 r in
    let epoch = get_u32 r in
    Heartbeat { cluster; epoch; pos = get_u32 r }
  | 'H' ->
    let cluster = get_u32 r in
    Hole { cluster; epoch = get_u32 r }
  | 'f' ->
    let name = get_str r in
    Seed_file { name; data = get_str r }
  | 'd' ->
    let cluster = get_u32 r in
    let epoch = get_u32 r in
    Seed_done { cluster; epoch; pos = get_u32 r }
  | 'x' -> Fenced { cluster = get_u32 r }
  | 'g' ->
    let cluster = get_u32 r in
    let pid = get_u32 r in
    let page = if get_u8 r = 1 then Some (get_str r) else None in
    Page_reply { cluster; pid; page }
  | c -> perror "unknown replication response opcode %C" c
