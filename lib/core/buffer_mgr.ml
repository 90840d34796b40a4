(* The buffer manager and the Sedna memory-management mechanism
   (paper §4.2, Figure 4).

   The 64-bit SAS is divided into layers; an address within a layer is
   mapped to the process "virtual address space" on equality basis, so
   dereferencing a database pointer costs one array load plus one
   layer-equality check — no swizzling table on the fast path.

   We emulate the VAS with [vas]: an array with one slot per in-layer
   page.  Slot [i] holds the frame currently mapped at in-layer page
   [i] together with its layer number.  A dereference whose layer
   matches is the fast path ("ordinary pointer").  A mismatch or an
   empty slot is a memory fault: the buffer manager consults the frame
   table and, if needed, reads the page from disk, evicting a victim
   chosen by the clock algorithm.

   All page access goes through the typed accessors below so that no
   raw frame ever outlives an eviction.  [with_page] pins the frame for
   the duration of a closure when a caller needs bulk access. *)

open Sedna_util

type frame = {
  mutable pid : int; (* global page id; -1 when frame is empty *)
  mutable bytes : Bytes.t; (* empty until the frame first holds a page *)
  mutable dirty : bool;
  mutable pins : int;
  mutable referenced : bool; (* clock bit *)
}

type t = {
  store : File_store.t;
  mutable frames : frame array;
  table : (int, int) Hashtbl.t; (* pid -> frame index *)
  vas : int array; (* in-layer page slot -> frame index, -1 empty *)
  vas_layer : int array; (* layer currently mapped at that slot *)
  mutable clock_hand : int;
  mutable write_hook : int -> unit; (* called before a page is modified *)
  mutable read_overlay : int -> Bytes.t option;
      (* snapshot view for read-only transactions: when it returns an
         image for a page id, reads are served from that image *)
  mutable use_vas : bool; (* E7 ablation: disable the equality mapping *)
}

let make_frame () =
  { pid = -1; bytes = Bytes.empty; dirty = false; pins = 0; referenced = false }

(* fault-injection sites (crash-safety harness) *)
let flush_site = Fault.site "buffer.flush"
let evict_site = Fault.site "buffer.evict"

(* shared sentinel: physical equality detects "no overlay installed"
   so the read fast path skips the closure call *)
let no_overlay : int -> Bytes.t option = fun _ -> None

let create ?(frames = 256) store =
  {
    store;
    frames = Array.init frames (fun _ -> make_frame ());
    table = Hashtbl.create (2 * frames);
    vas = Array.make Page.pages_per_layer (-1);
    vas_layer = Array.make Page.pages_per_layer (-1);
    clock_hand = 0;
    write_hook = (fun _ -> ());
    read_overlay = no_overlay;
    use_vas = true;
  }

let set_write_hook t f = t.write_hook <- f
let set_read_overlay t f = t.read_overlay <- f
let clear_read_overlay t = t.read_overlay <- no_overlay
let set_use_vas t b = t.use_vas <- b
let frame_count t = Array.length t.frames

(* frames currently holding a page — the buffer-pool occupancy gauge *)
let occupancy t =
  Array.fold_left (fun n f -> if f.pid >= 0 then n + 1 else n) 0 t.frames

let store t = t.store

(* Unmap a frame from the VAS and the table. *)
let unmap t fi =
  let f = t.frames.(fi) in
  if f.pid >= 0 then begin
    Hashtbl.remove t.table f.pid;
    let slot = f.pid mod Page.pages_per_layer in
    if t.vas.(slot) = fi then begin
      t.vas.(slot) <- -1;
      t.vas_layer.(slot) <- -1
    end;
    f.pid <- -1;
    f.dirty <- false
  end

let flush_frame t fi =
  let f = t.frames.(fi) in
  if f.pid >= 0 && f.dirty then begin
    Fault.check flush_site;
    File_store.write_page t.store f.pid f.bytes;
    f.dirty <- false
  end

(* Clock replacement among unpinned frames; grows the pool when every
   frame is pinned (an active transaction may pin more dirty pages than
   the pool holds — correctness over strict memory bounds, counted so
   benches can report it). *)
let victim t =
  let n = Array.length t.frames in
  let rec scan steps =
    if steps > 2 * n then begin
      Counters.bump "buffer.pool_grow";
      let old = t.frames in
      t.frames <- Array.append old (Array.init n (fun _ -> make_frame ()));
      n (* first fresh frame *)
    end
    else begin
      let fi = t.clock_hand in
      t.clock_hand <- (t.clock_hand + 1) mod n;
      let f = t.frames.(fi) in
      if f.pins > 0 then scan (steps + 1)
      else if f.referenced then begin
        f.referenced <- false;
        scan (steps + 1)
      end
      else fi
    end
  in
  scan 0

(* Install page [pid] into a frame and map it.  [load] controls whether
   the page content is read from disk (false for freshly allocated
   pages). *)
let install t pid ~load =
  let fi = victim t in
  let v = t.frames.(fi) in
  if v.pid >= 0 then begin
    (* off the deref fast path: only faults that displace a resident
       page get here *)
    incr Counters.buffer_evict_cell;
    Fault.check evict_site
  end;
  flush_frame t fi;
  unmap t fi;
  let f = t.frames.(fi) in
  f.pid <- pid;
  f.dirty <- false;
  f.referenced <- true;
  (* a pool larger than the data never pays for the frames it does not
     use: peak memory follows the working set, not the pool size *)
  if Bytes.length f.bytes = 0 then f.bytes <- Bytes.create Page.page_size;
  if load then File_store.read_page t.store pid f.bytes
  else Bytes.fill f.bytes 0 Page.page_size '\000';
  Hashtbl.replace t.table pid fi;
  let slot = pid mod Page.pages_per_layer in
  (* evicting the previous VAS occupant of this slot from the mapping
     (not from the pool) mirrors the paper's page replacement within a
     layer slot *)
  t.vas.(slot) <- fi;
  t.vas_layer.(slot) <- pid / Page.pages_per_layer;
  fi

(* The dereference: returns the frame index holding the page of [pid].
   Fast path = VAS slot equality check. *)
let frame_of_pid t pid =
  (* the universal choke point: every page touch passes through here,
     so an armed statement deadline is noticed even inside long scans
     that never re-enter the expression evaluator *)
  Deadline.check ();
  incr Counters.deref_cell;
  let slot = pid mod Page.pages_per_layer in
  let layer = pid / Page.pages_per_layer in
  if t.use_vas && t.vas.(slot) >= 0 && t.vas_layer.(slot) = layer then begin
    incr Counters.vas_fast_hit_cell;
    let fi = t.vas.(slot) in
    t.frames.(fi).referenced <- true;
    fi
  end
  else
    match Hashtbl.find_opt t.table pid with
    | Some fi ->
      incr Counters.buffer_hit_cell;
      let f = t.frames.(fi) in
      f.referenced <- true;
      (* remap the VAS slot to this layer's page *)
      if t.use_vas then begin
        t.vas.(slot) <- fi;
        t.vas_layer.(slot) <- layer
      end;
      fi
    | None ->
      incr Counters.buffer_fault_cell;
      install t pid ~load:true

let _frame_of_xptr t (p : Xptr.t) = frame_of_pid t (Xptr.page_id p)

(* ---- typed accessors ------------------------------------------------ *)

(* Read path: consult the snapshot overlay first, then the buffer. *)
let read_bytes t (p : Xptr.t) : Bytes.t =
  let pid = Xptr.page_id p in
  if t.read_overlay == no_overlay then t.frames.(frame_of_pid t pid).bytes
  else
    match t.read_overlay pid with
    | Some img -> img
    | None ->
      let fi = frame_of_pid t pid in
      t.frames.(fi).bytes

let read_u8 t p = Bytes_util.get_u8 (read_bytes t p) (Xptr.page_offset p)
let read_u16 t p = Bytes_util.get_u16 (read_bytes t p) (Xptr.page_offset p)
let read_i32 t p = Bytes_util.get_i32 (read_bytes t p) (Xptr.page_offset p)
let read_i64 t p = Bytes_util.get_i64 (read_bytes t p) (Xptr.page_offset p)

let read_xptr t p : Xptr.t = Xptr.get (read_bytes t p) (Xptr.page_offset p)

(* An empty string touches no page: its address may be the end of a
   page, which names the next one (a B-tree's first key of "" is stored
   there). *)
let read_string t p len =
  if len = 0 then "" else Bytes_util.get_string (read_bytes t p) (Xptr.page_offset p) len

let touch_for_write t p =
  let pid = Xptr.page_id p in
  t.write_hook pid;
  let fi = frame_of_pid t pid in
  t.frames.(fi).dirty <- true;
  fi

let write_u8 t p v =
  let fi = touch_for_write t p in
  Bytes_util.set_u8 t.frames.(fi).bytes (Xptr.page_offset p) v

let write_u16 t p v =
  let fi = touch_for_write t p in
  Bytes_util.set_u16 t.frames.(fi).bytes (Xptr.page_offset p) v

let write_i32 t p v =
  let fi = touch_for_write t p in
  Bytes_util.set_i32 t.frames.(fi).bytes (Xptr.page_offset p) v

let write_i64 t p v =
  let fi = touch_for_write t p in
  Bytes_util.set_i64 t.frames.(fi).bytes (Xptr.page_offset p) v

let write_xptr t p (v : Xptr.t) =
  let fi = touch_for_write t p in
  Xptr.set t.frames.(fi).bytes (Xptr.page_offset p) v

let write_string t p s =
  if s <> "" then begin
    let fi = touch_for_write t p in
    Bytes_util.set_string t.frames.(fi).bytes (Xptr.page_offset p) s
  end

(* Bulk access under a pin.  [rw] marks the page dirty. *)
let with_page ?(rw = false) t (p : Xptr.t) f =
  let pid = Xptr.page_id p in
  match (rw, t.read_overlay pid) with
  | false, Some img -> f img
  | _ ->
    if rw then t.write_hook pid;
    let fi = frame_of_pid t pid in
    let f_ = t.frames.(fi) in
    f_.pins <- f_.pins + 1;
    if rw then f_.dirty <- true;
    Fun.protect
      ~finally:(fun () -> f_.pins <- f_.pins - 1)
      (fun () -> f f_.bytes)

(* Pin management for transactions: a page dirtied by an active
   transaction must not reach disk before commit (redo-only WAL). *)
let pin_pid t pid =
  let fi = frame_of_pid t pid in
  t.frames.(fi).pins <- t.frames.(fi).pins + 1

let unpin_pid t pid =
  match Hashtbl.find_opt t.table pid with
  | Some fi when t.frames.(fi).pins > 0 ->
    t.frames.(fi).pins <- t.frames.(fi).pins - 1
  | _ -> ()

(* Snapshot of a page's current content (for before-images / WAL). *)
let page_image t pid =
  let fi = frame_of_pid t pid in
  Bytes.copy t.frames.(fi).bytes

(* Overwrite a page wholesale (version install, recovery, abort). *)
let set_page_image t pid (img : Bytes.t) =
  let fi = frame_of_pid t pid in
  Bytes.blit img 0 t.frames.(fi).bytes 0 Page.page_size;
  t.frames.(fi).dirty <- true

(* Overwrite a page WITHOUT faulting its current content in from disk
   first.  This is the recovery redo path: the on-disk page may be torn
   or checksum-stale from the crash, and its content is about to be
   replaced by the WAL after-image anyway — reading it would surface a
   spurious [Corrupt_page] (and waste a disk read). *)
let overwrite_page t pid (img : Bytes.t) =
  let fi =
    match Hashtbl.find_opt t.table pid with
    | Some fi -> fi
    | None -> install t pid ~load:false
  in
  Bytes.blit img 0 t.frames.(fi).bytes 0 Page.page_size;
  t.frames.(fi).dirty <- true

(* Pool residency of a page, without faulting it in: the scrubber picks
   its repair source from this. *)
let residency t pid =
  match Hashtbl.find_opt t.table pid with
  | None -> `Absent
  | Some fi -> if t.frames.(fi).dirty then `Dirty else `Clean

(* Scrubber repair: install a known-good image (WAL after-image or a
   standby's copy) without reading the corrupt on-disk page, write it
   straight through, and leave the frame clean — the disk now matches
   the frame, so a later flush would be redundant. *)
let repair_page t pid (img : Bytes.t) =
  let fi =
    match Hashtbl.find_opt t.table pid with
    | Some fi -> fi
    | None -> install t pid ~load:false
  in
  Bytes.blit img 0 t.frames.(fi).bytes 0 Page.page_size;
  File_store.write_page t.store pid t.frames.(fi).bytes;
  t.frames.(fi).dirty <- false

(* Allocate a fresh page: claims a page id from the file store and maps
   a zeroed frame for it without a disk read. *)
let allocate_page t =
  let pid = File_store.allocate t.store in
  ignore (install t pid ~load:false);
  Xptr.of_page_id pid

let free_page t (p : Xptr.t) =
  let pid = Xptr.page_id p in
  (match Hashtbl.find_opt t.table pid with
   | Some fi ->
     t.frames.(fi).dirty <- false;
     (* a transaction pin on a page being freed dies with the page *)
     t.frames.(fi).pins <- 0;
     unmap t fi
   | None -> ());
  File_store.free t.store pid

let flush_all t =
  let flushed = ref 0 in
  Array.iteri
    (fun fi f ->
      if f.pid >= 0 && f.dirty then incr flushed;
      flush_frame t fi)
    t.frames;
  File_store.sync t.store;
  !flushed

(* Drop every frame without writing (crash simulation in tests). *)
let drop_all t =
  Array.iteri
    (fun fi f ->
      f.pins <- 0;
      ignore fi;
      f.dirty <- false)
    t.frames;
  Array.iteri (fun fi _ -> unmap t fi) t.frames
