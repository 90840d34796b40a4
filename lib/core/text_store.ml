(* Storage for text values (paper §4.1): string properties of nodes —
   text-node content, attribute string values — have unrestricted
   length and are therefore kept apart from the fixed-size node
   descriptors, in slotted pages ("slotted-page structure method").

   A value reference is the xptr of its 4-byte slot-directory entry;
   the entry holds (offset, len) within the page.  Values move inside
   their page on compaction, but the slot entry stays put, so the
   reference stored in a node descriptor never changes unless the value
   itself is replaced.

   Values longer than [max_short] go to a chain of overflow pages; the
   slot then holds a 12-byte long-descriptor (total length + first
   overflow page). *)

open Sedna_util

let magic = 0x7e47
let overflow_magic = 0x0f10
let header_size = 16
let slot_size = 4
let tombstone = 0xffff
let long_sentinel = 0xfffe
let long_desc_size = 12
let overflow_header = 16
let overflow_capacity = Page.page_size - overflow_header
let max_short = 3000

(* header fields *)
let off_magic = 0
let off_kind = 2
let off_count = 4
let off_data_start = 6

let slot_addr page slot = Xptr.add page (header_size + (slot * slot_size))

let init_page bm page =
  Buffer_mgr.write_u16 bm (Xptr.add page off_magic) magic;
  Buffer_mgr.write_u8 bm (Xptr.add page off_kind)
    (Page.block_kind_code Page.Text_block);
  Buffer_mgr.write_u16 bm (Xptr.add page off_count) 0;
  Buffer_mgr.write_u16 bm (Xptr.add page off_data_start) Page.page_size

let check_page bm page =
  if Buffer_mgr.read_u16 bm (Xptr.add page off_magic) <> magic then
    Error.raise_error Error.Storage_corruption "not a text page at %a" Xptr.pp
      page

let free_bytes bm page =
  let count = Buffer_mgr.read_u16 bm (Xptr.add page off_count) in
  let data_start = Buffer_mgr.read_u16 bm (Xptr.add page off_data_start) in
  data_start - (header_size + (count * slot_size))

(* find a reusable tombstone slot *)
let find_free_slot bm page =
  let count = Buffer_mgr.read_u16 bm (Xptr.add page off_count) in
  let rec go i =
    if i >= count then None
    else if Buffer_mgr.read_u16 bm (slot_addr page i) = tombstone then Some i
    else go (i + 1)
  in
  go 0

(* ---- overflow chains ------------------------------------------------ *)

let write_overflow_chain bm (s : string) =
  let n = String.length s in
  let rec go pos =
    if pos >= n then Xptr.null
    else begin
      let page = Buffer_mgr.allocate_page bm in
      let chunk = min overflow_capacity (n - pos) in
      Buffer_mgr.write_u16 bm (Xptr.add page 0) overflow_magic;
      Buffer_mgr.write_u8 bm (Xptr.add page 2)
        (Page.block_kind_code Page.Text_block);
      Buffer_mgr.write_u16 bm (Xptr.add page 4) chunk;
      let next = go (pos + chunk) in
      Buffer_mgr.write_xptr bm (Xptr.add page 8) next;
      Buffer_mgr.write_string bm (Xptr.add page overflow_header)
        (String.sub s pos chunk);
      page
    end
  in
  go 0

let read_overflow_chain bm first total =
  let buf = Buffer.create total in
  let rec go page =
    if not (Xptr.is_null page) then begin
      let used = Buffer_mgr.read_u16 bm (Xptr.add page 4) in
      Buffer.add_string buf
        (Buffer_mgr.read_string bm (Xptr.add page overflow_header) used);
      go (Buffer_mgr.read_xptr bm (Xptr.add page 8))
    end
  in
  go first;
  Buffer.contents buf

let free_overflow_chain bm first =
  let rec go page =
    if not (Xptr.is_null page) then begin
      let next = Buffer_mgr.read_xptr bm (Xptr.add page 8) in
      Buffer_mgr.free_page bm page;
      go next
    end
  in
  go first

(* ---- short values ---------------------------------------------------- *)

(* Raw insert of [data] into [page]; assumes room was checked. *)
let insert_into_page bm cat page (data : string) =
  let len = String.length data in
  let data_start = Buffer_mgr.read_u16 bm (Xptr.add page off_data_start) in
  let new_start = data_start - len in
  Buffer_mgr.write_string bm (Xptr.add page new_start) data;
  Buffer_mgr.write_u16 bm (Xptr.add page off_data_start) new_start;
  let slot =
    match find_free_slot bm page with
    | Some s -> s
    | None ->
      let count = Buffer_mgr.read_u16 bm (Xptr.add page off_count) in
      Buffer_mgr.write_u16 bm (Xptr.add page off_count) (count + 1);
      count
  in
  let sa = slot_addr page slot in
  Buffer_mgr.write_u16 bm sa new_start;
  Buffer_mgr.write_u16 bm (Xptr.add sa 2) len;
  Catalog.text_space_set cat page (free_bytes bm page);
  sa

(* Compact a page in place: close the holes left by tombstoned and
   relocated values.  Slot entries keep their indexes. *)
let compact bm page =
  Buffer_mgr.with_page ~rw:true bm page (fun bytes ->
      let count = Bytes_util.get_u16 bytes off_count in
      (* collect live slots sorted by offset, highest first *)
      let live = ref [] in
      for i = 0 to count - 1 do
        let so = header_size + (i * slot_size) in
        let off = Bytes_util.get_u16 bytes so in
        if off <> tombstone then
          let len = Bytes_util.get_u16 bytes (so + 2) in
          let len = if len = long_sentinel then long_desc_size else len in
          live := (i, off, len) :: !live
      done;
      let live =
        List.sort (fun (_, a, _) (_, b, _) -> compare b a) !live
      in
      let data_start = ref Page.page_size in
      List.iter
        (fun (i, off, len) ->
          let target = !data_start - len in
          if target <> off then begin
            let tmp = Bytes.sub bytes off len in
            Bytes.blit tmp 0 bytes target len
          end;
          Bytes_util.set_u16 bytes (header_size + (i * slot_size)) target;
          data_start := target)
        live;
      Bytes_util.set_u16 bytes off_data_start !data_start)

(* ---- public API ------------------------------------------------------ *)

(* Encode a long value as a chain plus an in-page long-descriptor. *)
let insert bm cat (s : string) : Xptr.t =
  let data, mark_long, chain =
    if String.length s <= max_short then (s, false, Xptr.null)
    else begin
      let chain = write_overflow_chain bm s in
      let b = Bytes.create long_desc_size in
      Bytes_util.set_i32 b 0 (String.length s);
      Xptr.set b 4 chain;
      (Bytes.to_string b, true, chain)
    end
  in
  ignore chain;
  let need = String.length data + slot_size in
  let page =
    match Catalog.text_space_find cat ~need with
    | Some p -> p
    | None ->
      let p = Buffer_mgr.allocate_page bm in
      init_page bm p;
      Catalog.text_space_set cat p (free_bytes bm p);
      p
  in
  check_page bm page;
  (* the free map may be conservative: re-check and compact if needed *)
  if free_bytes bm page < need then compact bm page;
  let sa = insert_into_page bm cat page data in
  if mark_long then Buffer_mgr.write_u16 bm (Xptr.add sa 2) long_sentinel;
  sa

let page_of_slot (sa : Xptr.t) = Xptr.page_start sa

let read bm (sa : Xptr.t) : string =
  let page = page_of_slot sa in
  check_page bm page;
  (* the slot's two u16 fields, offset then length, in one read *)
  let slot = Buffer_mgr.read_i32 bm sa in
  let off = slot land 0xffff and len = (slot asr 16) land 0xffff in
  if off = tombstone then
    Error.raise_error Error.Storage_corruption "read of deleted text value";
  if len = long_sentinel then begin
    let total = Buffer_mgr.read_i32 bm (Xptr.add page off) in
    let first = Buffer_mgr.read_xptr bm (Xptr.add page (off + 4)) in
    read_overflow_chain bm first total
  end
  else Buffer_mgr.read_string bm (Xptr.add page off) len

let length bm (sa : Xptr.t) : int =
  let page = page_of_slot sa in
  let off = Buffer_mgr.read_u16 bm sa in
  let len = Buffer_mgr.read_u16 bm (Xptr.add sa 2) in
  if len = long_sentinel then Buffer_mgr.read_i32 bm (Xptr.add page off)
  else len

let delete bm cat (sa : Xptr.t) =
  let page = page_of_slot sa in
  check_page bm page;
  let off = Buffer_mgr.read_u16 bm sa in
  let len = Buffer_mgr.read_u16 bm (Xptr.add sa 2) in
  if off <> tombstone then begin
    if len = long_sentinel then begin
      let first = Buffer_mgr.read_xptr bm (Xptr.add page (off + 4)) in
      free_overflow_chain bm first
    end;
    Buffer_mgr.write_u16 bm sa tombstone;
    compact bm page;
    Catalog.text_space_set cat page (free_bytes bm page)
  end

(* Replace a value: the slot may move; the caller stores the returned
   reference (a single-field update in the owning descriptor). *)
let update bm cat (sa : Xptr.t) (s : string) : Xptr.t =
  delete bm cat sa;
  insert bm cat s
