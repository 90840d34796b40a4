(* B+-tree value indexes over node handles.

   Node handles are what index entries refer to (paper §4.1.2: "node
   handle is used to refer to an XML node from index structures"),
   precisely because handles survive descriptor relocation.

   Layout of a B-tree page:
     0  magic u16
     2  kind  u8 (btree block)
     3  is_leaf u8
     4  count u16
     6  data_start u16 (keys grow downward from page end)
     8  extra i64: leftmost child (internal) / next leaf (leaf)
     16 slot directory: per entry key_off u16, key_len u16, ptr i64
   Keys are byte strings compared lexicographically; numeric keys are
   encoded order-preservingly by {!encode_number}.  Duplicate keys are
   allowed (one entry per (key, handle) pair).  Deletion is by entry
   removal without rebalancing (documented simplification). *)

open Sedna_util

let magic = 0xb7ee
let header_size = 16
let slot_size = 12

let off_magic = 0
let off_kind = 2
let off_is_leaf = 3
let off_count = 4
let off_data_start = 6
let off_extra = 8

let slot_addr page i = Xptr.add page (header_size + (i * slot_size))

(* Order-preserving encoding of a float into 8 bytes. *)
let encode_number (f : float) : string =
  let bits = Int64.bits_of_float f in
  let bits =
    if Int64.compare bits 0L >= 0 then Int64.logor bits Int64.min_int
    else Int64.lognot bits
  in
  let b = Bytes.create 8 in
  (* big-endian so that byte order = numeric order *)
  Bytes.set_int64_be b 0 bits;
  Bytes.to_string b

let decode_number (s : string) : float =
  let bits = Bytes.get_int64_be (Bytes.of_string s) 0 in
  let bits =
    if Int64.compare bits 0L < 0 then Int64.logand bits Int64.max_int
    else Int64.lognot bits
  in
  Int64.float_of_bits bits

(* ---- page primitives -------------------------------------------------- *)

let init_page bm ~is_leaf =
  let page = Buffer_mgr.allocate_page bm in
  Buffer_mgr.write_u16 bm (Xptr.add page off_magic) magic;
  Buffer_mgr.write_u8 bm (Xptr.add page off_kind)
    (Page.block_kind_code Page.Btree_block);
  Buffer_mgr.write_u8 bm (Xptr.add page off_is_leaf) (if is_leaf then 1 else 0);
  Buffer_mgr.write_u16 bm (Xptr.add page off_count) 0;
  Buffer_mgr.write_u16 bm (Xptr.add page off_data_start) Page.page_size;
  Buffer_mgr.write_xptr bm (Xptr.add page off_extra) Xptr.null;
  page

let is_leaf bm page = Buffer_mgr.read_u8 bm (Xptr.add page off_is_leaf) = 1
let count bm page = Buffer_mgr.read_u16 bm (Xptr.add page off_count)
let extra bm page = Buffer_mgr.read_xptr bm (Xptr.add page off_extra)
let set_extra bm page v = Buffer_mgr.write_xptr bm (Xptr.add page off_extra) v

let key_at bm page i =
  let sa = slot_addr page i in
  let off = Buffer_mgr.read_u16 bm sa in
  let len = Buffer_mgr.read_u16 bm (Xptr.add sa 2) in
  Buffer_mgr.read_string bm (Xptr.add page off) len

let ptr_at bm page i = Buffer_mgr.read_xptr bm (Xptr.add (slot_addr page i) 4)

let free_space bm page =
  let c = count bm page in
  let ds = Buffer_mgr.read_u16 bm (Xptr.add page off_data_start) in
  ds - (header_size + (c * slot_size))

(* first index i with key_at i >= key (binary search) *)
let lower_bound bm page key =
  let c = count bm page in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if String.compare (key_at bm page mid) key < 0 then go (mid + 1) hi
      else go lo mid
  in
  go 0 c

(* first index i with key_at i > key *)
let upper_bound bm page key =
  let c = count bm page in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if String.compare (key_at bm page mid) key <= 0 then go (mid + 1) hi
      else go lo mid
  in
  go 0 c

(* insert (key, ptr) at slot index i, shifting the directory *)
let insert_at bm page i key ptr =
  let c = count bm page in
  let ds = Buffer_mgr.read_u16 bm (Xptr.add page off_data_start) in
  let klen = String.length key in
  let new_ds = ds - klen in
  Buffer_mgr.write_string bm (Xptr.add page new_ds) key;
  Buffer_mgr.write_u16 bm (Xptr.add page off_data_start) new_ds;
  (* shift slots [i..c) up by one *)
  Buffer_mgr.with_page ~rw:true bm page (fun bytes ->
      let src = header_size + (i * slot_size) in
      let len = (c - i) * slot_size in
      if len > 0 then Bytes.blit bytes src bytes (src + slot_size) len);
  let sa = slot_addr page i in
  Buffer_mgr.write_u16 bm sa new_ds;
  Buffer_mgr.write_u16 bm (Xptr.add sa 2) klen;
  Buffer_mgr.write_xptr bm (Xptr.add sa 4) ptr;
  Buffer_mgr.write_u16 bm (Xptr.add page off_count) (c + 1)

let remove_at bm page i =
  let c = count bm page in
  Buffer_mgr.with_page ~rw:true bm page (fun bytes ->
      let src = header_size + ((i + 1) * slot_size) in
      let len = (c - i - 1) * slot_size in
      if len > 0 then
        Bytes.blit bytes src bytes (src - slot_size) len);
  Buffer_mgr.write_u16 bm (Xptr.add page off_count) (c - 1)
(* key bytes become garbage; reclaimed on compaction below *)

let compact bm page =
  Buffer_mgr.with_page ~rw:true bm page (fun bytes ->
      let c = Bytes_util.get_u16 bytes off_count in
      let keys =
        List.init c (fun i ->
            let so = header_size + (i * slot_size) in
            let off = Bytes_util.get_u16 bytes so in
            let len = Bytes_util.get_u16 bytes (so + 2) in
            Bytes.sub_string bytes off len)
      in
      let ds = ref Page.page_size in
      List.iteri
        (fun i k ->
          let len = String.length k in
          ds := !ds - len;
          Bytes.blit_string k 0 bytes !ds len;
          Bytes_util.set_u16 bytes (header_size + (i * slot_size)) !ds;
          Bytes_util.set_u16 bytes (header_size + (i * slot_size) + 2) len)
        keys;
      Bytes_util.set_u16 bytes off_data_start !ds)

(* ---- operations -------------------------------------------------------- *)

type t = { bm : Buffer_mgr.t; mutable root : Xptr.t }

let create bm =
  let root = init_page bm ~is_leaf:true in
  { bm; root }

let of_root bm root = { bm; root }
let root t = t.root

(* split [page], returning (separator key, right page) *)
let split t page =
  let bm = t.bm in
  let leaf = is_leaf bm page in
  let c = count bm page in
  let mid = c / 2 in
  let right = init_page bm ~is_leaf:leaf in
  if leaf then begin
    (* leaf: right gets entries [mid..c); separator = first right key *)
    for i = mid to c - 1 do
      insert_at bm right (i - mid) (key_at bm page i) (ptr_at bm page i)
    done;
    let sep = key_at bm page mid in
    Buffer_mgr.write_u16 bm (Xptr.add page off_count) mid;
    compact bm page;
    (* leaf chain *)
    set_extra bm right (extra bm page);
    set_extra bm page right;
    (sep, right)
  end
  else begin
    (* internal: key[mid] moves up; right gets [mid+1..c) with
       leftmost child = child of key[mid] *)
    let sep = key_at bm page mid in
    set_extra bm right (ptr_at bm page mid);
    for i = mid + 1 to c - 1 do
      insert_at bm right (i - mid - 1) (key_at bm page i) (ptr_at bm page i)
    done;
    Buffer_mgr.write_u16 bm (Xptr.add page off_count) mid;
    compact bm page;
    (sep, right)
  end

let need_room bm page key =
  free_space bm page < String.length key + slot_size

(* child page to descend into for [key] (right-biased: equal keys go
   right — used by insertion) *)
let child_for bm page key =
  let i = upper_bound bm page key in
  if i = 0 then extra bm page else ptr_at bm page (i - 1)

(* left-biased descent: duplicates equal to a separator may remain in
   the left sibling after a split, so reads must start there and scan
   forward along the leaf chain *)
let child_for_left bm page key =
  let i = lower_bound bm page key in
  if i = 0 then extra bm page else ptr_at bm page (i - 1)

let rec insert_rec t page key ptr : (string * Xptr.t) option =
  let bm = t.bm in
  if is_leaf bm page then begin
    if need_room bm page key then begin
      compact bm page;
      if need_room bm page key then begin
        let sep, right = split t page in
        if String.compare key sep < 0 then ignore (insert_rec t page key ptr)
        else ignore (insert_rec t right key ptr);
        Some (sep, right)
      end
      else begin
        insert_at bm page (lower_bound bm page key) key ptr;
        None
      end
    end
    else begin
      insert_at bm page (lower_bound bm page key) key ptr;
      None
    end
  end
  else begin
    let child = child_for bm page key in
    match insert_rec t child key ptr with
    | None -> None
    | Some (sep, right) ->
      if need_room bm page sep then begin
        compact bm page;
        if need_room bm page sep then begin
          let psep, pright = split t page in
          let target = if String.compare sep psep < 0 then page else pright in
          insert_at bm target (lower_bound bm target sep) sep right;
          Some (psep, pright)
        end
        else begin
          insert_at bm page (lower_bound bm page sep) sep right;
          None
        end
      end
      else begin
        insert_at bm page (lower_bound bm page sep) sep right;
        None
      end
  end

let insert t ~key ~value =
  match insert_rec t t.root key value with
  | None -> ()
  | Some (sep, right) ->
    let new_root = init_page t.bm ~is_leaf:false in
    set_extra t.bm new_root t.root;
    insert_at t.bm new_root 0 sep right;
    t.root <- new_root

let rec find_leaf t page key =
  if is_leaf t.bm page then page
  else find_leaf t (child_for_left t.bm page key) key

(* all values for [key] *)
let lookup t key : Xptr.t list =
  let bm = t.bm in
  let rec collect page acc =
    if Xptr.is_null page then List.rev acc
    else begin
      let c = count bm page in
      let i0 = lower_bound bm page key in
      let rec scan i acc =
        if i >= c then
          (* key run may continue on the next leaf *)
          collect (extra bm page) acc
        else if String.equal (key_at bm page i) key then
          scan (i + 1) (ptr_at bm page i :: acc)
        else List.rev acc
      in
      scan i0 acc
    end
  in
  collect (find_leaf t t.root key) []

(* inclusive range scan; [lo]/[hi] = None for open ends *)
let range t ?lo ?hi () : (string * Xptr.t) list =
  let bm = t.bm in
  let start_leaf =
    match lo with
    | Some k -> find_leaf t t.root k
    | None ->
      let rec leftmost page =
        if is_leaf bm page then page else leftmost (extra bm page)
      in
      leftmost t.root
  in
  let ok_lo k = match lo with None -> true | Some l -> String.compare k l >= 0 in
  let ok_hi k = match hi with None -> true | Some h -> String.compare k h <= 0 in
  let rec walk page acc =
    if Xptr.is_null page then List.rev acc
    else begin
      let c = count bm page in
      let rec scan i acc stop =
        if i >= c then (acc, stop)
        else
          let k = key_at bm page i in
          if not (ok_hi k) then (acc, true)
          else if ok_lo k then scan (i + 1) ((k, ptr_at bm page i) :: acc) stop
          else scan (i + 1) acc stop
      in
      let acc, stop = scan 0 acc false in
      if stop then List.rev acc else walk (extra bm page) acc
    end
  in
  walk start_leaf []

(* remove one (key, value) pair; returns whether an entry was removed *)
let delete t ~key ~value =
  let bm = t.bm in
  let rec try_leaf page =
    if Xptr.is_null page then false
    else begin
      let c = count bm page in
      let i0 = lower_bound bm page key in
      let rec scan i =
        if i >= c then try_leaf (extra bm page)
        else if String.equal (key_at bm page i) key then
          if Xptr.equal (ptr_at bm page i) value then begin
            remove_at bm page i;
            true
          end
          else scan (i + 1)
        else false
      in
      scan i0
    end
  in
  try_leaf (find_leaf t t.root key)

let rec height t page = if is_leaf t.bm page then 1 else 1 + height t (extra t.bm page)

let entry_count t =
  let bm = t.bm in
  let rec leftmost page =
    if is_leaf bm page then page else leftmost (extra bm page)
  in
  let rec walk page acc =
    if Xptr.is_null page then acc
    else walk (extra bm page) (acc + count bm page)
  in
  walk (leftmost t.root) 0
