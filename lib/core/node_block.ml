(* Node blocks and node descriptors (paper §4.1, Figure 3).

   A block stores descriptors of exactly one schema node.  Blocks of a
   schema node form a doubly-linked list ordered by document order;
   within a block descriptors are unordered on disk, with document
   order reconstructed from the next/prev-in-block chain.

   Descriptors are fixed-size within a block.  Element descriptors
   carry one child pointer per child *schema* node ("first child by
   schema"); the number of child slots is kept in the block header and
   may differ across blocks of the same schema node — the paper's
   delayed per-block widening after schema evolution.

   Descriptor layout (offsets in bytes):
     0   label: len byte + <= 15 inline bytes, or 0xFF + overflow xptr
         at offset 8 (a slot in the text store)
     16  indir        xptr of this node's indirection cell (node handle)
     24  parent       xptr of the PARENT's indirection cell (indirect!)
     32  left-sibling  direct xptr to the left sibling's descriptor
     40  right-sibling direct xptr
     48  next-in-block u16 slot, 50 prev-in-block u16 slot
     52  flags u32
     56  payload:
         element/document: child_slots * 8 bytes of first-child xptrs
         text/attribute/comment/pi: value xptr (8) + value length i32 *)

open Sedna_util

let magic = 0xb10c
let header_size = 64
let nil_slot = 0xffff
let common_size = 56
let label_inline_max = 15
let label_overflow = 0xff

(* header offsets *)
let h_magic = 0
let h_kind = 2
let h_schema_id = 4
let h_desc_size = 8
let h_child_slots = 10
let h_count = 12
let h_capacity = 14
let h_free_head = 16
let h_first_slot = 18
let h_last_slot = 20
let h_next_block = 24
let h_prev_block = 32

(* descriptor field offsets *)
let d_label = 0
let d_label_overflow_ptr = 8
let d_indir = 16
let d_parent = 24
let d_left_sib = 32
let d_right_sib = 40
let d_next_in_block = 48
let d_prev_in_block = 50
let d_payload = 56

let desc_size_for ~(kind : Catalog.kind) ~child_slots =
  match kind with
  | Catalog.Element | Catalog.Document -> common_size + (8 * child_slots)
  | Catalog.Attribute | Catalog.Text | Catalog.Comment | Catalog.Pi ->
    common_size + 16

(* ---- block header accessors ---------------------------------------- *)

let block_of_desc (d : Xptr.t) = Xptr.page_start d

let schema_id bm block = Buffer_mgr.read_i32 bm (Xptr.add block h_schema_id)
let desc_size bm block = Buffer_mgr.read_u16 bm (Xptr.add block h_desc_size)
let child_slots bm block = Buffer_mgr.read_u16 bm (Xptr.add block h_child_slots)
let count bm block = Buffer_mgr.read_u16 bm (Xptr.add block h_count)
let capacity bm block = Buffer_mgr.read_u16 bm (Xptr.add block h_capacity)

let next_block bm block = Buffer_mgr.read_xptr bm (Xptr.add block h_next_block)
let prev_block bm block = Buffer_mgr.read_xptr bm (Xptr.add block h_prev_block)
let set_next_block bm block v = Buffer_mgr.write_xptr bm (Xptr.add block h_next_block) v
let set_prev_block bm block v = Buffer_mgr.write_xptr bm (Xptr.add block h_prev_block) v

let first_slot bm block =
  let s = Buffer_mgr.read_u16 bm (Xptr.add block h_first_slot) in
  if s = nil_slot then None else Some s

let last_slot bm block =
  let s = Buffer_mgr.read_u16 bm (Xptr.add block h_last_slot) in
  if s = nil_slot then None else Some s

let check bm block =
  if Buffer_mgr.read_u16 bm (Xptr.add block h_magic) <> magic then
    Error.raise_error Error.Storage_corruption "not a node block at %a"
      Xptr.pp block

(* [dsz] is the block's descriptor size, for walks that read it once
   per block *)
let desc_addr_sized block dsz slot = Xptr.add block (header_size + (slot * dsz))

let desc_addr bm block slot = desc_addr_sized block (desc_size bm block) slot

let slot_of_desc bm (d : Xptr.t) =
  let block = block_of_desc d in
  (Xptr.page_offset d - header_size) / desc_size bm block

(* ---- block creation -------------------------------------------------- *)

(* Create an empty block for [snode] and link it into the schema node's
   block chain right after [after] ([None] = append at the tail). *)
let create_block bm (cat : Catalog.t) (snode : Catalog.snode) ~child_slots:cs
    ~(after : Xptr.t option) : Xptr.t =
  let dsz = desc_size_for ~kind:snode.Catalog.kind ~child_slots:cs in
  let cap = (Page.page_size - header_size) / dsz in
  let block = Buffer_mgr.allocate_page bm in
  Buffer_mgr.write_u16 bm (Xptr.add block h_magic) magic;
  Buffer_mgr.write_u8 bm (Xptr.add block h_kind)
    (Page.block_kind_code Page.Node_block);
  Buffer_mgr.write_i32 bm (Xptr.add block h_schema_id) snode.Catalog.id;
  Buffer_mgr.write_u16 bm (Xptr.add block h_desc_size) dsz;
  Buffer_mgr.write_u16 bm (Xptr.add block h_child_slots) cs;
  Buffer_mgr.write_u16 bm (Xptr.add block h_count) 0;
  Buffer_mgr.write_u16 bm (Xptr.add block h_capacity) cap;
  Buffer_mgr.write_u16 bm (Xptr.add block h_first_slot) nil_slot;
  Buffer_mgr.write_u16 bm (Xptr.add block h_last_slot) nil_slot;
  (* thread the free list through the slots *)
  Buffer_mgr.write_u16 bm (Xptr.add block h_free_head) 0;
  for i = 0 to cap - 1 do
    let next = if i = cap - 1 then nil_slot else i + 1 in
    Buffer_mgr.write_u16 bm (desc_addr_sized block dsz i) next
  done;
  (* link into the chain *)
  let prev, next =
    match after with
    | Some a -> (a, next_block bm a)
    | None -> (snode.Catalog.last_block, Xptr.null)
  in
  Buffer_mgr.write_xptr bm (Xptr.add block h_prev_block) prev;
  Buffer_mgr.write_xptr bm (Xptr.add block h_next_block) next;
  if Xptr.is_null prev then snode.Catalog.first_block <- block
  else set_next_block bm prev block;
  if Xptr.is_null next then snode.Catalog.last_block <- block
  else set_prev_block bm next block;
  snode.Catalog.block_count <- snode.Catalog.block_count + 1;
  Catalog.mark_dirty cat;
  block

(* Unlink an empty block from the chain and release its page. *)
let destroy_block bm (cat : Catalog.t) (snode : Catalog.snode) block =
  let prev = prev_block bm block and next = next_block bm block in
  if Xptr.is_null prev then snode.Catalog.first_block <- next
  else set_next_block bm prev next;
  if Xptr.is_null next then snode.Catalog.last_block <- prev
  else set_prev_block bm next prev;
  snode.Catalog.block_count <- snode.Catalog.block_count - 1;
  Buffer_mgr.free_page bm block;
  Catalog.mark_dirty cat

(* ---- slot management -------------------------------------------------- *)

let has_room bm block = count bm block < capacity bm block

let alloc_slot bm block : int =
  let free = Buffer_mgr.read_u16 bm (Xptr.add block h_free_head) in
  if free = nil_slot then
    Error.raise_error Error.Block_full "node block %a is full" Xptr.pp block;
  let dsz = desc_size bm block in
  let next = Buffer_mgr.read_u16 bm (desc_addr_sized block dsz free) in
  Buffer_mgr.write_u16 bm (Xptr.add block h_free_head) next;
  Buffer_mgr.write_u16 bm (Xptr.add block h_count) (count bm block + 1);
  (* zero the descriptor *)
  let d = desc_addr bm block free in
  Buffer_mgr.with_page ~rw:true bm d (fun bytes ->
      Bytes_util.zero bytes (Xptr.page_offset d) dsz);
  Buffer_mgr.write_u16 bm (Xptr.add d d_next_in_block) nil_slot;
  Buffer_mgr.write_u16 bm (Xptr.add d d_prev_in_block) nil_slot;
  free

let free_slot bm block slot =
  let dsz = desc_size bm block in
  let head = Buffer_mgr.read_u16 bm (Xptr.add block h_free_head) in
  Buffer_mgr.write_u16 bm (desc_addr_sized block dsz slot) head;
  Buffer_mgr.write_u16 bm (Xptr.add block h_free_head) slot;
  Buffer_mgr.write_u16 bm (Xptr.add block h_count) (count bm block - 1)

(* ---- in-block document-order chain ------------------------------------ *)

let next_in_block bm (d : Xptr.t) =
  let s = Buffer_mgr.read_u16 bm (Xptr.add d d_next_in_block) in
  if s = nil_slot then None else Some s

let prev_in_block bm (d : Xptr.t) =
  let s = Buffer_mgr.read_u16 bm (Xptr.add d d_prev_in_block) in
  if s = nil_slot then None else Some s

(* Insert [slot] into the order chain right after [after]
   ([None] = becomes the first descriptor). *)
let link_in_order bm block ~slot ~after =
  let d = desc_addr bm block slot in
  (match after with
   | None ->
     let old_first = Buffer_mgr.read_u16 bm (Xptr.add block h_first_slot) in
     Buffer_mgr.write_u16 bm (Xptr.add d d_next_in_block) old_first;
     Buffer_mgr.write_u16 bm (Xptr.add d d_prev_in_block) nil_slot;
     if old_first <> nil_slot then
       Buffer_mgr.write_u16 bm
         (Xptr.add (desc_addr bm block old_first) d_prev_in_block)
         slot
     else Buffer_mgr.write_u16 bm (Xptr.add block h_last_slot) slot;
     Buffer_mgr.write_u16 bm (Xptr.add block h_first_slot) slot
   | Some a ->
     let ad = desc_addr bm block a in
     let a_next = Buffer_mgr.read_u16 bm (Xptr.add ad d_next_in_block) in
     Buffer_mgr.write_u16 bm (Xptr.add d d_prev_in_block) a;
     Buffer_mgr.write_u16 bm (Xptr.add d d_next_in_block) a_next;
     Buffer_mgr.write_u16 bm (Xptr.add ad d_next_in_block) slot;
     if a_next <> nil_slot then
       Buffer_mgr.write_u16 bm
         (Xptr.add (desc_addr bm block a_next) d_prev_in_block)
         slot
     else Buffer_mgr.write_u16 bm (Xptr.add block h_last_slot) slot)

let unlink_in_order bm block slot =
  let d = desc_addr bm block slot in
  let p = Buffer_mgr.read_u16 bm (Xptr.add d d_prev_in_block) in
  let n = Buffer_mgr.read_u16 bm (Xptr.add d d_next_in_block) in
  (if p = nil_slot then Buffer_mgr.write_u16 bm (Xptr.add block h_first_slot) n
   else
     Buffer_mgr.write_u16 bm (Xptr.add (desc_addr bm block p) d_next_in_block) n);
  if n = nil_slot then Buffer_mgr.write_u16 bm (Xptr.add block h_last_slot) p
  else
    Buffer_mgr.write_u16 bm (Xptr.add (desc_addr bm block n) d_prev_in_block) p

(* ---- descriptor fields ------------------------------------------------ *)

let label_raw bm (d : Xptr.t) : string =
  let len = Buffer_mgr.read_u8 bm (Xptr.add d d_label) in
  if len = label_overflow then
    Text_store.read bm
      (Buffer_mgr.read_xptr bm (Xptr.add d d_label_overflow_ptr))
  else Buffer_mgr.read_string bm (Xptr.add d (d_label + 1)) len

let label bm (d : Xptr.t) : Sedna_nid.Nid.t = Sedna_nid.Nid.of_raw (label_raw bm d)

let set_label bm cat (d : Xptr.t) (nid : Sedna_nid.Nid.t) =
  let raw = Sedna_nid.Nid.to_raw nid in
  if String.length raw <= label_inline_max then begin
    Buffer_mgr.write_u8 bm (Xptr.add d d_label) (String.length raw);
    if raw <> "" then Buffer_mgr.write_string bm (Xptr.add d (d_label + 1)) raw
  end
  else begin
    let slot = Text_store.insert bm cat raw in
    Buffer_mgr.write_u8 bm (Xptr.add d d_label) label_overflow;
    Buffer_mgr.write_xptr bm (Xptr.add d d_label_overflow_ptr) slot
  end

(* Free an overflow label when a node is deleted (a moved node keeps
   its overflow entry: only the 16 label bytes are copied). *)
let release_label bm cat (d : Xptr.t) =
  if Buffer_mgr.read_u8 bm (Xptr.add d d_label) = label_overflow then
    Text_store.delete bm cat
      (Buffer_mgr.read_xptr bm (Xptr.add d d_label_overflow_ptr))

let indir bm d = Buffer_mgr.read_xptr bm (Xptr.add d d_indir)
let set_indir bm d v = Buffer_mgr.write_xptr bm (Xptr.add d d_indir) v

let parent_indir bm d = Buffer_mgr.read_xptr bm (Xptr.add d d_parent)
let set_parent_indir bm d v = Buffer_mgr.write_xptr bm (Xptr.add d d_parent) v

let left_sibling bm d = Buffer_mgr.read_xptr bm (Xptr.add d d_left_sib)
let set_left_sibling bm d v = Buffer_mgr.write_xptr bm (Xptr.add d d_left_sib) v

let right_sibling bm d = Buffer_mgr.read_xptr bm (Xptr.add d d_right_sib)
let set_right_sibling bm d v = Buffer_mgr.write_xptr bm (Xptr.add d d_right_sib) v

(* child slot k: first child of the k-th child schema node.  Blocks
   created before the schema grew may be narrower than the schema: a
   missing slot reads as null. *)
let child bm (d : Xptr.t) k : Xptr.t =
  let block = block_of_desc d in
  if k < child_slots bm block then
    Buffer_mgr.read_xptr bm (Xptr.add d (d_payload + (8 * k)))
  else Xptr.null

let set_child bm (d : Xptr.t) k (v : Xptr.t) =
  let block = block_of_desc d in
  if k >= child_slots bm block then
    Error.raise_error Error.Storage_corruption
      "descriptor at %a has no child slot %d (block has %d)" Xptr.pp d k
      (child_slots bm block);
  Buffer_mgr.write_xptr bm (Xptr.add d (d_payload + (8 * k))) v

(* text payload for text/attribute/comment/pi descriptors *)
let text_ref bm d = Buffer_mgr.read_xptr bm (Xptr.add d d_payload)
let set_text_ref bm d v = Buffer_mgr.write_xptr bm (Xptr.add d d_payload) v
let text_len bm d = Buffer_mgr.read_i32 bm (Xptr.add d (d_payload + 8))
let set_text_len bm d v = Buffer_mgr.write_i32 bm (Xptr.add d (d_payload + 8)) v

(* ---- document-order iteration within one schema node ------------------ *)

(* A chain walk that reads each block's descriptor size once, on
   entering the block: a descriptor paired with that size. *)
let rec first_sized_from bm block =
  if Xptr.is_null block then None
  else
    match first_slot bm block with
    | Some s ->
      let dsz = desc_size bm block in
      Some (desc_addr_sized block dsz s, dsz)
    | None -> first_sized_from bm (next_block bm block)

(* first descriptor of the schema node's block chain *)
let first_desc_from bm block = Option.map fst (first_sized_from bm block)

let rec last_desc_from bm block =
  if Xptr.is_null block then None
  else
    match last_slot bm block with
    | Some s -> Some (desc_addr bm block s)
    | None -> last_desc_from bm (prev_block bm block)

let first_desc bm (snode : Catalog.snode) =
  first_desc_from bm snode.Catalog.first_block

let last_desc bm (snode : Catalog.snode) =
  last_desc_from bm snode.Catalog.last_block

let next_sized bm ((d, dsz) : Xptr.t * int) =
  let block = block_of_desc d in
  incr Counters.block_touch_cell;
  match next_in_block bm d with
  | Some s -> Some (desc_addr_sized block dsz s, dsz)
  | None -> first_sized_from bm (next_block bm block)

(* successor in document order among nodes of the same schema node *)
let next_desc bm (d : Xptr.t) =
  let block = block_of_desc d in
  incr Counters.block_touch_cell;
  match next_in_block bm d with
  | Some s -> Some (desc_addr bm block s)
  | None -> first_desc_from bm (next_block bm block)

let prev_desc bm (d : Xptr.t) =
  let block = block_of_desc d in
  match prev_in_block bm d with
  | Some s -> Some (desc_addr bm block s)
  | None -> last_desc_from bm (prev_block bm block)

(* raw 16-byte label area copy, used during relocation *)
let copy_label_area bm ~src ~dst =
  let v0 = Buffer_mgr.read_i64 bm (Xptr.add src d_label) in
  let v1 = Buffer_mgr.read_i64 bm (Xptr.add src (d_label + 8)) in
  Buffer_mgr.write_i64 bm (Xptr.add dst d_label) v0;
  Buffer_mgr.write_i64 bm (Xptr.add dst (d_label + 8)) v1
