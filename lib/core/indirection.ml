(* The indirection table (paper §4.1, §4.1.2).

   An indirection cell holds a direct pointer to a node descriptor.
   Cells never move: the cell's address is the node handle — it
   uniquely identifies the node, gives O(1) access, and stays valid
   when the descriptor is physically relocated (block split/merge).
   Parent pointers in descriptors also go through these cells, which is
   what makes relocation touch a constant number of fields.

   Free cells are chained through their own storage with the low bit
   set (descriptor addresses are 8-aligned, so a tagged value is never
   a valid pointer). *)

open Sedna_util

let magic = 0xd1d1
let header_size = 16
let cell_size = 8
let cells_per_page = (Page.page_size - header_size) / cell_size

let cell_addr page i = Xptr.add page (header_size + (i * cell_size))

(* a cell value is read and written as an [Xptr.t] either way; the tag
   is the low bit of the in-layer address *)
let is_tagged (v : Xptr.t) = Xptr.addr v land 1 = 1
let tag (p : Xptr.t) = if is_tagged p then p else Xptr.add p 1
let untag (v : Xptr.t) = if is_tagged v then Xptr.add v (-1) else v

(* the free-list link stored in a cell: [tag null] ends the list *)
let free_link (cat : Catalog.t) = tag cat.Catalog.indir_free_head

(* Allocate a fresh indirection page and thread its cells onto the free
   list. *)
let grow bm (cat : Catalog.t) =
  let page = Buffer_mgr.allocate_page bm in
  Buffer_mgr.write_u16 bm (Xptr.add page 0) magic;
  Buffer_mgr.write_u8 bm (Xptr.add page 2)
    (Page.block_kind_code Page.Indirection_block);
  (* chain cells: cell i -> cell i+1, last -> previous free head *)
  for i = 0 to cells_per_page - 1 do
    let next =
      if i = cells_per_page - 1 then free_link cat
      else tag (cell_addr page (i + 1))
    in
    Buffer_mgr.write_xptr bm (cell_addr page i) next
  done;
  cat.Catalog.indir_free_head <- cell_addr page 0;
  cat.Catalog.indir_pages <- page :: cat.Catalog.indir_pages;
  Catalog.mark_dirty cat

let alloc bm (cat : Catalog.t) : Xptr.t =
  if Xptr.is_null cat.Catalog.indir_free_head then grow bm cat;
  let cell = cat.Catalog.indir_free_head in
  let v = Buffer_mgr.read_xptr bm cell in
  if not (is_tagged v) then
    Error.raise_error Error.Storage_corruption
      "indirection free list corrupted at %a" Xptr.pp cell;
  cat.Catalog.indir_free_head <- untag v;
  Catalog.mark_dirty cat;
  Buffer_mgr.write_xptr bm cell Xptr.null;
  cell

let free bm (cat : Catalog.t) (cell : Xptr.t) =
  Buffer_mgr.write_xptr bm cell (free_link cat);
  cat.Catalog.indir_free_head <- cell;
  Catalog.mark_dirty cat

(* Dereference a node handle to the current descriptor address. *)
let get bm (cell : Xptr.t) : Xptr.t =
  let v = Buffer_mgr.read_xptr bm cell in
  if is_tagged v then
    Error.raise_error Error.Storage_corruption
      "dangling node handle %a" Xptr.pp cell;
  v

(* Point the handle at a (possibly new) descriptor address: the single
   write that re-parents every child of a moved node. *)
let set bm (cell : Xptr.t) (desc : Xptr.t) =
  Buffer_mgr.write_xptr bm cell desc
