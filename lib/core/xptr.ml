(* Database pointers (paper §4.2): a 64-bit address in the Sedna
   Address Space.  The high 32 bits are the layer number, the low 32
   bits the byte address within the layer.  The same representation is
   used in main and secondary memory, which is what eliminates pointer
   swizzling.

   In memory an address is an immediate OCaml [int] (63 bits), so the
   layer must stay below 2^31; a pointer is then never boxed, whether
   it is read from a page, passed to a function or stored in a record.
   Layers from 2^30 up set the int's sign bit, so ordering and the
   64-bit value read the 63 bits as unsigned.  On a page a pointer is
   the same 8 little-endian bytes a 64-bit integer with the layer in its
   high half would give ([get]/[set] below).

   The zero address (layer 0, offset 0) is reserved for the master page
   and doubles as the null pointer. *)

type t = int

let null : t = 0

let[@inline] is_null (t : t) = t = 0

let[@inline] make ~layer ~addr : t = (layer lsl 32) lor (addr land 0xFFFF_FFFF)

let[@inline] layer (t : t) = t lsr 32
let[@inline] addr (t : t) = t land 0xFFFF_FFFF

(* Global page index across the whole SAS: used as the key for the
   buffer table, the page file, the WAL and the version store. *)
let[@inline] page_id (t : t) =
  (layer t * Page.pages_per_layer) + (addr t / Page.page_size)

let[@inline] page_offset (t : t) = addr t mod Page.page_size

(* Address of the first byte of the page containing [t]. *)
let[@inline] page_start (t : t) = t - page_offset t

let of_page_id pid =
  make ~layer:(pid / Page.pages_per_layer)
    ~addr:(pid mod Page.pages_per_layer * Page.page_size)

let[@inline] add (t : t) n = t + n

let equal = Int.equal
let compare (a : t) b = Int.compare (a lxor min_int) (b lxor min_int)
let hash (t : t) = t land max_int

let[@inline] to_int64 (t : t) : int64 = Int64.logand (Int64.of_int t) Int64.max_int
let[@inline] of_int64 (i : int64) : t = Int64.to_int i

(* The on-page encoding, converted inside one function each way: the
   native compiler keeps the intermediate [int64] unboxed. *)
let[@inline] get b off : t = of_int64 (Bytes.get_int64_le b off)
let[@inline] set b off (t : t) = Bytes.set_int64_le b off (to_int64 t)

let pp ppf t =
  if is_null t then Format.pp_print_string ppf "<null>"
  else Format.fprintf ppf "L%d:%06x" (layer t) (addr t)
