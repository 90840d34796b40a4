(* Little-endian fixed-width accessors over Bytes, shared by every
   on-page structure.  All offsets are byte offsets within the page. *)

let get_u8 b off = Char.code (Bytes.get b off)
let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))

let get_u16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

let set_u16 b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff))

let get_i32 b off = Int32.to_int (Bytes.get_int32_le b off)
let set_i32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let get_i64 b off = Bytes.get_int64_le b off
let set_i64 b off v = Bytes.set_int64_le b off v

let get_string b off len = Bytes.sub_string b off len
let set_string b off s = Bytes.blit_string s 0 b off (String.length s)

let zero b off len = Bytes.fill b off len '\000'

(* Float stored as IEEE bits. *)
let get_float b off = Int64.float_of_bits (Bytes.get_int64_le b off)
let set_float b off v = Bytes.set_int64_le b off (Int64.bits_of_float v)

(* CRC-32 (IEEE 802.3, reflected 0xEDB88320) — the page checksum of
   the file store's sidecar map.  Slicing-by-8 (Kounavis & Berry, ISCC
   2005): table [k] advances the CRC of a byte followed by [k] zero
   bytes, so one 8-byte little-endian load feeds eight independent
   lookups per step instead of eight dependent ones.  [crc_tables] holds
   the eight 256-entry tables back to back; table 0 is the classic
   bytewise one and still finishes the unaligned tail. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* unchecked native-order 8-byte load: [crc32] checks its range once
   up front, and only little-endian hosts take the 8-byte loop *)
external get_int64_unsafe : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let crc32 ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Bytes_util.crc32";
  let t = crc_tables in
  let tb i = Array.unsafe_get t i in
  let c = ref 0xFFFFFFFF in
  let i = ref off in
  let stop8 = if Sys.big_endian then off - 1 else off + len - 8 in
  while !i <= stop8 do
    let w = get_int64_unsafe b !i in
    let lo = !c lxor (Int64.to_int w land 0xFFFFFFFF) in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      tb (1792 + (lo land 0xFF))
      lxor tb (1536 + ((lo lsr 8) land 0xFF))
      lxor tb (1280 + ((lo lsr 16) land 0xFF))
      lxor tb (1024 + (lo lsr 24))
      lxor tb (768 + (hi land 0xFF))
      lxor tb (512 + ((hi lsr 8) land 0xFF))
      lxor tb (256 + ((hi lsr 16) land 0xFF))
      lxor tb (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to off + len - 1 do
    c := tb ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
