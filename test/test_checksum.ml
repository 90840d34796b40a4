(* Checksum kernels and the on-disk formats they guard: the word-at-a-
   time CRC-32 and the frame FNV-1a agree with bytewise references on
   every offset and length, and golden bytes pin one WAL frame of every
   record kind and the sidecar entry of one known page, so neither
   format can move without a test noticing. *)

open Sedna_core
module Bytes_util = Sedna_util.Bytes_util

(* the classic one-table, one-byte-per-step CRC-32 *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let reference_crc32 b off len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := crc_table.((!c lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* FNV-1a masked to 32 bits on every step, folded to 31 *)
let reference_fnv b off len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.get b i)) * 0x01000193 land 0xFFFFFFFF
  done;
  !h land 0x7FFFFFFF

(* a buffer of [off + len] random bytes with the range at [off] *)
let gen_range =
  QCheck.Gen.(
    map3
      (fun off len seed ->
        let st = Random.State.make [| seed |] in
        (Bytes.init (off + len) (fun _ -> Char.chr (Random.State.int st 256)), off, len))
      (int_range 0 7) (int_range 0 4096) int)

let arb_range =
  QCheck.make
    ~print:(fun (_, off, len) -> Printf.sprintf "off=%d len=%d" off len)
    gen_range

let arb_page =
  QCheck.make ~print:(fun _ -> "page")
    QCheck.Gen.(
      map
        (fun seed ->
          let st = Random.State.make [| seed |] in
          Bytes.init Page.page_size (fun _ -> Char.chr (Random.State.int st 256)))
        int)

let test_crc_check_value () =
  Alcotest.(check int) "crc32 check value" 0xCBF43926
    (Bytes_util.crc32 (Bytes.of_string "123456789"));
  Alcotest.(check int) "empty" 0 (Bytes_util.crc32 Bytes.empty);
  Alcotest.check_raises "range past the end" (Invalid_argument "Bytes_util.crc32")
    (fun () -> ignore (Bytes_util.crc32 ~off:2 ~len:8 (Bytes.create 9)))

let hex s =
  String.to_seq s
  |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c))
  |> List.of_seq |> String.concat ""

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* [f] gets a created, empty directory, removed afterwards *)
let with_empty_dir f =
  Test_util.with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  f dir

(* one frame of every record kind, byte for byte *)
let golden_frames =
  [
    (Wal.Begin 7, "040000000107000000e237115b");
    ( Wal.Image (7, 42, Bytes.of_string "\x00\x01\xfepage\xff"),
      "1000000002070000002a0000000001fe70616765ff4136c07e" );
    (Wal.Commit (7, None), "080000000307000000000000000254bd03");
    ( Wal.Commit (9, Some "cat\x00blob"),
      "1000000003090000000100000063617400626c6f622238172f" );
    (Wal.Abort 8, "0400000004080000009dedf74c");
    (Wal.Checkpoint, "0000000005c59d1c01");
    (Wal.Logical (7, "update"), "0a00000006070000007570646174653babb136");
  ]

let test_wal_golden_frames () =
  with_empty_dir @@ fun dir ->
  let path = Filename.concat dir "wal.sdb" in
  List.iter
    (fun (record, expected) ->
      let w = Wal.create path in
      Wal.append w record;
      Wal.close w;
      let bytes = read_file path in
      Alcotest.(check string) "frame bytes" expected (hex bytes);
      Alcotest.(check bool) "decodes back" true (Wal.read_all path = [ record ]))
    golden_frames

(* a frame of a whole known page: length, header and checksum *)
let known_page () =
  Bytes.init Page.page_size (fun i -> Char.chr (((i * 31) + 7) land 0xff))

let test_wal_golden_page_frame () =
  with_empty_dir @@ fun dir ->
  let path = Filename.concat dir "wal.sdb" in
  let w = Wal.create path in
  Wal.append w (Wal.Image (3, 5, known_page ()));
  Wal.close w;
  let f = read_file path in
  Alcotest.(check int) "frame length" (Page.page_size + 17) (String.length f);
  Alcotest.(check string) "header" "08100000020300000005000000" (hex (String.sub f 0 13));
  Alcotest.(check string) "checksum" "53837b10"
    (hex (String.sub f (String.length f - 4) 4))

let test_sidecar_golden () =
  with_empty_dir @@ fun dir ->
  let fs = File_store.create (Filename.concat dir "data.sdb") in
  let pid = File_store.allocate fs in
  File_store.write_page fs pid (known_page ());
  File_store.sync fs;
  File_store.close fs;
  (* [known:u8][crc:i32 LE] per page: the zero master page, then ours *)
  Alcotest.(check string) "sidecar" "0111001cc701e34e1c5d"
    (hex (read_file (Filename.concat dir "data.sdb.cksum")));
  let fs = File_store.open_existing (Filename.concat dir "data.sdb") in
  Alcotest.(check bool) "page verifies" true (File_store.verify_page fs pid = `Ok);
  File_store.close fs

let suite =
  [
    Alcotest.test_case "crc32 check value" `Quick test_crc_check_value;
    Test_util.qcheck_case ~count:300 "crc32 = bytewise reference" arb_range
      (fun (b, off, len) ->
        Bytes_util.crc32 ~off ~len b = reference_crc32 b off len);
    Test_util.qcheck_case ~count:100 "crc32 of 4 KiB pages" arb_page (fun b ->
        Bytes_util.crc32 ~len:Page.page_size b = reference_crc32 b 0 Page.page_size);
    Test_util.qcheck_case ~count:300 "wal checksum = FNV-1a reference" arb_range
      (fun (b, off, len) -> Wal.checksum ~off ~len b = reference_fnv b off len);
    Alcotest.test_case "wal frame of every kind" `Quick test_wal_golden_frames;
    Alcotest.test_case "wal frame of a page" `Quick test_wal_golden_page_frame;
    Alcotest.test_case "sidecar crc of a page" `Quick test_sidecar_golden;
  ]
