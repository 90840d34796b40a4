(* Storage substrate tests: xptr encoding, the page file, the buffer
   manager with its software VAS, the text store and the indirection
   table. *)

open Sedna_core

let test_xptr_encoding () =
  let p = Xptr.make ~layer:5 ~addr:(3 * Page.page_size + 17) in
  Alcotest.(check int) "layer" 5 (Xptr.layer p);
  Alcotest.(check int) "addr" (3 * Page.page_size + 17) (Xptr.addr p);
  Alcotest.(check int) "page id" (5 * Page.pages_per_layer + 3) (Xptr.page_id p);
  Alcotest.(check int) "offset" 17 (Xptr.page_offset p);
  Alcotest.(check bool) "null" true (Xptr.is_null Xptr.null);
  Alcotest.(check bool) "not null" false (Xptr.is_null p);
  let q = Xptr.of_page_id (Xptr.page_id p) in
  Alcotest.(check bool) "page start round trip" true
    (Xptr.equal q (Xptr.page_start p))

let with_bm ?(frames = 8) f =
  Test_util.with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let fs = File_store.create (Filename.concat dir "data.sdb") in
  let bm = Buffer_mgr.create ~frames fs in
  Fun.protect ~finally:(fun () -> File_store.close fs) (fun () -> f fs bm)

(* property: the immediate representation agrees with the 64-bit one
   (layer in the high half) over the whole address range, in memory and
   on the page *)
let max_addr = 0xFFFF_FFFF
let max_layer = (1 lsl 31) - 1

let arb_xptrs =
  let open QCheck.Gen in
  let layer = oneof [ return 0; return max_layer; int_range 0 max_layer; int_range 0 16 ] in
  let addr = oneof [ return 0; return max_addr; int_range 0 max_addr; int_range 0 Page.layer_size ] in
  QCheck.make
    ~print:(fun l ->
      String.concat " " (List.map (fun (l, a, n) -> Printf.sprintf "(%d,%x,%d)" l a n) l))
    (list_size (int_range 1 40) (triple layer addr (int_range 0 4096)))

let reference_bits ~layer ~addr =
  Int64.logor (Int64.shift_left (Int64.of_int layer) 32) (Int64.of_int addr)

let prop_xptr_roundtrip cases =
  with_bm (fun _fs bm ->
      let page = Buffer_mgr.allocate_page bm in
      List.for_all
        (fun (layer, addr, n) ->
          let p = Xptr.make ~layer ~addr in
          let bits = reference_bits ~layer ~addr in
          let ps = Page.page_size in
          let in_memory =
            Xptr.layer p = layer
            && Xptr.addr p = addr
            && Xptr.page_offset p = addr mod ps
            && Xptr.page_id p = (layer * Page.pages_per_layer) + (addr / ps)
            && Xptr.equal (Xptr.page_start p) (Xptr.make ~layer ~addr:(addr - (addr mod ps)))
            && (addr >= Page.layer_size
               || Xptr.equal (Xptr.of_page_id (Xptr.page_id p)) (Xptr.page_start p))
            && (addr + n > max_addr || Xptr.equal (Xptr.add p n) (Xptr.make ~layer ~addr:(addr + n)))
            && Int64.equal (Xptr.to_int64 p) bits
            && Xptr.equal (Xptr.of_int64 bits) p
            && Xptr.compare p Xptr.null = Int64.compare bits 0L
            && Xptr.compare (Xptr.make ~layer:1 ~addr:0) p = Int64.compare 0x1_0000_0000L bits
          in
          (* on the page: read back the value, and the same 8 bytes as the
             int64 encoding *)
          let at = Xptr.add page (8 * (n mod (ps / 8))) in
          Buffer_mgr.write_xptr bm at p;
          let on_page =
            Xptr.equal (Buffer_mgr.read_xptr bm at) p
            && Int64.equal (Buffer_mgr.read_i64 bm at) bits
          in
          (* indirection free-list tagging of an 8-aligned address *)
          let d = Xptr.make ~layer ~addr:(addr land lnot 7) in
          let tagged = Indirection.tag d in
          let tagging =
            Indirection.is_tagged tagged
            && (not (Indirection.is_tagged d))
            && Xptr.equal (Indirection.untag tagged) d
            && Int64.equal (Xptr.to_int64 tagged) (Int64.logor (Xptr.to_int64 d) 1L)
          in
          in_memory && on_page && tagging)
        cases)

let test_file_store () =
  with_bm (fun fs _bm ->
      let a = File_store.allocate fs in
      let b = File_store.allocate fs in
      Alcotest.(check bool) "distinct" true (a <> b);
      let img = Bytes.make Page.page_size 'x' in
      File_store.write_page fs a img;
      let back = Bytes.create Page.page_size in
      File_store.read_page fs a back;
      Alcotest.(check bytes) "round trip" img back;
      File_store.free fs b;
      let c = File_store.allocate fs in
      Alcotest.(check int) "free list reuse" b c;
      Alcotest.check_raises "oob read"
        (Sedna_util.Error.Sedna_error
           (Sedna_util.Error.Page_out_of_bounds, "read of page 99 (of 3)"))
        (fun () -> File_store.read_page fs 99 back))

let test_buffer_rw () =
  with_bm (fun _fs bm ->
      let p = Buffer_mgr.allocate_page bm in
      Buffer_mgr.write_u16 bm (Xptr.add p 0) 0xbeef;
      Buffer_mgr.write_i64 bm (Xptr.add p 8) 123456789L;
      Buffer_mgr.write_string bm (Xptr.add p 100) "hello";
      Alcotest.(check int) "u16" 0xbeef (Buffer_mgr.read_u16 bm (Xptr.add p 0));
      Alcotest.(check int64) "i64" 123456789L (Buffer_mgr.read_i64 bm (Xptr.add p 8));
      Alcotest.(check string) "string" "hello"
        (Buffer_mgr.read_string bm (Xptr.add p 100) 5))

let test_buffer_eviction_persists () =
  with_bm ~frames:4 (fun _fs bm ->
      (* write more pages than frames; evicted dirty pages must survive *)
      let pages = List.init 16 (fun _ -> Buffer_mgr.allocate_page bm) in
      List.iteri
        (fun i p -> Buffer_mgr.write_i32 bm (Xptr.add p 4) (1000 + i))
        pages;
      List.iteri
        (fun i p ->
          Alcotest.(check int)
            (Printf.sprintf "page %d content" i)
            (1000 + i)
            (Buffer_mgr.read_i32 bm (Xptr.add p 4)))
        pages)

let test_vas_fast_path () =
  with_bm ~frames:8 (fun _fs bm ->
      let p = Buffer_mgr.allocate_page bm in
      Buffer_mgr.write_i32 bm p 7;
      Sedna_util.Counters.reset Sedna_util.Counters.vas_fast_hit;
      for _ = 1 to 100 do
        ignore (Buffer_mgr.read_i32 bm p)
      done;
      Alcotest.(check int) "all hits took the VAS fast path" 100
        (Sedna_util.Counters.get Sedna_util.Counters.vas_fast_hit);
      (* with the equality mapping disabled, hits go to the table *)
      Buffer_mgr.set_use_vas bm false;
      Sedna_util.Counters.reset Sedna_util.Counters.vas_fast_hit;
      Sedna_util.Counters.reset Sedna_util.Counters.buffer_hit;
      for _ = 1 to 50 do
        ignore (Buffer_mgr.read_i32 bm p)
      done;
      Alcotest.(check int) "no fast path" 0
        (Sedna_util.Counters.get Sedna_util.Counters.vas_fast_hit);
      Alcotest.(check int) "table hits" 50
        (Sedna_util.Counters.get Sedna_util.Counters.buffer_hit))

let test_layer_conflict () =
  (* two pages in the same in-layer slot but different layers compete
     for the VAS slot; both remain readable *)
  with_bm ~frames:8 (fun fs bm ->
      (* page ids layer 0 page 1 and layer 1 page 1 *)
      for _ = 0 to Page.pages_per_layer + 2 do
        ignore (File_store.allocate fs)
      done;
      let a = Xptr.of_page_id 1 in
      let b = Xptr.of_page_id (Page.pages_per_layer + 1) in
      Buffer_mgr.write_i32 bm a 111;
      Buffer_mgr.write_i32 bm b 222;
      Alcotest.(check int) "a" 111 (Buffer_mgr.read_i32 bm a);
      Alcotest.(check int) "b" 222 (Buffer_mgr.read_i32 bm b);
      Alcotest.(check int) "a again" 111 (Buffer_mgr.read_i32 bm a))

let test_pins_protect () =
  with_bm ~frames:2 (fun _fs bm ->
      let p = Buffer_mgr.allocate_page bm in
      Buffer_mgr.write_i32 bm p 42;
      Buffer_mgr.pin_pid bm (Xptr.page_id p);
      (* force pressure *)
      let others = List.init 8 (fun _ -> Buffer_mgr.allocate_page bm) in
      List.iter (fun q -> Buffer_mgr.write_i32 bm q 0) others;
      Alcotest.(check int) "pinned page intact" 42 (Buffer_mgr.read_i32 bm p);
      Buffer_mgr.unpin_pid bm (Xptr.page_id p))

(* ---- text store -------------------------------------------------------- *)

let with_store f =
  Test_util.with_db (fun db ->
      Database.with_txn db (fun _ st -> f st))

let test_text_basic () =
  with_store (fun st ->
      let bm = st.Store.bm and cat = st.Store.cat in
      let a = Text_store.insert bm cat "hello" in
      let b = Text_store.insert bm cat "world!" in
      Alcotest.(check string) "a" "hello" (Text_store.read bm a);
      Alcotest.(check string) "b" "world!" (Text_store.read bm b);
      Alcotest.(check int) "len" 6 (Text_store.length bm b);
      let a' = Text_store.update bm cat a "replaced value" in
      Alcotest.(check string) "updated" "replaced value" (Text_store.read bm a');
      Text_store.delete bm cat b;
      Alcotest.(check string) "survivor" "replaced value" (Text_store.read bm a'))

let test_text_compaction () =
  with_store (fun st ->
      let bm = st.Store.bm and cat = st.Store.cat in
      (* fill a page, delete every other value, re-insert into the holes *)
      let vals = List.init 30 (fun i -> String.make 100 (Char.chr (65 + (i mod 26)))) in
      let slots = List.map (fun v -> Text_store.insert bm cat v) vals in
      List.iteri
        (fun i s -> if i mod 2 = 0 then Text_store.delete bm cat s)
        slots;
      let survivors =
        List.filteri (fun i _ -> i mod 2 = 1) (List.combine slots vals)
      in
      List.iter
        (fun (s, v) -> Alcotest.(check string) "survivor intact" v (Text_store.read bm s))
        survivors;
      let more = List.init 10 (fun i -> Text_store.insert bm cat (String.make 120 (Char.chr (97 + i)))) in
      List.iteri
        (fun i s ->
          Alcotest.(check string) "new value"
            (String.make 120 (Char.chr (97 + i)))
            (Text_store.read bm s))
        more)

let test_text_overflow () =
  with_store (fun st ->
      let bm = st.Store.bm and cat = st.Store.cat in
      let big = String.init 100_000 (fun i -> Char.chr (33 + (i mod 90))) in
      let s = Text_store.insert bm cat big in
      Alcotest.(check int) "length" 100_000 (Text_store.length bm s);
      Alcotest.(check string) "content" big (Text_store.read bm s);
      let s2 = Text_store.update bm cat s "now small" in
      Alcotest.(check string) "shrunk" "now small" (Text_store.read bm s2))

(* property: a random insert/delete/update script over the text store
   matches a reference map *)
let arb_text_ops =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 1 150)
        (triple (int_range 0 2) (int_range 0 24) (int_range 0 6)))

let prop_text_store_matches_reference ops =
  let ok = ref true in
  Test_util.with_db (fun db ->
      Database.with_txn db (fun _ st ->
          let bm = st.Store.bm and cat = st.Store.cat in
          let live = ref [] (* (slot, value) in insertion order *) in
          let value_of i l =
            (* sizes from tiny to overflow-length *)
            String.make (1 + (i * 211 mod 5000) + (l * 997 mod 97)) (Char.chr (65 + (i mod 26)))
          in
          List.iteri
            (fun step (op, i, l) ->
              match op with
              | 0 ->
                let v = value_of i l in
                let s = Text_store.insert bm cat v in
                live := (s, v) :: !live
              | 1 -> (
                match !live with
                | [] -> ()
                | _ ->
                  let idx = i mod List.length !live in
                  let s, _ = List.nth !live idx in
                  Text_store.delete bm cat s;
                  live := List.filteri (fun j _ -> j <> idx) !live)
              | _ -> (
                match !live with
                | [] -> ()
                | _ ->
                  let idx = i mod List.length !live in
                  let s, _ = List.nth !live idx in
                  let v = value_of (i + step) l in
                  let s' = Text_store.update bm cat s v in
                  live :=
                    List.mapi (fun j e -> if j = idx then (s', v) else e) !live))
            ops;
          List.iter
            (fun (s, v) -> if Text_store.read bm s <> v then ok := false)
            !live));
  !ok

(* ---- indirection --------------------------------------------------------- *)

let test_indirection () =
  with_store (fun st ->
      let bm = st.Store.bm and cat = st.Store.cat in
      let cells = List.init 600 (fun _ -> Indirection.alloc bm cat) in
      (* 600 cells > one page's worth: the table grew *)
      List.iteri
        (fun i c -> Indirection.set bm c (Xptr.make ~layer:1 ~addr:(i * 8)))
        cells;
      List.iteri
        (fun i c ->
          Alcotest.(check bool)
            "deref" true
            (Xptr.equal (Indirection.get bm c) (Xptr.make ~layer:1 ~addr:(i * 8))))
        cells;
      (* free and reuse *)
      let victim = List.nth cells 5 in
      Indirection.free bm cat victim;
      let again = Indirection.alloc bm cat in
      Alcotest.(check bool) "cell recycled" true (Xptr.equal victim again))

(* A dangling handle makes the checker report, not raise: each damaged
   document is named, and the check goes on past it to the next one. *)
let test_integrity_reports_dangling_handle () =
  Test_util.with_db (fun db ->
      List.iter (fun d -> ignore (Test_util.load db d "<r><x/></r>")) [ "a"; "b"; "c" ];
      let st = Database.store db in
      let bm = st.Store.bm in
      let dangle cell = Indirection.set bm cell (Indirection.tag Xptr.null) in
      (* "a" loses its document node, "c" the <x> under its root *)
      dangle (Catalog.get_document st.Store.cat "a").Catalog.doc_indir;
      let r = Option.get (Node.first_child_any st (Test_util.doc_desc st "c")) in
      dangle (Node.handle st (Option.get (Node.first_child_any st r)));
      let problems = Integrity.check_all st in
      let names = List.sort compare (List.map fst problems) in
      Alcotest.(check (list string)) "both damaged documents named" [ "a"; "c" ] names;
      List.iter
        (fun (_, errs) ->
          Alcotest.(check bool) "dangling handle reported" true
            (List.exists
               (fun e ->
                 String.starts_with ~prefix:"check stopped: SE-STORAGE-CORRUPTION" e)
               errs))
        problems;
      Alcotest.(check (list string)) "the clean document passes" []
        (Integrity.check_document st "b"))

(* Carriage returns survive store -> serialize -> parse: the serializer
   must emit &#13; (a literal CR in an attribute would re-parse as a
   space under XML attribute-value normalization). *)
(* ---- catalog blobs ------------------------------------------------------- *)

(* a blob without the current format tag (an older catalog.sdb or WAL
   commit record) is refused with a typed error, never unmarshaled *)
let test_catalog_format_tag () =
  let cat = Catalog.create () in
  Catalog.text_space_set cat (Xptr.make ~layer:2 ~addr:Page.page_size) 100;
  let blob = Catalog.serialize cat ~page_count:7 ~free_pages:[ 3 ] in
  let p = Catalog.deserialize blob in
  Alcotest.(check int) "page count" 7 p.Catalog.p_page_count;
  Alcotest.(check bool) "text space kept" true
    (Catalog.text_space_find p.Catalog.p_catalog ~need:50
    = Some (Xptr.make ~layer:2 ~addr:Page.page_size));
  let refused what s =
    match Catalog.deserialize s with
    | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.Storage_corruption, _) -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  let n = String.length Catalog.format_tag in
  refused "untagged blob" (String.sub blob n (String.length blob - n));
  refused "other tag" ("sedna-catalog/1\n" ^ String.sub blob n (String.length blob - n));
  (* format 2 still carried the plan-cache epoch field *)
  Alcotest.(check string) "current tag" "sedna-catalog/3\n" Catalog.format_tag;
  refused "format 2 blob" ("sedna-catalog/2\n" ^ String.sub blob n (String.length blob - n));
  refused "empty blob" ""

let test_cr_roundtrip () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<r a=\"x&#13;y\">p&#13;q</r>");
      let out = Test_util.exec db {|doc("d")|} in
      let contains needle =
        let nl = String.length needle and ol = String.length out in
        let rec go i =
          i + nl <= ol && (String.sub out i nl = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "serializer emits &#13;" true (contains "&#13;");
      Alcotest.(check bool) "no raw CR in output" false (String.contains out '\r');
      (* identity: re-parse the serialized form and compare values *)
      ignore (Test_util.load db "d2" out);
      Alcotest.(check string) "attribute CR preserved" "x\ry"
        (Test_util.exec db {|string(doc("d2")/r/@a)|});
      Alcotest.(check string) "text CR preserved" "p\rq"
        (Test_util.exec db {|string(doc("d2")/r)|});
      (* and the premise: a literal CR in an attribute value is
         whitespace the parser normalizes to a space *)
      ignore (Test_util.load db "d3" "<r a=\"x\ry\"/>");
      Alcotest.(check string) "literal CR normalized away" "x y"
        (Test_util.exec db {|string(doc("d3")/r/@a)|}))

let suite =
  [
    Alcotest.test_case "xptr encoding" `Quick test_xptr_encoding;
    Alcotest.test_case "file store" `Quick test_file_store;
    Alcotest.test_case "buffer read/write" `Quick test_buffer_rw;
    Alcotest.test_case "eviction persists" `Quick test_buffer_eviction_persists;
    Alcotest.test_case "vas fast path" `Quick test_vas_fast_path;
    Alcotest.test_case "layer slot conflict" `Quick test_layer_conflict;
    Alcotest.test_case "pins protect" `Quick test_pins_protect;
    Alcotest.test_case "text basic" `Quick test_text_basic;
    Alcotest.test_case "text compaction" `Quick test_text_compaction;
    Alcotest.test_case "text overflow" `Quick test_text_overflow;
    Test_util.qcheck_case ~count:40 "text store matches reference"
      arb_text_ops prop_text_store_matches_reference;
    Alcotest.test_case "indirection" `Quick test_indirection;
    Alcotest.test_case "integrity reports a dangling handle" `Quick
      test_integrity_reports_dangling_handle;
    Test_util.qcheck_case ~count:100 "xptr immediate = int64 encoding" arb_xptrs
      prop_xptr_roundtrip;
    Alcotest.test_case "catalog format tag" `Quick test_catalog_format_tag;
    Alcotest.test_case "carriage-return round trip" `Quick test_cr_roundtrip;
  ]
