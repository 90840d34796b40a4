(* B-tree tests: unit cases plus a qcheck property comparing against a
   reference map. *)

open Sedna_core

let with_bt f =
  Test_util.with_db (fun db ->
      Database.with_txn db (fun _ st ->
          let bt = Btree.create st.Store.bm in
          f st bt))

let v i = Xptr.make ~layer:9 ~addr:(i * 8)

let test_insert_lookup () =
  with_bt (fun _st bt ->
      for i = 0 to 999 do
        Btree.insert bt ~key:(Printf.sprintf "key%04d" i) ~value:(v i)
      done;
      Alcotest.(check int) "entries" 1000 (Btree.entry_count bt);
      for i = 0 to 999 do
        match Btree.lookup bt (Printf.sprintf "key%04d" i) with
        | [ x ] ->
          if not (Xptr.equal x (v i)) then Alcotest.failf "wrong value at %d" i
        | l -> Alcotest.failf "key%04d: %d hits" i (List.length l)
      done;
      Alcotest.(check (list string)) "missing key" []
        (List.map (fun _ -> "x") (Btree.lookup bt "nokey"));
      Alcotest.(check bool) "tree grew" true (Btree.height bt bt.Btree.root > 1))

let test_duplicates () =
  with_bt (fun _st bt ->
      for i = 0 to 9 do
        Btree.insert bt ~key:"dup" ~value:(v i)
      done;
      Alcotest.(check int) "ten values" 10 (List.length (Btree.lookup bt "dup"));
      Alcotest.(check bool) "delete one" true
        (Btree.delete bt ~key:"dup" ~value:(v 3));
      Alcotest.(check int) "nine left" 9 (List.length (Btree.lookup bt "dup"));
      Alcotest.(check bool) "delete absent" false
        (Btree.delete bt ~key:"dup" ~value:(v 99)))

let test_range () =
  with_bt (fun _st bt ->
      List.iter
        (fun i -> Btree.insert bt ~key:(Printf.sprintf "%03d" i) ~value:(v i))
        [ 5; 1; 9; 3; 7; 2; 8; 4; 6 ];
      let keys ?lo ?hi () = List.map fst (Btree.range bt ?lo ?hi ()) in
      Alcotest.(check (list string)) "full" [ "001"; "002"; "003"; "004"; "005"; "006"; "007"; "008"; "009" ] (keys ());
      Alcotest.(check (list string)) "mid" [ "003"; "004"; "005" ]
        (keys ~lo:"003" ~hi:"005" ());
      Alcotest.(check (list string)) "upper open" [ "008"; "009" ] (keys ~lo:"008" ())
  )

let test_long_keys_split () =
  with_bt (fun _st bt ->
      (* long keys force splits quickly and exercise compaction *)
      for i = 0 to 300 do
        Btree.insert bt
          ~key:(Printf.sprintf "%04d-%s" i (String.make 150 'k'))
          ~value:(v i)
      done;
      for i = 0 to 300 do
        Alcotest.(check int)
          (Printf.sprintf "hit %d" i)
          1
          (List.length
             (Btree.lookup bt (Printf.sprintf "%04d-%s" i (String.make 150 'k'))))
      done)

let test_duplicates_across_splits () =
  (* heavy duplication forces key runs to span leaf splits: the reads
     must descend left-biased and scan across leaves *)
  with_bt (fun _st bt ->
      let per_key = 200 in
      for i = 0 to (10 * per_key) - 1 do
        Btree.insert bt ~key:(Printf.sprintf "dup%d" (i mod 10)) ~value:(v i)
      done;
      for k = 0 to 9 do
        Alcotest.(check int)
          (Printf.sprintf "all duplicates found for key %d" k)
          per_key
          (List.length (Btree.lookup bt (Printf.sprintf "dup%d" k)))
      done;
      (* delete a specific (key, value) pair buried mid-run *)
      Alcotest.(check bool) "targeted delete" true
        (Btree.delete bt ~key:"dup3" ~value:(v 53));
      Alcotest.(check int) "one fewer" (per_key - 1)
        (List.length (Btree.lookup bt "dup3")))

let test_number_encoding () =
  let values =
    [ Float.neg_infinity; -1e300; -123.456; -1.0; -0.0001; 0.0; 0.0001; 1.0;
      42.0; 123.456; 1e300; Float.infinity ]
  in
  let encoded = List.map Btree.encode_number values in
  let sorted = List.sort String.compare encoded in
  Alcotest.(check (list string)) "byte order = numeric order" encoded sorted;
  List.iter
    (fun f ->
      Alcotest.(check (float 1e-9)) "roundtrip" f
        (Btree.decode_number (Btree.encode_number f)))
    (List.filter Float.is_finite values)

(* property: btree lookup agrees with a reference association list *)
let arb_ops =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 1 400)
        (pair bool (pair (int_range 0 50) (int_range 0 1000))))

let prop_matches_reference ops =
  let result = ref true in
  Test_util.with_db (fun db ->
      Database.with_txn db (fun _ st ->
          let bt = Btree.create st.Store.bm in
          let reference = Hashtbl.create 64 in
          List.iter
            (fun (is_insert, (k, value)) ->
              let key = Printf.sprintf "k%02d" k in
              if is_insert then begin
                Btree.insert bt ~key ~value:(v value);
                Hashtbl.add reference key value
              end
              else begin
                let existing = Hashtbl.find_all reference key in
                if List.mem value existing then begin
                  ignore (Btree.delete bt ~key ~value:(v value));
                  (* drop exactly one occurrence from the reference *)
                  let rec remove_one = function
                    | [] -> []
                    | x :: r -> if x = value then r else x :: remove_one r
                  in
                  let rest = remove_one existing in
                  while Hashtbl.mem reference key do
                    Hashtbl.remove reference key
                  done;
                  List.iter (fun x -> Hashtbl.add reference key x) (List.rev rest)
                end
              end)
            ops;
          for k = 0 to 50 do
            let key = Printf.sprintf "k%02d" k in
            let expect = List.sort compare (Hashtbl.find_all reference key) in
            let got =
              List.sort compare
                (List.map (fun p -> Xptr.addr p / 8) (Btree.lookup bt key))
            in
            if expect <> got then result := false
          done));
  !result

let suite =
  [
    Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
    Alcotest.test_case "duplicates" `Quick test_duplicates;
    Alcotest.test_case "range" `Quick test_range;
    Alcotest.test_case "long keys" `Quick test_long_keys_split;
    Alcotest.test_case "duplicates across splits" `Quick
      test_duplicates_across_splits;
    Alcotest.test_case "number encoding" `Quick test_number_encoding;
    Test_util.qcheck_case ~count:30 "matches reference" arb_ops
      prop_matches_reference;
  ]
