(* Introspection tooling: the sedna:schema() function and the \explain
   plan printer. *)

let fixture = {|<shop><item id="1"><name>apple</name></item><item id="2"><name>pear</name></item><note>hi</note></shop>|}

let test_schema_function () =
  Test_util.with_doc fixture (fun _db run ->
      let s = run {|schema("d")|} in
      (* the descriptive schema has exactly one path per distinct
         document path *)
      let count_sub needle hay =
        let n = String.length needle and h = String.length hay in
        let c = ref 0 in
        for i = 0 to h - n do
          if String.sub hay i n = needle then incr c
        done;
        !c
      in
      Alcotest.(check int) "one item schema node" 1
        (count_sub {|name="item"|} s);
      Alcotest.(check int) "item population is 2" 1 (count_sub {|name="item" count="2"|} s);
      Alcotest.(check int) "one note schema node" 1 (count_sub {|name="note"|} s);
      (* schema queries compose with path expressions *)
      Alcotest.(check string) "countable" "1"
        (run {|count(schema("d")/element[@name="shop"])|}))

let test_statistics_function () =
  Test_util.with_doc fixture (fun db run ->
      ignore
        (Test_util.exec db
           {|CREATE INDEX "byname" ON doc("d")/shop/item BY name AS xs:string|});
      Alcotest.(check string) "one document row" "1"
        (run {|count(statistics()/document)|});
      Alcotest.(check string) "node count plausible" "true"
        (run {|statistics()/document[@name="d"]/@nodes > 5|});
      Alcotest.(check string) "index row present" "1"
        (run {|count(statistics()/index[@name="byname"])|}))

let test_explain () =
  let out =
    Sedna_xquery.Xq_pp.explain {|for $x in doc("d")//item return $x/name|}
  in
  let contains needle =
    let n = String.length needle and h = String.length out in
    let rec go i = i + n <= h && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "shows normalized DDOs" true (contains "DDO");
  Alcotest.(check bool) "shows schema path after rewrite" true
    (contains "SCHEMA-PATH");
  Alcotest.(check bool) "DDOs removed" true (contains "(0 DDO op(s))")

let test_explain_keeps_ddo_when_needed () =
  let out = Sedna_xquery.Xq_pp.explain {|doc("d")//name/..|} in
  let contains needle =
    let n = String.length needle and h = String.length out in
    let rec go i = i + n <= h && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "parent path keeps its DDO" true
    (contains "after rewriting (1 DDO op(s))")

let test_plan_printer_total () =
  (* the printer must handle every construct without raising *)
  List.iter
    (fun q -> ignore (Sedna_xquery.Xq_pp.explain q))
    [
      {|1 + 2 * 3|};
      {|if (1 < 2) then "a" else "b"|};
      {|some $x in (1,2) satisfies $x > 1|};
      {|<a b="{1}">{2}</a>|};
      {|element x { attribute y { 1 }, text { "t" } }|};
      {|for $a at $i in (1,2) let $b := $a where $b > 0 order by $b descending return ($b, $i)|};
      {|doc("d")//x[position() = last()]|};
      {|(1,2) = (2,3) and not(true())|};
      {|"5" cast as xs:integer|};
      {|$u instance of xs:string|} |> String.map (fun c -> if c = '$' then 'v' else c);
      {|(//a, .//b)[1]|};
    ]

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Rule 4 on value predicates: which shapes become chain filters. *)
let test_explain_chain_filter () =
  let shows q = contains ~needle:"CHAIN-FILTER" (Sedna_xquery.Xq_pp.explain q) in
  List.iter
    (fun q -> Alcotest.(check bool) q true (shows q))
    [
      {|count(doc("a")/site/regions/namerica/item[quantity > 2])|};
      {|for $p in doc("a")/site/people/person[address/city = "City5"] return string($p/@id)|};
      {|doc("a")//person[@id != "person1"]/name|};
      {|doc("a")/site/people/person["City5" = address/city]|};
    ];
  List.iter
    (fun q -> Alcotest.(check bool) q false (shows q))
    [
      {|count(doc("a")/site/regions/namerica/item[quantity eq 2])|};
      {|count(doc("a")/site/regions/namerica/item[quantity lt 2])|};
      {|count(doc("a")/site/regions/namerica/item[quantity > ../x])|};
      {|count(doc("a")/site/regions/namerica/item[quantity > position()])|};
      {|count(doc("a")/site/regions/namerica/item[quantity > 2][1])|};
      {|count(doc("a")/site/regions/namerica/item[*/quantity > 2])|};
    ];
  (* an index covering the path wins over the chain scan *)
  Test_util.with_db (fun db ->
      let people =
        String.concat ""
          (List.init 40 (fun i -> Printf.sprintf {|<person id="p%d"><name>n%d</name></person>|} i i))
      in
      ignore (Test_util.load db "a" ("<site><people>" ^ people ^ "</people></site>"));
      ignore
        (Test_util.exec db
           {|CREATE INDEX "pid" ON doc("a")/site/people/person BY @id AS xs:string|});
      let out =
        Sedna_xquery.Xq_pp.explain ~catalog:(Sedna_core.Database.catalog db)
          {|doc("a")/site/people/person[@id = "p7"]/name|}
      in
      Alcotest.(check bool) "probe chosen" true (contains ~needle:"INDEX-PROBE" out);
      Alcotest.(check bool) "no chain filter" false (contains ~needle:"CHAIN-FILTER" out))

(* \profile gives the chain filter its own operator row *)
let test_profile_chain_filter () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "a" {|<r><p><k>1</k></p><p><k>5</k></p><p><k>7</k></p></r>|});
      let s = Sedna_db.Session.connect db in
      let out =
        Sedna_db.Session.render_profile
          (Sedna_db.Session.profile s {|doc("a")/r/p[k > 2]|})
      in
      let row =
        List.find_opt
          (fun l -> contains ~needle:"chain-filter" l)
          (String.split_on_char '\n' out)
      in
      match row with
      | None -> Alcotest.failf "no chain-filter row in\n%s" out
      | Some l -> (
        match List.filter (( <> ) "") (String.split_on_char ' ' l) |> List.rev with
        | _probes :: derefs :: _faults :: _hits :: _ms :: rows :: _ ->
          Alcotest.(check string) "rows" "2" rows;
          Alcotest.(check bool) "derefs counted" true (int_of_string derefs > 0)
        | _ -> Alcotest.failf "unexpected row %S" l))

let suite =
  [
    Alcotest.test_case "schema()" `Quick test_schema_function;
    Alcotest.test_case "statistics()" `Quick test_statistics_function;
    Alcotest.test_case "explain" `Quick test_explain;
    Alcotest.test_case "explain keeps needed DDO" `Quick
      test_explain_keeps_ddo_when_needed;
    Alcotest.test_case "plan printer total" `Quick test_plan_printer_total;
    Alcotest.test_case "explain chain filter" `Quick test_explain_chain_filter;
    Alcotest.test_case "profile chain filter" `Quick test_profile_chain_filter;
  ]
