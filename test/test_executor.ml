(* Query execution tests: a table of queries with expected serialized
   results over fixture documents, plus targeted cases for constructor
   copy semantics and the schema-path operator. *)

let fixture =
  {|<site><people><person id="p1" age="30"><name>alice</name><city>zurich</city></person><person id="p2" age="25"><name>bob</name><city>moscow</city></person><person id="p3" age="35"><name>carol</name><city>zurich</city></person></people><nums><n>3</n><n>1</n><n>2</n></nums><mixed>head<b>bold</b>tail</mixed></site>|}

(* (name, query, expected) *)
let cases =
  [
    ("path child", {|doc("d")/site/people/person[2]/name|}, "<name>bob</name>");
    ("path attr", {|string(doc("d")/site/people/person[1]/@id)|}, "p1");
    ("descendant", {|count(doc("d")//person)|}, "3");
    ("wildcard", {|count(doc("d")/site/people/*)|}, "3");
    ("text test", {|doc("d")//person[1]/name/text()|}, "alice");
    ("parent axis", {|string(doc("d")//name[.="bob"]/../@id)|}, "p2");
    ("ancestor", {|count((doc("d")//name)[1]/ancestor::*)|}, "3");
    ("anc-or-self", {|count((doc("d")//name)[1]/ancestor-or-self::node())|}, "5");
    ("self", {|count(doc("d")//person/self::person)|}, "3");
    ("following-sibling", {|count(doc("d")/site/people/following-sibling::*)|}, "2");
    ("preceding-sibling", {|string(doc("d")/site/mixed/preceding-sibling::*[1]/n[1])|}, "3");
    ("following", {|count(doc("d")/site/people/following::n)|}, "3");
    ("preceding", {|count(doc("d")/site/nums/preceding::person)|}, "3");
    ("pred value", {|count(doc("d")//person[city="zurich"])|}, "2");
    ("pred attr num", {|string(doc("d")//person[@age > 28][1]/name)|}, "alice");
    ("pred position", {|string(doc("d")//person[position() = 3]/name)|}, "carol");
    ("pred last", {|string(doc("d")//person[last()]/name)|}, "carol");
    ("pred chain", {|string(doc("d")//person[city="zurich"][2]/name)|}, "carol");
    ("arith", "2 + 3 * 4 - 1", "13");
    ("idiv mod", "(7 idiv 2, 7 mod 2)", "3 1");
    ("div", "7 div 2", "3.5");
    ("neg", "-(2 + 3)", "-5");
    ("range", "count(1 to 100)", "100");
    ("empty range", "count(5 to 1)", "0");
    ("value cmp", "(1 eq 1, 1 lt 2, 2 le 1)", "true true false");
    ("gen cmp existential", {|(1, 2, 3) = (3, 5)|}, "true");
    ("gen cmp false", {|(1, 2) = (4, 5)|}, "false");
    ("gen untyped num", {|doc("d")//n = 2|}, "true");
    ("and or", "(1 = 1 and 2 = 3, 1 = 1 or 2 = 3)", "false true");
    ("if", "if (1 < 2) then \"yes\" else \"no\"", "yes");
    ("flwor order by", {|for $n in doc("d")//n order by number($n) return string($n)|}, "1 2 3");
    ("flwor order desc", {|for $n in doc("d")//n order by number($n) descending return string($n)|}, "3 2 1");
    ("flwor where", {|for $p in doc("d")//person where $p/@age >= 30 return string($p/name)|}, "alice carol");
    ("flwor at", {|for $n at $i in doc("d")//n return $i * 10|}, "10 20 30");
    ("flwor let", {|let $p := doc("d")//person return count($p)|}, "3");
    ("nested flwor", {|for $c in distinct-values(doc("d")//city) order by $c return <g city="{$c}">{count(doc("d")//person[city = $c])}</g>|}, {|<g city="moscow">1</g><g city="zurich">2</g>|});
    ("quantified some", {|some $p in doc("d")//person satisfies $p/@age > 33|}, "true");
    ("quantified every", {|every $p in doc("d")//person satisfies $p/@age > 26|}, "false");
    ("union", {|count(doc("d")//name | doc("d")//city)|}, "6");
    ("union dedup", {|count(doc("d")//person | doc("d")//person)|}, "3");
    ("intersect", {|count(doc("d")//person intersect doc("d")//person[city="zurich"])|}, "2");
    ("except", {|count(doc("d")//person except doc("d")//person[1])|}, "2");
    ("node is", {|doc("d")//person[1] is doc("d")//person[1]|}, "true");
    ("node precedes", {|doc("d")//person[1] << doc("d")//person[2]|}, "true");
    ("count", {|count(doc("d")//person/name)|}, "3");
    ("sum", {|sum(doc("d")//n)|}, "6");
    ("avg", {|avg(doc("d")//n)|}, "2");
    ("min max", {|(min(doc("d")//n), max(doc("d")//n))|}, "1 3");
    ("string fn", {|string(doc("d")//person[1])|}, "alicezurich");
    ("string-length", {|string-length("hello")|}, "5");
    ("concat", {|concat("a", "b", 1)|}, "ab1");
    ("contains", {|(contains("banana", "nan"), contains("banana", "xyz"))|}, "true false");
    ("starts ends", {|(starts-with("abc", "ab"), ends-with("abc", "bc"))|}, "true true");
    ("substring", {|substring("hello world", 7)|}, "world");
    ("substring len", {|substring("hello", 2, 3)|}, "ell");
    ("substring-before/after", {|(substring-before("a=b", "="), substring-after("a=b", "="))|}, "a b");
    ("normalize-space", {|normalize-space("  a   b  ")|}, "a b");
    ("upper lower", {|(upper-case("aBc"), lower-case("aBc"))|}, "ABC abc");
    ("translate", {|translate("bar", "abc", "ABC")|}, "BAr");
    ("string-join", {|string-join(("a", "b", "c"), "-")|}, "a-b-c");
    ("name fns", {|(name(doc("d")//person[1]), local-name(doc("d")//person[1]))|}, "person person");
    ("number", {|number("3.5") + 1|}, "4.5");
    ("number nan", {|string(number("abc"))|}, "NaN");
    ("boolean ebv", {|(boolean(doc("d")//person), boolean(""), boolean("x"), boolean(0))|},
     "true false true false");
    ("not", {|not(doc("d")//person[@age > 99])|}, "true");
    ("empty exists", {|(empty(doc("d")//ghost), exists(doc("d")//person))|}, "true true");
    ("distinct-values", {|count(distinct-values(doc("d")//city))|}, "2");
    ("reverse", {|reverse((1, 2, 3))|}, "3 2 1");
    ("subsequence", {|subsequence((1,2,3,4,5), 2, 3)|}, "2 3 4");
    ("insert-before", {|insert-before((1,2), 2, 99)|}, "1 99 2");
    ("remove", {|remove((1,2,3), 2)|}, "1 3");
    ("index-of", {|index-of((10, 20, 10), 10)|}, "1 3");
    ("floor ceiling round abs", {|(floor(1.7), ceiling(1.2), round(1.5), abs(-3))|}, "1 2 2 3");
    ("zero-or-one ok", {|zero-or-one(doc("d")//mixed)|}, "<mixed>head<b>bold</b>tail</mixed>");
    ("exactly-one", {|exactly-one(5)|}, "5");
    ("deep-equal", {|deep-equal(doc("d")//person[1], doc("d")//person[1])|}, "true");
    ("root fn", {|count(root(doc("d")//name[1])//person)|}, "3");
    ("doc-available", {|(doc-available("d"), doc-available("nope"))|}, "true false");
    ("cast integer", {|xs:integer("42") + 1|}, "43");
    ("cast double", {|xs:double("1.5") * 2|}, "3");
    ("cast string", {|xs:string(42)|}, "42");
    ("castable", {|("12" castable as xs:integer, "ab" castable as xs:integer)|}, "true false");
    ("instance of", {|(5 instance of xs:integer, "x" instance of xs:integer)|}, "true false");
    ("constructor direct", {|<p a="{1+1}">x{2+3}y</p>|}, {|<p a="2">x5y</p>|});
    ("constructor nested", {|<o><i>{string(doc("d")//name[1])}</i></o>|}, "<o><i>alice</i></o>");
    ("computed elem", {|element note { attribute lang { "en" }, "hi" }|}, {|<note lang="en">hi</note>|});
    ("computed dynamic name", {|element { concat("a", "b") } { 1 }|}, "<ab>1</ab>");
    ("text constructor", {|<t>{text { "plain" }}</t>|}, "<t>plain</t>");
    ("comment constructor", {|<t><!--remark--></t>|}, "<t><!--remark--></t>");
    ("atomics spaced in constructor", {|<s>{1, 2, 3}</s>|}, "<s>1 2 3</s>");
    ("mixed content query", {|string(doc("d")/site/mixed)|}, "headboldtail");
    ("predicate on filter", {|(1, 2, 3, 4)[. > 2]|}, "3 4");
    ("filter positional", {|(10, 20, 30)[2]|}, "20");
    ("declared function", {|declare function local:sq($x) { $x * $x }; local:sq(7)|}, "49");
    ("recursive function",
     {|declare function local:fact($n) { if ($n <= 1) then 1 else $n * local:fact($n - 1) };
       local:fact(6)|}, "720");
    ("function over nodes",
     {|declare function local:names($p) { for $x in $p return string($x/name) };
       local:names(doc("d")//person[city="zurich"])|}, "alice carol");
    ("prolog variable", {|declare variable $limit := 28; count(doc("d")//person[@age > $limit])|}, "2");
    ("comma sequence", "(1, (2, 3), ())", "1 2 3");
    ("kind test element", {|count(doc("d")//element(person))|}, "3");
    ("kind test node", {|count(doc("d")/site/mixed/node())|}, "3");
    ("attribute axis wildcard", {|count(doc("d")//person[1]/@*)|}, "2");
    ("comma for bindings", "for $a in (1, 2), $b in $a return $b", "1 2");
    ("comma let bindings", "let $a := 1, $b := $a + 1 return $b", "2");
    ("comma some bindings", "some $a in (1, 2), $b in ($a) satisfies $b = 2", "true");
    ("comma every bindings", "every $a in (1, 2), $b in ($a) satisfies $b = 2", "false");
    ("comma for under an outer for",
     {|for $x in (1, 2) for $p in doc("d")/site/people/person, $n in $p/name
       return concat($x, string($n))|},
     "1alice 1bob 1carol 2alice 2bob 2carol");
    ("comma let shadows an outer variable",
     {|let $a := 1 return
       let $a := (doc("d")//person[3], doc("d")//person[1]), $b := $a return $b/name|},
     "<name>alice</name><name>carol</name>");
    ("inlined argument names an earlier parameter",
     {|declare function local:f($a, $b) { $a * 10 + $b }; let $a := 5 return local:f(1, $a)|},
     "15");
    ("ordered block", "ordered { 1 }", "1");
    ("ordered block unspaced", "ordered{1}", "1");
    ("unordered block", "unordered { 1 }", "1");
  ]

let runner () =
  Test_util.with_doc fixture (fun _db run ->
      List.iter
        (fun (name, q, expected) ->
          match run q with
          | got -> Alcotest.(check string) name expected got
          | exception e ->
            Alcotest.failf "%s: raised %s" name (Sedna_util.Error.to_string e))
        cases)

(* every case must ALSO produce identical results with the optimizer
   disabled: the rewrites are semantics-preserving *)
let runner_unoptimized () =
  Test_util.with_doc fixture (fun db _run ->
      let s = Sedna_db.Session.connect db in
      Sedna_db.Session.set_rewriter_options s Sedna_xquery.Rewriter.no_options;
      List.iter
        (fun (name, q, expected) ->
          match Sedna_db.Session.execute_string s q with
          | got -> Alcotest.(check string) (name ^ " [noopt]") expected got
          | exception e ->
            Alcotest.failf "%s [noopt]: raised %s" name
              (Sedna_util.Error.to_string e))
        cases)

let test_virtual_constructor_avoids_copies () =
  Test_util.with_doc fixture (fun db run ->
      ignore db;
      Sedna_util.Counters.reset Sedna_util.Counters.deep_copies;
      ignore (run {|<wrap>{doc("d")//person}</wrap>|});
      Alcotest.(check int) "no deep copies at top level" 0
        (Sedna_util.Counters.get Sedna_util.Counters.deep_copies);
      (* navigating into a constructor forces materialization *)
      Sedna_util.Counters.reset Sedna_util.Counters.deep_copies;
      ignore (run {|count((<wrap>{doc("d")//person}</wrap>)/person)|});
      Alcotest.(check bool) "navigation forces copies" true
        (Sedna_util.Counters.get Sedna_util.Counters.deep_copies > 0))

let test_schema_path_results () =
  Test_util.with_doc fixture (fun db run ->
      ignore db;
      (* the same query with and without structural extraction *)
      let s = Sedna_db.Session.connect db in
      let q = {|doc("d")/site/people/person/name|} in
      let optimized = run q in
      Sedna_db.Session.set_rewriter_options s Sedna_xquery.Rewriter.no_options;
      Alcotest.(check string) "schema path = plain path" optimized
        (Sedna_db.Session.execute_string s q))

let test_dynamic_errors () =
  Test_util.with_doc fixture (fun _db run ->
      (match run "1 idiv 0" with
       | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.Xquery_dynamic, _) -> ()
       | r -> Alcotest.failf "idiv by zero returned %s" r);
      (match run {|exactly-one(doc("d")//person)|} with
       | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.Xquery_type, _) -> ()
       | r -> Alcotest.failf "exactly-one returned %s" r);
      match run {|("a", "b") + 1|} with
      | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.Xquery_type, _) -> ()
      | r -> Alcotest.failf "multi-item arith returned %s" r)

(* Constant positional predicates take their input lazily: [k[N]] reads
   the first N [k] and stops, where it used to walk every sibling. *)
let buckets =
  "<r>"
  ^ String.concat ""
      (List.init 256 (fun i -> Printf.sprintf {|<k n="%d"><e/><e/><e/><e/></k>|} i))
  ^ "</r>"

let test_positional_stops_early () =
  Test_util.with_doc buckets (fun _db run ->
      List.iter
        (fun n ->
          let t0 = Sedna_util.Counters.get Sedna_util.Counters.block_touch in
          let got = run (Printf.sprintf {|string(doc("d")/r/k[%d]/@n)|} n) in
          let touches = Sedna_util.Counters.get Sedna_util.Counters.block_touch - t0 in
          Alcotest.(check string)
            (Printf.sprintf "k[%d] is the same node" n)
            (run (Printf.sprintf {|string(doc("d")/r/k[position() = %d]/@n)|} n))
            got;
          if touches > n + 2 then
            Alcotest.failf "k[%d] made %d block touches" n touches)
        [ 1; 3; 40; 256 ];
      Alcotest.(check string) "last()" "255" (run {|string(doc("d")/r/k[last()]/@n)|});
      Alcotest.(check string) "position() <= 2" "0 1"
        (run {|for $k in doc("d")/r/k[position() <= 2] return string($k/@n)|});
      Alcotest.(check string) "position() < 3" "0 1"
        (run {|for $k in doc("d")/r/k[position() < 3] return string($k/@n)|});
      Alcotest.(check string) "[0]" "0" (run {|count(doc("d")/r/k[0])|});
      Alcotest.(check string) "[2.5]" "0" (run {|count(doc("d")/r/k[2.5])|});
      Alcotest.(check string) "past the end" "0" (run {|count(doc("d")/r/k[257])|});
      Alcotest.(check string) "(expr)[3]" "2" (run {|string((doc("d")/r/k)[3]/@n)|});
      Alcotest.(check string) "filter of atomics" "30" (run {|(10, 20, 30, 40)[3]|});
      Alcotest.(check string) "positional after a value predicate" "7"
        (run {|string(doc("d")/r/k[@n > 5][2]/@n)|}))

let suite =
  [
    Alcotest.test_case "query table (optimized)" `Quick runner;
    Alcotest.test_case "query table (unoptimized)" `Quick runner_unoptimized;
    Alcotest.test_case "virtual constructors" `Quick test_virtual_constructor_avoids_copies;
    Alcotest.test_case "schema path equivalence" `Quick test_schema_path_results;
    Alcotest.test_case "dynamic errors" `Quick test_dynamic_errors;
    Alcotest.test_case "constant positions stop early" `Quick test_positional_stops_early;
  ]
