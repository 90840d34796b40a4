(* XQuery parser and optimizing-rewriter tests (paper §5.1). *)

module Ast = Sedna_xquery.Xq_ast
module P = Sedna_xquery.Xq_parser
module R = Sedna_xquery.Rewriter

let parse s = snd (P.parse_query s)

let parse_stmt s = P.parse_statement s

let test_literals () =
  (match parse "42" with Ast.Int_lit 42 -> () | _ -> Alcotest.fail "int");
  (match parse "3.25" with Ast.Dbl_lit f -> Alcotest.(check (float 0.0001)) "dec" 3.25 f | _ -> Alcotest.fail "dec");
  (match parse {|"hi ""there"""|} with
   | Ast.Str_lit s -> Alcotest.(check string) "str" "hi \"there\"" s
   | _ -> Alcotest.fail "str");
  match parse "()" with Ast.Empty_seq -> () | _ -> Alcotest.fail "empty"

let test_arith_precedence () =
  match parse "1 + 2 * 3" with
  | Ast.Binop (Ast.Add, Ast.Int_lit 1, Ast.Binop (Ast.Mul, Ast.Int_lit 2, Ast.Int_lit 3)) -> ()
  | _ -> Alcotest.fail "precedence broken"

let test_comparison_kinds () =
  (match parse "1 = 2" with Ast.Binop (Ast.Gen_eq, _, _) -> () | _ -> Alcotest.fail "=");
  (match parse "1 eq 2" with Ast.Binop (Ast.Eq, _, _) -> () | _ -> Alcotest.fail "eq");
  (match parse "$a is $b" with Ast.Binop (Ast.Is, _, _) -> () | _ -> Alcotest.fail "is");
  match parse "$a << $b" with Ast.Binop (Ast.Precedes, _, _) -> () | _ -> Alcotest.fail "<<"

let test_path_parse () =
  match parse {|doc("d")/a//b[@x=1]/text()|} with
  | Ast.Path (Ast.Call (_, [ Ast.Str_lit "d" ]), steps) ->
    Alcotest.(check int) "4 steps (// expands)" 4 (List.length steps);
    (match List.nth steps 1 with
     | { Ast.axis = Ast.Descendant_or_self; test = Ast.Kind_any; preds = [] } -> ()
     | _ -> Alcotest.fail "// expansion");
    (match List.nth steps 2 with
     | { Ast.axis = Ast.Child; test = Ast.Name_test _; preds = [ _ ] } -> ()
     | _ -> Alcotest.fail "predicate step");
    (match List.nth steps 3 with
     | { Ast.test = Ast.Kind_text; _ } -> ()
     | _ -> Alcotest.fail "text() test")
  | _ -> Alcotest.fail "path shape"

let test_explicit_axes () =
  match parse "$n/ancestor-or-self::*/following-sibling::x" with
  | Ast.Path (Ast.Var "n",
              [ { Ast.axis = Ast.Ancestor_or_self; test = Ast.Wildcard; _ };
                { Ast.axis = Ast.Following_sibling; _ } ]) -> ()
  | _ -> Alcotest.fail "axes"

let test_flwor_parse () =
  match parse "for $x at $i in (1,2), $y in (3) let $z := $x where $x > 1 order by $y descending return $z" with
  | Ast.Flwor ([ Ast.For [ ("x", Some "i", _); ("y", None, _) ];
                 Ast.Let [ ("z", Ast.Var "x") ];
                 Ast.Where _;
                 Ast.Order_by [ (_, Ast.Descending) ] ],
               Ast.Var "z") -> ()
  | _ -> Alcotest.fail "flwor shape"

let test_constructor_parse () =
  match parse {|<a x="1{$v}2"><b/>{$c}tail</a>|} with
  | Ast.Elem_constr (n, [ att ], content) ->
    Alcotest.(check string) "name" "a" (Sedna_util.Xname.local n);
    Alcotest.(check int) "attr parts" 3 (List.length att.Ast.attr_value);
    Alcotest.(check int) "content parts" 3 (List.length content)
  | _ -> Alcotest.fail "constructor"

let test_if_quantified () =
  (match parse "if ($a) then 1 else 2" with Ast.If _ -> () | _ -> Alcotest.fail "if");
  match parse "every $x in $s satisfies $x > 0" with
  | Ast.Quantified (Ast.Every_q, _, _) -> ()
  | _ -> Alcotest.fail "every"

let test_prolog_parse () =
  let p, _ = P.parse_query
      {|declare namespace foo = "urn:foo";
        declare variable $v := 10;
        declare function local:f($a, $b) { $a + $b };
        local:f($v, 1)|}
  in
  Alcotest.(check int) "ns" 1 (List.length p.Ast.namespaces);
  Alcotest.(check int) "vars" 1 (List.length p.Ast.variables);
  Alcotest.(check int) "funs" 1 (List.length p.Ast.functions)

let test_update_parse () =
  (match parse_stmt {|UPDATE insert <x/> into doc("d")/a|} with
   | Ast.Update (_, Ast.Insert_into (_, _)) -> ()
   | _ -> Alcotest.fail "insert into");
  (match parse_stmt {|UPDATE delete doc("d")//junk|} with
   | Ast.Update (_, Ast.Delete _) -> ()
   | _ -> Alcotest.fail "delete");
  (match parse_stmt {|UPDATE replace $x in doc("d")//v with <v>{$x}</v>|} with
   | Ast.Update (_, Ast.Replace ("x", _, _)) -> ()
   | _ -> Alcotest.fail "replace");
  match parse_stmt {|UPDATE rename doc("d")//a on b|} with
  | Ast.Update (_, Ast.Rename (_, n)) ->
    Alcotest.(check string) "new name" "b" (Sedna_util.Xname.local n)
  | _ -> Alcotest.fail "rename"

let test_ddl_parse () =
  (match parse_stmt {|CREATE DOCUMENT "d"|} with
   | Ast.Ddl (Ast.Create_document "d") -> ()
   | _ -> Alcotest.fail "create doc");
  (match parse_stmt {|CREATE INDEX "i" ON doc("d")/a/b BY c/d AS xs:string|} with
   | Ast.Ddl (Ast.Create_index { ix_name = "i"; ix_doc = "d"; ix_on = [ "a"; "b" ];
                                 ix_by = [ "c"; "d" ]; ix_type = "xs:string" }) -> ()
   | Ast.Ddl (Ast.Create_index { ix_on; ix_by; _ }) ->
     Alcotest.failf "index parts: on=[%s] by=[%s]"
       (String.concat ";" ix_on) (String.concat ";" ix_by)
   | _ -> Alcotest.fail "create index");
  match parse_stmt {|DROP COLLECTION "c"|} with
  | Ast.Ddl (Ast.Drop_collection "c") -> ()
  | _ -> Alcotest.fail "drop collection"

let test_comments_nested () =
  match parse "(: outer (: inner :) still :) 5" with
  | Ast.Int_lit 5 -> ()
  | _ -> Alcotest.fail "nested comments"

let expect_parse_error s =
  match parse s with
  | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.Xquery_parse, _) -> ()
  | _ -> Alcotest.failf "expected parse error: %s" s

let test_parse_errors () =
  expect_parse_error "for $x in";
  expect_parse_error "1 +";
  expect_parse_error "<a></b>";
  expect_parse_error "doc(";
  expect_parse_error "let $x := 1";
  expect_parse_error "if (1) then 2"

(* ---- static analysis ---------------------------------------------------- *)

let expect_static_error q =
  let p, e = P.parse_query q in
  match Sedna_xquery.Static.analyse p e with
  | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.Xquery_static, _) -> ()
  | _ -> Alcotest.failf "expected static error: %s" q

let test_static () =
  expect_static_error "$undefined";
  expect_static_error "unknown-function(1)";
  expect_static_error "count(1, 2)";
  expect_static_error "pfx:thing(1)";
  (* the comma-separated bindings of one clause or quantifier bind one
     after another *)
  expect_static_error "for $a in $b, $b in (1) return $a";
  expect_static_error "some $a in $b, $b in (1) satisfies $a";
  Alcotest.(check (list string)) "later binding sees the earlier" []
    (Ast.free_vars (parse "for $a in (1, 2), $b in $a return $b"));
  Alcotest.(check (list string)) "earlier binding does not see the later" [ "b" ]
    (Ast.free_vars (parse "let $a := $b, $b := 1 return $a"));
  (* valid ones pass *)
  List.iter
    (fun q ->
      let p, e = P.parse_query q in
      ignore (Sedna_xquery.Static.analyse p e))
    [
      "for $x in (1,2) return $x + count(($x))";
      "for $a in (1, 2), $b in $a return $b";
      "every $a in (1, 2), $b in ($a) satisfies $b";
    ]

(* ---- rewriter ------------------------------------------------------------ *)

let test_ddo_insert_and_remove () =
  let e = parse {|doc("d")/a/b/c|} in
  let normalized = R.normalize e in
  Alcotest.(check int) "normalization adds DDO" 1 (R.count_ddo normalized);
  (* child-only path from a document: provably ordered, DDO removed...
     and the whole thing collapses to a schema path *)
  (match R.optimize e with
   | Ast.Schema_path ("d", steps) ->
     Alcotest.(check int) "3 named steps" 3 (List.length steps)
   | other -> Alcotest.failf "expected Schema_path, got ddo-count %d" (R.count_ddo other));
  (* with structural extraction off, the DDO is still removed *)
  let opts = { R.default_options with extract_structural = false } in
  let e' = R.rewrite_with opts e in
  Alcotest.(check int) "ddo removed" 0 (R.count_ddo e')

let test_ddo_kept_when_needed () =
  (* parent steps can break document order: DDO must stay *)
  let e = parse {|doc("d")//b/..|} in
  let opts = { R.default_options with extract_structural = false } in
  Alcotest.(check bool) "ddo kept" true (R.count_ddo (R.rewrite_with opts e) >= 1)

let test_ddo_removed_in_ebv () =
  (* inside exists(), order and duplicates do not matter *)
  let e = parse {|exists(doc("d")//b/..)|} in
  let opts = { R.default_options with extract_structural = false } in
  Alcotest.(check int) "ddo dropped in ebv" 0 (R.count_ddo (R.rewrite_with opts e))

let test_descendant_combining () =
  let e = parse {|doc("d")//para|} in
  let opts = { R.default_options with extract_structural = false } in
  (match R.rewrite_with opts e with
   | Ast.Path (_, [ { Ast.axis = Ast.Descendant; test = Ast.Name_test n; _ } ]) ->
     Alcotest.(check string) "combined" "para" (Sedna_util.Xname.local n)
   | Ast.Ddo (Ast.Path (_, [ { Ast.axis = Ast.Descendant; _ } ])) -> ()
   | _ -> Alcotest.fail "not combined");
  (* the famous counter-example: //para[1] must NOT combine *)
  let e2 = parse {|doc("d")//para[1]|} in
  match R.rewrite_with opts e2 with
  | Ast.Path (_, steps) | Ast.Ddo (Ast.Path (_, steps)) ->
    Alcotest.(check int) "two steps kept" 2 (List.length steps);
    (match List.hd steps with
     | { Ast.axis = Ast.Descendant_or_self; _ } -> ()
     | _ -> Alcotest.fail "descendant-or-self step lost")
  | _ -> Alcotest.fail "unexpected shape"

let test_structural_extraction () =
  (match R.optimize (parse {|doc("d")/site/people/person|}) with
   | Ast.Schema_path ("d", [ (Ast.Child, _); (Ast.Child, _); (Ast.Child, _) ]) -> ()
   | _ -> Alcotest.fail "pure structural path not extracted");
  (* predicates stop extraction *)
  match R.optimize (parse {|doc("d")/site/people/person[1]|}) with
  | Ast.Schema_path _ -> Alcotest.fail "extracted despite predicate"
  | _ -> ()

let test_for_hoisting () =
  let e = parse {|for $x in doc("d")//a for $y in doc("d")//b return $x|} in
  (match R.optimize e with
   | Ast.Flwor (Ast.Let [ (tmp, _) ] :: _, _) ->
     Alcotest.(check bool) "fresh name" true (String.length tmp > 0)
   | _ -> Alcotest.fail "independent inner for was not hoisted");
  (* dependent inner for must not be hoisted *)
  let e2 = parse {|for $x in doc("d")//a for $y in $x/b return $y|} in
  (match R.optimize e2 with
   | Ast.Flwor (Ast.For _ :: _, _) -> ()
   | _ -> Alcotest.fail "dependent for was hoisted");
  (* nor a binding that depends on an earlier one of its own clause *)
  let e3 = parse {|for $x in (1, 2) for $y in doc("d")//a, $z in $y/b return $z|} in
  match R.optimize e3 with
  | Ast.Flwor (Ast.Let [ (_, hoisted) ] :: _, _) ->
    Alcotest.(check (list string)) "only the independent binding hoisted" []
      (Ast.free_vars hoisted)
  | _ -> Alcotest.fail "independent binding was not hoisted"

let test_virtual_marking () =
  (match R.optimize (parse {|<r>{doc("d")//x}</r>|}) with
   | Ast.Virtual_constr _ -> ()
   | _ -> Alcotest.fail "top-level constructor not virtual");
  (* a constructor used as a path start must not be virtual *)
  match R.optimize (parse {|<r><a/></r>/a|}) with
  | Ast.Virtual_constr _ -> Alcotest.fail "navigated constructor marked virtual"
  | _ -> ()

let test_not_rewrite () =
  match R.optimize (parse "not(1 = 2)") with
  | Ast.Not _ -> ()
  | _ -> Alcotest.fail "fn:not not rewritten"

let test_function_inlining () =
  let parse_q s = P.parse_query s in
  let has_call e =
    let found = ref false in
    let rec go e =
      (match e with
       | Ast.Call (n, _) when Sedna_util.Xname.prefix n = "local" -> found := true
       | _ -> ());
      ignore (Ast.map (fun sub -> go sub; sub) e)
    in
    go e;
    !found
  in
  (* simple function disappears *)
  let p, e = parse_q {|declare function local:double($x) { $x * 2 }; local:double(21)|} in
  let e' = R.inline_functions p.Ast.functions e in
  Alcotest.(check bool) "call inlined away" false (has_call e');
  (* recursive function is kept as a call *)
  let p2, e2 =
    parse_q
      {|declare function local:f($n) { if ($n = 0) then 0 else local:f($n - 1) };
        local:f(3)|}
  in
  let e2' = R.inline_functions p2.Ast.functions e2 in
  Alcotest.(check bool) "recursive call kept" true (has_call e2');
  (* mutual recursion is kept *)
  let p3, e3 =
    parse_q
      {|declare function local:a($n) { local:b($n) };
        declare function local:b($n) { local:a($n) };
        local:a(1)|}
  in
  let e3' = R.inline_functions p3.Ast.functions e3 in
  Alcotest.(check bool) "mutually recursive kept" true (has_call e3');
  (* nested non-recursive chains inline through *)
  let p4, e4 =
    parse_q
      {|declare function local:inc($x) { $x + 1 };
        declare function local:inc2($x) { local:inc(local:inc($x)) };
        local:inc2(5)|}
  in
  let e4' = R.inline_functions p4.Ast.functions e4 in
  Alcotest.(check bool) "chain fully inlined" false (has_call e4')

let test_inlining_preserves_results () =
  Test_util.with_doc {|<r><v>1</v><v>2</v><v>3</v></r>|} (fun db _run ->
      let q =
        {|declare function local:total($s) { sum(for $v in $s return xs:integer(string($v))) };
          local:total(doc("d")//v)|}
      in
      let s_on = Sedna_db.Session.connect db in
      let s_off = Sedna_db.Session.connect db in
      Sedna_db.Session.set_rewriter_options s_off
        { Sedna_xquery.Rewriter.default_options with
          Sedna_xquery.Rewriter.inline_functions = false };
      Alcotest.(check string) "same result"
        (Sedna_db.Session.execute_string s_off q)
        (Sedna_db.Session.execute_string s_on q);
      Alcotest.(check string) "and it is right" "6"
        (Sedna_db.Session.execute_string s_on q))

(* A function body has no focus: inlining must not let a body that
   reads [.] under a FLWOR return or a quantifier capture the caller's
   context item. *)
let test_inlining_keeps_undefined_focus () =
  Test_util.with_db (fun db ->
      let q =
        {|declare function local:f() { let $x := 1 return . };
          (1, 2, 3)[local:f() = 2]|}
      in
      let run inline =
        let s = Sedna_db.Session.connect db in
        Sedna_db.Session.set_rewriter_options s
          { R.default_options with R.inline_functions = inline };
        match Sedna_db.Session.execute_string s q with
        | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.Xquery_dynamic, _)
          -> ()
        | got -> Alcotest.failf "inline_functions=%b: expected Xquery_dynamic, got %S" inline got
      in
      run true;
      run false)

let test_uses_position () =
  Alcotest.(check bool) "position()" true (R.uses_position (parse "position() > 2"));
  Alcotest.(check bool) "last()" true (R.uses_position (parse "last()"));
  Alcotest.(check bool) "plain" false (R.uses_position (parse {|@x = "1"|}))

(* ---- the child structure: Xq_ast.fold and Xq_ast.map agree --------- *)

let fold_map_corpus =
  List.map (fun (_, q, _) -> q) Test_executor.cases
  @ [
      {|for $x at $i in doc("d")//a let $y := $x/b where $y > 1 order by $i descending return <r n="{$i}">{$y}</r>|};
      {|some $x in (1, 2), $y in (3) satisfies $x < $y|};
      {|every $x in doc("d")//p satisfies $x/@v = "1"|};
      {|if (doc("d")/r/p[k = 2]) then -1 to 3 else (4 idiv 2, 5 mod 2)|};
      {|doc("d")/r/p[k >= 2]/@id|};
      {|(doc("d")//a union doc("d")//b) intersect doc("d")//c except doc("d")//e|};
      {|element { "e" } { attribute a { 1 }, text { "t" }, comment { "c" }, <p><?t x?></p> }|};
      {|("1" cast as xs:integer, 2 treat as xs:integer, 3 castable as xs:string, 4 instance of xs:integer)|};
      {|ordered{ unordered { doc("d")/r/p[1] } }|};
      {|not(doc("d")//a and doc("d")//b or -doc("d")//c)|};
    ]

let children e = List.rev (Ast.fold (fun acc c -> c :: acc) [] e)

(* Every node of a tree, the tree itself first. *)
let rec nodes e = e :: List.concat_map nodes (children e)

let test_fold_map_agree () =
  let mark c = Ast.Ordered c in
  let check_node e =
    let calls = ref 0 in
    let mapped = Ast.map (fun c -> incr calls; mark c) e in
    let kids = children e in
    Alcotest.(check int) "map visits the children fold visits" (List.length kids) !calls;
    Alcotest.(check bool) "fold over the mapped node sees the marked children" true
      (children mapped = List.map mark kids);
    Alcotest.(check bool) "map with the identity rebuilds the node" true
      (Ast.map Fun.id e = e)
  in
  let probe =
    Ast.Index_probe
      {
        Ast.ip_index = "i";
        ip_doc = "d";
        ip_mode = Ast.Probe_eq;
        ip_key = Ast.Int_lit 1;
        ip_residual = parse "k = 1";
        ip_fallback = parse {|doc("d")/r/p[k = 1]|};
      }
  in
  let trees =
    probe
    :: List.concat_map
         (fun q ->
           let e = parse q in
           [ e; R.rewrite_with R.default_options e; R.rewrite_with R.no_options e ])
         fold_map_corpus
  in
  List.iter (fun t -> List.iter check_node (nodes t)) trees;
  (* the corpus reaches the plan nodes, not only the parsed syntax *)
  let count p = List.length (List.filter p (List.concat_map nodes trees)) in
  Alcotest.(check bool) "corpus reaches chain filters" true
    (count (function Ast.Chain_filter _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "corpus reaches schema paths" true
    (count (function Ast.Schema_path _ -> true | _ -> false) > 0)

(* ---- comparison-semantics regressions (XQuery F&O) ------------------- *)

module Xdm = Sedna_engine.Xdm

let test_nan_comparisons () =
  let nan = Xdm.ADbl Float.nan in
  (* unit level: NaN is unordered against everything, itself included *)
  Alcotest.(check bool) "NaN vs NaN" true (Xdm.value_compare nan nan = None);
  Alcotest.(check bool) "NaN vs 1.0" true
    (Xdm.value_compare nan (Xdm.ADbl 1.0) = None);
  Alcotest.(check bool) "1.0 vs NaN" true
    (Xdm.value_compare (Xdm.ADbl 1.0) nan = None);
  Alcotest.(check bool) "int vs NaN" true
    (Xdm.value_compare (Xdm.AInt 3) nan = None);
  Alcotest.(check bool) "untyped number vs NaN" true
    (Xdm.general_pair_compare (Xdm.AUntyped "7") nan = None);
  Alcotest.(check bool) "nan_pair recognizes the case" true
    (Xdm.nan_pair nan (Xdm.AInt 3));
  Alcotest.(check bool) "nan_pair rejects strings" false
    (Xdm.nan_pair nan (Xdm.AStr "x"));
  (* end to end: eq/lt/le/gt/ge with NaN are false, ne alone is true *)
  Test_util.with_doc "<r><p>1</p></r>" (fun _db run ->
      Alcotest.(check string) "NaN eq NaN" "false"
        (run {|number("x") eq number("y")|});
      Alcotest.(check string) "NaN ne NaN" "true"
        (run {|number("x") ne number("y")|});
      Alcotest.(check string) "NaN lt 1" "false" (run {|number("x") lt 1.0|});
      Alcotest.(check string) "NaN ge 1" "false" (run {|number("x") ge 1.0|});
      Alcotest.(check string) "general = with NaN" "false"
        (run {|doc("d")//p = number("x")|});
      Alcotest.(check string) "general != with NaN" "true"
        (run {|doc("d")//p != number("x")|}))

let test_untyped_bool_cast () =
  (* unit level: the boolean lexical space, and FORG0001 outside it *)
  Alcotest.(check bool) "\"1\" = true" true
    (Xdm.general_pair_compare (Xdm.AUntyped "1") (Xdm.ABool true) = Some 0);
  Alcotest.(check bool) "\"true\" = true" true
    (Xdm.general_pair_compare (Xdm.AUntyped "true") (Xdm.ABool true) = Some 0);
  Alcotest.(check bool) "\"0\" = false" true
    (Xdm.general_pair_compare (Xdm.AUntyped "0") (Xdm.ABool false) = Some 0);
  Alcotest.(check bool) "\"0\" <> true" true
    (Xdm.general_pair_compare (Xdm.ABool true) (Xdm.AUntyped "0") <> Some 0);
  (match Xdm.general_pair_compare (Xdm.AUntyped "oops") (Xdm.ABool true) with
   | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.Xquery_dynamic, _)
     -> ()
   | _ -> Alcotest.fail "garbage untyped vs boolean must raise FORG0001");
  (* end to end: attributes are untyped atomics *)
  Test_util.with_doc
    {|<r><a flag="1"/><b flag="true"/><c flag="0"/><d flag="oops"/></r>|}
    (fun _db run ->
      Alcotest.(check string) "\"1\" matches true()" "1"
        (run {|count(doc("d")//a[@flag = true()])|});
      Alcotest.(check string) "\"true\" matches true()" "1"
        (run {|count(doc("d")//b[@flag = true()])|});
      Alcotest.(check string) "\"0\" matches false()" "1"
        (run {|count(doc("d")//c[@flag = false()])|});
      match run {|count(doc("d")//d[@flag = true()])|} with
      | exception Sedna_util.Error.Sedna_error
          (Sedna_util.Error.Xquery_dynamic, _) -> ()
      | got -> Alcotest.failf "expected FORG0001, got %S" got)

let test_nan_index_probe () =
  Test_util.with_db (fun db ->
      ignore
        (Test_util.load db "d"
           {|<items><item><v>1</v></item><item><v>2</v></item></items>|});
      ignore
        (Test_util.exec db
           {|CREATE INDEX "nv" ON doc("d")/items/item BY v AS xs:integer|});
      (* a NaN key matches nothing: the B-tree's float order would
         otherwise return an arbitrary answer *)
      Alcotest.(check string) "index-scan NaN" "0"
        (Test_util.exec db {|count(index-scan("nv", number("x")))|});
      Alcotest.(check string) "probe predicate NaN" "0"
        (Test_util.exec db {|count(doc("d")/items/item[v = number("x")])|});
      Alcotest.(check string) "index intact for real keys" "1"
        (Test_util.exec db {|count(index-scan("nv", 2))|}))

let suite =
  [
    Alcotest.test_case "literals" `Quick test_literals;
    Alcotest.test_case "arithmetic precedence" `Quick test_arith_precedence;
    Alcotest.test_case "comparison kinds" `Quick test_comparison_kinds;
    Alcotest.test_case "path parse" `Quick test_path_parse;
    Alcotest.test_case "explicit axes" `Quick test_explicit_axes;
    Alcotest.test_case "flwor parse" `Quick test_flwor_parse;
    Alcotest.test_case "constructor parse" `Quick test_constructor_parse;
    Alcotest.test_case "if / quantified" `Quick test_if_quantified;
    Alcotest.test_case "prolog" `Quick test_prolog_parse;
    Alcotest.test_case "update statements" `Quick test_update_parse;
    Alcotest.test_case "ddl statements" `Quick test_ddl_parse;
    Alcotest.test_case "nested comments" `Quick test_comments_nested;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "static analysis" `Quick test_static;
    Alcotest.test_case "ddo insert/remove" `Quick test_ddo_insert_and_remove;
    Alcotest.test_case "ddo kept when needed" `Quick test_ddo_kept_when_needed;
    Alcotest.test_case "ddo removed in ebv" `Quick test_ddo_removed_in_ebv;
    Alcotest.test_case "descendant combining" `Quick test_descendant_combining;
    Alcotest.test_case "structural extraction" `Quick test_structural_extraction;
    Alcotest.test_case "for hoisting" `Quick test_for_hoisting;
    Alcotest.test_case "virtual marking" `Quick test_virtual_marking;
    Alcotest.test_case "fn:not rewrite" `Quick test_not_rewrite;
    Alcotest.test_case "function inlining" `Quick test_function_inlining;
    Alcotest.test_case "inlining preserves results" `Quick
      test_inlining_preserves_results;
    Alcotest.test_case "inlining keeps an undefined focus" `Quick
      test_inlining_keeps_undefined_focus;
    Alcotest.test_case "uses_position" `Quick test_uses_position;
    Alcotest.test_case "fold and map agree" `Quick test_fold_map_agree;
    Alcotest.test_case "NaN comparisons" `Quick test_nan_comparisons;
    Alcotest.test_case "untyped to boolean cast" `Quick test_untyped_bool_cast;
    Alcotest.test_case "NaN index probe" `Quick test_nan_index_probe;
  ]
