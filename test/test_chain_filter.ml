(* Chain filters (rewriter rule 4 on value predicates): a general
   comparison [P[K op v]] over a structural path scans K's block chain
   instead of navigating from every P.  The differential property runs
   the same predicates as a chain filter, as a navigational path and as
   an index probe, over generated documents whose key shapes cover the
   scan's cases: no key, several keys, an empty key, a key with two text
   children, a comment beside the text, nested and attribute keys. *)

open Sedna_core
module Ast = Sedna_xquery.Xq_ast
module R = Sedna_xquery.Rewriter

(* ---- documents: test_fuzz's reference DOM, plus two conventions -------- *)

(* a child named "@x" is attribute x of its parent; one named "!" is a
   comment *)
type rnode = Test_fuzz.rnode = {
  mutable rname : string;
  mutable rtext : string option;
  mutable rkids : rnode list;
}

let elem name kids = { rname = name; rtext = None; rkids = kids }
let text v = { rname = ""; rtext = Some v; rkids = [] }
let attr name v = { rname = "@" ^ name; rtext = Some v; rkids = [] }
let comment v = { rname = "!"; rtext = Some v; rkids = [] }

let rec to_xml (n : rnode) : string =
  match n.rtext with
  | Some c when n.rname = "!" -> "<!--" ^ c ^ "-->"
  | Some _ -> Test_fuzz.rserialize n
  | None ->
    let atts, kids =
      List.partition (fun k -> String.length k.rname > 1 && k.rname.[0] = '@') n.rkids
    in
    Printf.sprintf "<%s%s>%s</%s>" n.rname
      (String.concat ""
         (List.map
            (fun a ->
              Printf.sprintf " %s=\"%s\""
                (String.sub a.rname 1 (String.length a.rname - 1))
                (Sedna_xml.Escape.escape_attribute (Option.get a.rtext)))
            atts))
      (String.concat "" (List.map to_xml kids))
      n.rname

(* ---- generators ---------------------------------------------------------- *)

let values = [| ""; "1"; "2"; "10"; "2.5"; "-1"; "abc"; "x"; "NaN"; "1e1" |]

(* One key of a [p]: the shape decides which scan the filter takes. *)
type key =
  | Text of int (* <k>v</k>; the empty value makes a key with no text *)
  | With_comment of int * int (* <k>v<!--c--></k> *)
  | Two_texts of int * int (* <k>v</k>, then a second text inserted *)
  | Nested of int (* <g><k>v</k></g> *)

type p = { p_attr : int option; p_keys : key list }

let key_gen =
  QCheck.Gen.(
    let v = int_bound (Array.length values - 1) in
    frequency
      [
        (5, map (fun a -> Text a) v);
        (1, map2 (fun a b -> With_comment (a, b)) v v);
        (1, map2 (fun a b -> Two_texts (a, b)) v v);
        (2, map (fun a -> Nested a) v);
      ])

let p_gen =
  QCheck.Gen.(
    map2
      (fun a keys -> { p_attr = a; p_keys = keys })
      (opt (int_bound (Array.length values - 1)))
      (list_size (int_bound 3) key_gen))

type op = Ast.binop

let ops = [| Ast.Gen_eq; Ast.Gen_ne; Ast.Gen_lt; Ast.Gen_le; Ast.Gen_gt; Ast.Gen_ge |]

type query = {
  q_key : string; (* k, g/k or @a *)
  q_op : op;
  q_value : string; (* an XQuery literal *)
  q_flipped : bool; (* value on the left *)
}

let literals = [| {|""|}; {|"2"|}; {|"abc"|}; {|"10"|}; "2"; "10"; "-1"; "2.5"; "0.0" |]

let query_gen =
  QCheck.Gen.(
    map
      (fun (k, o, v, f) ->
        { q_key = [| "k"; "g/k"; "@a" |].(k); q_op = ops.(o); q_value = literals.(v); q_flipped = f })
      (quad (int_bound 2) (int_bound 5) (int_bound (Array.length literals - 1)) bool))

type case = { ps : p list; queries : query list }

let show_case c =
  let key = function
    | Text a -> Printf.sprintf "T%S" values.(a)
    | With_comment (a, b) -> Printf.sprintf "C(%S,%S)" values.(a) values.(b)
    | Two_texts (a, b) -> Printf.sprintf "2(%S,%S)" values.(a) values.(b)
    | Nested a -> Printf.sprintf "N%S" values.(a)
  in
  let p x =
    Printf.sprintf "{%s%s}"
      (match x.p_attr with Some a -> Printf.sprintf "@a=%S " values.(a) | None -> "")
      (String.concat " " (List.map key x.p_keys))
  in
  let q x =
    Printf.sprintf "%s %s %s%s" x.q_key (Sedna_xquery.Xq_pp.binop_name x.q_op) x.q_value
      (if x.q_flipped then " (flipped)" else "")
  in
  Printf.sprintf "ps = [%s]; queries = [%s]"
    (String.concat "; " (List.map p c.ps))
    (String.concat "; " (List.map q c.queries))

let arb_case =
  QCheck.make ~print:show_case
    ~shrink:(fun c yield ->
      QCheck.Shrink.list c.ps (fun ps -> yield { c with ps });
      QCheck.Shrink.list c.queries (fun queries ->
          if queries <> [] then yield { c with queries }))
    QCheck.Gen.(
      map2
        (fun ps queries -> { ps; queries })
        (list_size (int_range 0 12) p_gen)
        (list_size (int_range 1 6) query_gen))

(* ---- building and querying ------------------------------------------------ *)

let document (ps : p list) : rnode =
  elem "r"
    (List.mapi
       (fun i p ->
         elem "p"
           ((attr "n" (string_of_int i)
             :: (match p.p_attr with Some a -> [ attr "a" values.(a) ] | None -> []))
           @ List.map
               (function
                 | Text a | Two_texts (a, _) -> elem "k" [ text values.(a) ]
                 | With_comment (a, b) -> elem "k" [ text values.(a); comment values.(b) ]
                 | Nested a -> elem "g" [ elem "k" [ text values.(a) ] ])
               p.p_keys))
       ps)

(* the second text child of a Two_texts key, inserted by an update so
   the key ends up with two adjacent text nodes *)
let add_second_texts db (ps : p list) =
  List.iteri
    (fun i p ->
      let direct = List.filter (function Nested _ -> false | _ -> true) p.p_keys in
      List.iteri
        (fun j k ->
          match k with
          | Two_texts (_, b) ->
            ignore
              (Test_util.exec db
                 (Printf.sprintf {|UPDATE insert text {"%s"} into doc("d")/r/p[%d]/k[%d]|}
                    values.(b) (i + 1) (j + 1)))
          | _ -> ())
        direct)
    ps

let predicate q =
  let cmp = Sedna_xquery.Xq_pp.binop_name q.q_op in
  if q.q_flipped then Printf.sprintf "%s %s %s" q.q_value cmp q.q_key
  else Printf.sprintf "%s %s %s" q.q_key cmp q.q_value

let texts_of q =
  let pred = predicate q in
  [
    Printf.sprintf {|doc("d")/r/p[%s]|} pred;
    Printf.sprintf {|for $p in doc("d")/r/p[%s] return string($p/@n)|} pred;
  ]

let answer s text =
  match Sedna_db.Session.execute_string s text with
  | r -> r
  | exception Sedna_util.Error.Sedna_error (code, _) ->
    "error " ^ Sedna_util.Error.code_name code

let session db opts =
  let s = Sedna_db.Session.connect db in
  Sedna_db.Session.set_rewriter_options s opts;
  s

let chain_opts = { R.default_options with use_indexes = false }
let nav_opts = { chain_opts with extract_structural = false }
let index_opts = { R.default_options with index_min_count = 1 }

let chain_filters_in db opts text =
  match Sedna_xquery.Xq_parser.parse_statement text with
  | Ast.Query (_, e) ->
    R.count_chain_filters (R.rewrite_with ~catalog:(Database.catalog db) opts e)
  | _ -> 0

(* The three plans agree on every query; the chain filter actually runs
   where the predicate is a general comparison. *)
let prop_plans_agree (c : case) : bool =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" (to_xml (document c.ps)));
      add_second_texts db c.ps;
      List.iter
        (fun (name, by) ->
          ignore
            (Test_util.exec db
               (Printf.sprintf {|CREATE INDEX "%s" ON doc("d")/r/p BY %s AS xs:string|}
                  name by)))
        [ ("ik", "k"); ("ig", "g/k"); ("ia", "@a") ];
      let chain = session db chain_opts
      and nav = session db nav_opts
      and probe = session db index_opts in
      List.for_all
        (fun q ->
          List.for_all
            (fun text ->
              if chain_filters_in db chain_opts text <> 1 then
                QCheck.Test.fail_reportf "no chain filter for %s" text;
              let want = answer nav text in
              let by_chain = answer chain text and by_probe = answer probe text in
              if by_chain <> want || by_probe <> want then
                QCheck.Test.fail_reportf "%s\n  navigation: %s\n  chain:      %s\n  index:      %s"
                  text want by_chain by_probe;
              true)
            (texts_of q))
        c.queries)

(* ---- regression cases ----------------------------------------------------------- *)

let test_key_shapes () =
  (* one document with every shape; each predicate against a fixed answer *)
  let ps =
    [
      { p_attr = Some 1; p_keys = [ Text 1 ] }; (* n=0: k "1" *)
      { p_attr = None; p_keys = [] }; (* n=1: no key *)
      { p_attr = Some 6; p_keys = [ Text 0 ] }; (* n=2: empty k *)
      { p_attr = None; p_keys = [ Text 2; Text 3 ] }; (* n=3: "2", "10" *)
      { p_attr = None; p_keys = [ Two_texts (1, 2) ] }; (* n=4: "12" *)
      { p_attr = None; p_keys = [ Nested 6 ] }; (* n=5: g/k "abc" *)
    ]
  in
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" (to_xml (document ps)));
      add_second_texts db ps;
      let run = answer (session db chain_opts) in
      let ids pred = run (Printf.sprintf {|for $p in doc("d")/r/p[%s] return string($p/@n)|} pred) in
      Alcotest.(check string) "numeric >" "3 4" (ids "k > 1");
      Alcotest.(check string) "numeric = over several keys" "3" (ids "k = 10");
      Alcotest.(check string) "two texts concatenate" "4" (ids {|k = "12"|});
      Alcotest.(check string) "empty key matches the empty string" "2" (ids {|k = ""|});
      Alcotest.(check string) "!= keeps the empty key" "0 2 3 4" (ids {|k != "10"|});
      Alcotest.(check string) "flipped" "0" (ids "2 > k");
      Alcotest.(check string) "nested key" "5" (ids {|g/k = "abc"|});
      Alcotest.(check string) "attribute key" "2" (ids {|@a = "abc"|});
      Alcotest.(check string) "NaN never compares" "" (ids "k = number(\"x\")");
      Alcotest.(check string) "NaN != holds against numbers" "0 3 4" (ids "k != number(\"x\")"))

(* Chains of many blocks, read through a small pool: the label merge
   skips whole blocks between sparse matches, and a descendant step
   whose P resolves to two schema nodes merges two chains. *)
let test_long_chains () =
  let p i =
    if i mod 7 = 0 then Printf.sprintf {|<p n="%d"><g><k>%d</k></g></p>|} i (i mod 97)
    else Printf.sprintf {|<p n="%d"><k>%d</k><k>x%d</k></p>|} i (i mod 97) i
  in
  let xml =
    Printf.sprintf "<r><a>%s</a><b>%s</b></r>"
      (String.concat "" (List.init 1500 p))
      (String.concat "" (List.init 1500 (fun i -> p (i + 1500))))
  in
  Test_util.with_db ~buffer_frames:16 (fun db ->
      ignore (Test_util.load db "d" xml);
      let chain = session db chain_opts and nav = session db nav_opts in
      List.iter
        (fun pred ->
          List.iter
            (fun path ->
              let q = Printf.sprintf {|for $p in doc("d")%s[%s] return string($p/@n)|} path pred in
              Alcotest.(check int) ("chain filter in " ^ q) 1 (chain_filters_in db chain_opts q);
              Alcotest.(check string) q (answer nav q) (answer chain q))
            [ "/r/a/p"; "//p" ])
        [ "k = 5"; "k = 96"; {|k = "x2999"|}; "k >= 95"; "g/k = 0"; {|k != "0"|} ])

(* An unprefixed key name matches in every namespace, so one P schema
   node can have several K schema nodes: their keys are merged in
   document order before the climb to P. *)
let test_namespaced_keys () =
  let p i =
    let a = Printf.sprintf "<k>%d</k>" (i mod 5) and b = Printf.sprintf "<c:k>%d</c:k>" (i mod 3) in
    let keys =
      match i mod 4 with
      | 0 -> a ^ b
      | 1 -> b ^ a
      | 2 -> b
      | _ -> Printf.sprintf "<g>%s</g><g>%s</g>" a b
    in
    Printf.sprintf {|<p n="%d">%s</p>|} i keys
  in
  let xml =
    Printf.sprintf {|<r xmlns:c="urn:c">%s</r>|} (String.concat "" (List.init 200 p))
  in
  Test_util.with_db ~buffer_frames:16 (fun db ->
      ignore (Test_util.load db "d" xml);
      let chain = session db chain_opts and nav = session db nav_opts in
      List.iter
        (fun pred ->
          let q = Printf.sprintf {|for $p in doc("d")/r/p[%s] return string($p/@n)|} pred in
          Alcotest.(check int) ("chain filter in " ^ q) 1 (chain_filters_in db chain_opts q);
          let want = answer nav q in
          Alcotest.(check bool) ("answer not empty: " ^ q) true (want <> "");
          Alcotest.(check string) q want (answer chain q))
        [ "k = 1"; "k = 2"; "k > 3"; {|k != "0"|}; "g/k = 2"; "g/k < 1" ])

(* Shrunk from the property: a string index over a key whose value is
   empty stored its first key "" at the very end of a B-tree page, an
   address that names the next page, which did not exist yet. *)
let test_index_over_empty_key () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" {|<r><p n="0"><k></k></p><p n="1"><k>1</k></p></r>|});
      ignore (Test_util.exec db {|CREATE INDEX "ik" ON doc("d")/r/p BY k AS xs:string|});
      let probe = session db index_opts in
      Alcotest.(check string) "probe finds the empty key" "0"
        (answer probe {|for $p in doc("d")/r/p[k = ""] return string($p/@n)|}))

(* ---- lock inference --------------------------------------------------------------- *)

(* An update whose target is a chain filter must lock the filter's
   document, which only the node itself names. *)
let test_update_target_locks () =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "d" "<r><p><k>1</k></p><p><k>2</k></p></r>");
      let target =
        match Sedna_xquery.Xq_parser.parse_query {|doc("d")/r/p[k = 2]|} with
        | _, e -> R.rewrite_with ~catalog:(Database.catalog db) R.default_options e
      in
      Alcotest.(check int) "target is a chain filter" 1 (R.count_chain_filters target);
      let locks stmt = Sedna_db.Session.statement_locks db stmt in
      let update e = Ast.Update (Ast.empty_prolog, Ast.Delete e) in
      Alcotest.(check bool) "rewritten target locks d" true
        (locks (update target) = [ ("d", Lock_mgr.Exclusive) ]);
      ignore (Test_util.exec db {|UPDATE delete doc("d")/r/p[k = 2]|});
      Alcotest.(check string) "update applied" "<r><p><k>1</k></p></r>"
        (Test_util.exec db {|doc("d")/r|}))

let suite =
  [
    Alcotest.test_case "key shapes" `Quick test_key_shapes;
    Alcotest.test_case "long chains" `Quick test_long_chains;
    Alcotest.test_case "namespaced keys" `Quick test_namespaced_keys;
    Alcotest.test_case "index over an empty key" `Quick test_index_over_empty_key;
    Alcotest.test_case "update target locks its document" `Quick test_update_target_locks;
    Test_util.qcheck_case ~count:60 "chain = navigation = index probe" arb_case
      prop_plans_agree;
  ]
