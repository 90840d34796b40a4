(* Pretty-printer for the logical operation tree: what the CLI's
   \explain shows.  Makes the rewriter's work visible — DDO operations,
   schema paths, virtual constructors, hoisted lets. *)

open Xq_ast

let axis_name = function
  | Child -> "child"
  | Descendant -> "descendant"
  | Descendant_or_self -> "descendant-or-self"
  | Self -> "self"
  | Parent -> "parent"
  | Ancestor -> "ancestor"
  | Ancestor_or_self -> "ancestor-or-self"
  | Following_sibling -> "following-sibling"
  | Preceding_sibling -> "preceding-sibling"
  | Following -> "following"
  | Preceding -> "preceding"
  | Attribute_axis -> "attribute"

let test_name = function
  | Name_test n -> Sedna_util.Xname.to_string n
  | Wildcard -> "*"
  | Kind_any -> "node()"
  | Kind_text -> "text()"
  | Kind_comment -> "comment()"
  | Kind_pi None -> "processing-instruction()"
  | Kind_pi (Some t) -> Printf.sprintf "processing-instruction(%s)" t
  | Kind_element None -> "element()"
  | Kind_element (Some n) ->
    Printf.sprintf "element(%s)" (Sedna_util.Xname.to_string n)
  | Kind_attribute None -> "attribute()"
  | Kind_attribute (Some n) ->
    Printf.sprintf "attribute(%s)" (Sedna_util.Xname.to_string n)
  | Kind_document -> "document-node()"

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "div" | Idiv -> "idiv"
  | Mod -> "mod"
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"
  | Gen_eq -> "=" | Gen_ne -> "!=" | Gen_lt -> "<" | Gen_le -> "<="
  | Gen_gt -> ">" | Gen_ge -> ">="
  | Is -> "is" | Precedes -> "<<" | Follows -> ">>"
  | Union -> "union" | Intersect -> "intersect" | Except -> "except"

let rec pp ?(indent = 0) buf (e : expr) =
  let pad = String.make (2 * indent) ' ' in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (pad ^ s ^ "\n")) fmt in
  let child e = pp ~indent:(indent + 1) buf e in
  match e with
  | Int_lit i -> line "int %d" i
  | Dbl_lit f -> line "double %g" f
  | Str_lit s -> line "string %S" s
  | Empty_seq -> line "empty-sequence"
  | Context_item -> line "context-item"
  | Var v -> line "var $%s" v
  | Sequence es ->
    line "sequence";
    List.iter child es
  | Range (a, b) ->
    line "range";
    child a;
    child b
  | Binop (op, a, b) ->
    line "op %s" (binop_name op);
    child a;
    child b
  | Neg a ->
    line "negate";
    child a
  | And (a, b) ->
    line "and";
    child a;
    child b
  | Or (a, b) ->
    line "or";
    child a;
    child b
  | Not a ->
    line "not";
    child a
  | If (c, t, f) ->
    line "if";
    child c;
    line "then";
    child t;
    line "else";
    child f
  | Ddo a ->
    line "DDO  (distinct-document-order)";
    child a
  | Ordered a ->
    line "ordered";
    child a
  | Unordered a ->
    line "unordered";
    child a
  | Schema_path (doc, steps) ->
    line "SCHEMA-PATH doc(%S) %s  (resolved on the descriptive schema)" doc
      (String.concat "/"
         (List.map
            (fun (a, n) ->
              Printf.sprintf "%s::%s" (axis_name a) (Sedna_util.Xname.to_string n))
            steps))
  | Chain_filter c ->
    let steps l =
      String.concat "/"
        (List.map
           (fun (a, n) ->
             Printf.sprintf "%s::%s" (axis_name a) (Sedna_util.Xname.to_string n))
           l)
    in
    line "CHAIN-FILTER doc(%S) %s  [%s %s value]  (key chain scan)" c.cf_doc
      (steps c.cf_path) (steps c.cf_key) (binop_name c.cf_op);
    line "  value";
    pp ~indent:(indent + 2) buf c.cf_value
  | Index_probe p ->
    line "INDEX-PROBE %S mode=%s  (automatic index selection, doc %S)"
      p.ip_index
      (match p.ip_mode with
       | Probe_eq -> "EQ"
       | Probe_ge -> "GE"
       | Probe_le -> "LE"
       | Probe_gt -> "GT"
       | Probe_lt -> "LT")
      p.ip_doc;
    line "  key";
    pp ~indent:(indent + 2) buf p.ip_key;
    line "  residual";
    pp ~indent:(indent + 2) buf p.ip_residual
  | Path (init, steps) ->
    line "path";
    child init;
    List.iter
      (fun (s : step) ->
        line "  step %s::%s%s" (axis_name s.axis) (test_name s.test)
          (if s.preds = [] then ""
           else Printf.sprintf "  [%d predicate(s)]" (List.length s.preds));
        List.iter (fun p -> pp ~indent:(indent + 2) buf p) s.preds)
      steps
  | Filter (p, preds) ->
    line "filter  [%d predicate(s)]" (List.length preds);
    child p;
    List.iter child preds
  | Call (n, args) ->
    line "call %s#%d" (Sedna_util.Xname.to_string n) (List.length args);
    List.iter child args
  | Quantified (q, binds, cond) ->
    line "%s" (match q with Some_q -> "some" | Every_q -> "every");
    List.iter
      (fun (v, e') ->
        line "  in $%s" v;
        pp ~indent:(indent + 2) buf e')
      binds;
    line "satisfies";
    child cond
  | Flwor (clauses, ret) ->
    line "flwor";
    List.iter
      (function
        | For binds ->
          List.iter
            (fun (v, p, e') ->
              line "  for $%s%s" v
                (match p with Some pv -> Printf.sprintf " at $%s" pv | None -> "");
              pp ~indent:(indent + 2) buf e')
            binds
        | Let binds ->
          List.iter
            (fun (v, e') ->
              line "  let $%s" v;
              pp ~indent:(indent + 2) buf e')
            binds
        | Where c ->
          line "  where";
          pp ~indent:(indent + 2) buf c
        | Order_by keys ->
          line "  order-by";
          List.iter (fun (k, _) -> pp ~indent:(indent + 2) buf k) keys)
      clauses;
    line "return";
    child ret
  | Elem_constr (n, atts, content) ->
    line "element-constructor <%s> (%d attrs)" (Sedna_util.Xname.to_string n)
      (List.length atts);
    List.iter child content
  | Virtual_constr a ->
    line "VIRTUAL  (no deep copies; result not navigated)";
    child a
  | Comp_elem (a, b) ->
    line "computed-element";
    child a;
    child b
  | Comp_attr (a, b) ->
    line "computed-attribute";
    child a;
    child b
  | Comp_text a ->
    line "computed-text";
    child a
  | Comp_comment a ->
    line "computed-comment";
    child a
  | Comp_pi (a, b) ->
    line "computed-pi";
    child a;
    child b
  | Castable (a, t) ->
    line "castable as %s" t;
    child a
  | Cast (a, t) ->
    line "cast as %s" t;
    child a
  | Instance_of (a, t) ->
    line "instance of %s" t;
    child a
  | Treat_as (a, t) ->
    line "treat as %s" t;
    child a

let to_string (e : expr) : string =
  let buf = Buffer.create 256 in
  pp buf e;
  Buffer.contents buf

(* \explain: a parsed query body (shown normalized) beside the plan
   its statement compiled to, then the compiled prolog variable
   initializers.  The caller compiles; this only prints. *)
let explain ~variables (parsed : expr) (compiled : expr) : string =
  let normalized = Rewriter.normalize parsed in
  let vars =
    List.map
      (fun (v, e) -> Printf.sprintf "\n-- variable $%s (after rewriting) --\n%s" v (to_string e))
      variables
  in
  Printf.sprintf
    "-- logical tree (normalized, %d DDO op(s)) --\n%s\n-- after rewriting (%d DDO op(s)) --\n%s%s"
    (Rewriter.count_ddo normalized)
    (to_string normalized)
    (Rewriter.count_ddo compiled)
    (to_string compiled)
    (String.concat "" vars)
