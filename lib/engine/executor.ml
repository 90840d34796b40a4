(* The executor (paper §5.2): a demand-driven evaluator over lazy item
   sequences.  OCaml's [Seq.t] provides the open-next-close pipeline:
   building a sequence is "open", forcing a cell is "next", dropping it
   is "close"; no intermediate result is materialized unless an
   operator requires it (DDO, sorting, last()).

   Schema_path expressions — structural paths extracted by the
   rewriter — are resolved against the descriptive schema and turn into
   merged block-chain scans, never touching non-matching nodes.  Chain
   filters extend this to value predicates: the key's block chain is
   scanned and the matching keys are merged with the chain of the nodes
   they filter. *)

open Sedna_util
open Sedna_core
open Xdm
module Ast = Sedna_xquery.Xq_ast

type ctx = {
  st : Store.t;
  vars : (string * value) list;
  funcs : (string * Ast.fun_def) list;
  item : item option;
  pos : int;
  size : int Lazy.t;
  virtual_ok : bool;
  prof : Profiler.t option;
}

let initial_ctx ?(vars = []) ?(funcs = []) (st : Store.t) =
  {
    st;
    vars;
    funcs;
    item = None;
    pos = 0;
    size = lazy 0;
    virtual_ok = false;
    prof = None;
  }

let dynamic_error fmt = Error.raise_error Error.Xquery_dynamic fmt
let type_error fmt = Error.raise_error Error.Xquery_type fmt

let context_item ctx =
  match ctx.item with
  | Some i -> i
  | None -> dynamic_error "context item is undefined"

let context_node ctx =
  match context_item ctx with
  | N n -> n
  | A _ -> type_error "context item is not a node"

(* ---- node tests ---------------------------------------------------------- *)

let name_matches (want : Xname.t) (got : Xname.t option) =
  match got with Some g -> Xname.matches ~want g | None -> false

let test_matches ctx (test : Ast.node_test) (n : node) : bool =
  let st = ctx.st in
  let kind = node_kind st n in
  match test with
  | Ast.Kind_any -> true
  | Ast.Wildcard -> kind = Catalog.Element
  | Ast.Name_test want -> kind = Catalog.Element && name_matches want (node_name st n)
  | Ast.Kind_text -> kind = Catalog.Text
  | Ast.Kind_comment -> kind = Catalog.Comment
  | Ast.Kind_pi None -> kind = Catalog.Pi
  | Ast.Kind_pi (Some target) ->
    kind = Catalog.Pi
    && (match node_name st n with
        | Some nm -> String.equal (Xname.local nm) target
        | None -> false)
  | Ast.Kind_element None -> kind = Catalog.Element
  | Ast.Kind_element (Some want) ->
    kind = Catalog.Element && name_matches want (node_name st n)
  | Ast.Kind_attribute None -> kind = Catalog.Attribute
  | Ast.Kind_attribute (Some want) ->
    kind = Catalog.Attribute && name_matches want (node_name st n)
  | Ast.Kind_document -> kind = Catalog.Document

(* convert an AST test into a schema-level test for the schema-driven
   descendant evaluation; names match as in [test_matches] (an empty
   uri matches any namespace) *)
let traverse_test_of (test : Ast.node_test) : Traverse.test option =
  match test with
  | Ast.Name_test n | Ast.Kind_element (Some n) ->
    Some { Traverse.t_kind = Some Catalog.Element; t_name = Some n }
  | Ast.Wildcard | Ast.Kind_element None ->
    Some { Traverse.t_kind = Some Catalog.Element; t_name = None }
  | Ast.Kind_text -> Some { Traverse.t_kind = Some Catalog.Text; t_name = None }
  | Ast.Kind_comment ->
    Some { Traverse.t_kind = Some Catalog.Comment; t_name = None }
  | Ast.Kind_any -> Some Traverse.any_test
  | _ -> None

(* ---- axes over XDM nodes --------------------------------------------------- *)

let temp_descendants st (t : tnode) : node Seq.t =
  let rec go n () =
    match n with
    | Temp tn ->
      let kids =
        List.filter (fun c -> node_kind st c <> Catalog.Attribute) tn.t_children
      in
      (Seq.concat_map (fun c -> Seq.cons c (go c)) (List.to_seq kids)) ()
    | Stored d ->
      (Seq.map (fun x -> Stored x) (Traverse.descendants_walk st d)) ()
  in
  go (Temp t)

let axis_seq ctx (axis : Ast.axis) (n : node) : node Seq.t =
  let st = ctx.st in
  match (axis, n) with
  | Ast.Child, Stored d -> Seq.map (fun x -> Stored x) (Traverse.children st d)
  | Ast.Child, Temp t ->
    List.to_seq
      (List.filter (fun c -> node_kind st c <> Catalog.Attribute) t.t_children)
  | Ast.Attribute_axis, Stored d ->
    Seq.map (fun x -> Stored x) (Traverse.attributes st d)
  | Ast.Attribute_axis, Temp t -> List.to_seq (node_attributes st (Temp t))
  | Ast.Self, n -> Seq.return n
  | Ast.Parent, n -> (
    match node_parent st n with None -> Seq.empty | Some p -> Seq.return p)
  | Ast.Ancestor, Stored d -> Seq.map (fun x -> Stored x) (Traverse.ancestors st d)
  | Ast.Ancestor, Temp _ ->
    let rec up n () =
      match node_parent st n with
      | None -> Seq.Nil
      | Some p -> Seq.Cons (p, up p)
    in
    up n
  | Ast.Ancestor_or_self, n ->
    let rec up n () =
      match node_parent st n with
      | None -> Seq.Nil
      | Some p -> Seq.Cons (p, up p)
    in
    Seq.cons n (up n)
  | Ast.Descendant, Stored d ->
    Seq.map (fun x -> Stored x) (Traverse.descendants_walk st d)
  | Ast.Descendant, Temp t -> temp_descendants st t
  | Ast.Descendant_or_self, n -> (
    match n with
    | Stored d ->
      Seq.cons n (Seq.map (fun x -> Stored x) (Traverse.descendants_walk st d))
    | Temp t -> Seq.cons n (temp_descendants st t))
  | Ast.Following_sibling, Stored d ->
    Seq.map (fun x -> Stored x) (Traverse.following_siblings st d)
  | Ast.Preceding_sibling, Stored d ->
    Seq.map (fun x -> Stored x) (Traverse.preceding_siblings st d)
  | Ast.Following, Stored d -> Seq.map (fun x -> Stored x) (Traverse.following st d)
  | Ast.Preceding, Stored d -> Seq.map (fun x -> Stored x) (Traverse.preceding st d)
  | (Ast.Following_sibling | Ast.Preceding_sibling | Ast.Following | Ast.Preceding),
    Temp t -> (
    match t.t_parent with
    | None -> Seq.empty
    | Some p ->
      let sibs =
        List.filter
          (fun c -> node_kind st c <> Catalog.Attribute)
          p.t_children
      in
      let rec split before after = function
        | [] -> (List.rev before, List.rev after)
        | c :: rest ->
          if is_same_node st c (Temp t) then (List.rev before, rest)
          else split (c :: before) after rest
      in
      let before, after = split [] [] sibs in
      (match axis with
       | Ast.Following_sibling | Ast.Following -> List.to_seq after
       | _ -> List.to_seq (List.rev before)))

(* schema-driven descendant when the context node is stored and the
   test maps to schema nodes (the paper's fast path) *)
let descendant_step ctx (test : Ast.node_test) (n : node) : node Seq.t =
  match (n, traverse_test_of test) with
  | Stored d, Some tt ->
    Seq.map (fun x -> Stored x) (Traverse.descendants_schema ctx.st ~test:tt d)
  | _ ->
    Seq.filter (test_matches ctx test) (axis_seq ctx Ast.Descendant n)

(* child step: with a name test on a stored node, follow the parent's
   per-schema first-child pointers of the matching child schema nodes,
   so non-matching siblings are never fetched; other tests walk the
   sibling chain *)
let child_step ctx (test : Ast.node_test) (n : node) : node Seq.t =
  match (n, test) with
  | Stored d, (Ast.Name_test want | Ast.Kind_element (Some want)) ->
    Seq.map
      (fun x -> Stored x)
      (Traverse.children_schema ctx.st ~test:(Traverse.element_test (Some want)) d)
  | _ -> Seq.filter (test_matches ctx test) (axis_seq ctx Ast.Child n)

(* ---- DDO ------------------------------------------------------------------- *)

let ddo ctx (items : item Seq.t) : item Seq.t =
  let nodes =
    List.of_seq
      (Seq.map
         (function
           | N n -> n
           | A _ -> type_error "distinct-document-order over atomic values")
         items)
  in
  let sorted = List.stable_sort (node_compare ctx.st) nodes in
  let rec dedup = function
    | a :: b :: rest when is_same_node ctx.st a b -> dedup (b :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  List.to_seq (List.map (fun n -> N n) (dedup sorted))

(* ---- helpers ---------------------------------------------------------------- *)

let singleton_atomic ctx (e_items : item Seq.t) : atomic option =
  match e_items () with
  | Seq.Nil -> None
  | Seq.Cons (x, rest) -> (
    match rest () with
    | Seq.Nil -> Some (atomize ctx.st x)
    | Seq.Cons _ -> type_error "a singleton sequence was expected")

(* one pair of a general comparison *)
let general_holds op (x : atomic) (y : atomic) =
  match general_pair_compare x y with
  | None -> op = Ast.Gen_ne && nan_pair x y
  | Some c -> (
    match op with
    | Ast.Gen_eq -> c = 0
    | Ast.Gen_ne -> c <> 0
    | Ast.Gen_lt -> c < 0
    | Ast.Gen_le -> c <= 0
    | Ast.Gen_gt -> c > 0
    | Ast.Gen_ge -> c >= 0
    | _ -> assert false)

(* The last position a constant positional predicate can select: [N],
   [position() <= k] and [position() < k] never hold past it, so the
   input is read no further. *)
let position_limit (pred : Ast.expr) : int option =
  match pred with
  | Ast.Int_lit n -> Some (max n 0)
  | Ast.Binop (op, Ast.Call (f, []), Ast.Int_lit k) when Xname.local f = "position" -> (
    match op with
    | Ast.Le | Ast.Gen_le -> Some (max k 0)
    | Ast.Lt | Ast.Gen_lt -> Some (max (k - 1) 0)
    | _ -> None)
  | _ -> None

let numeric_binop op (a : atomic) (b : atomic) : atomic =
  let fa = float_of_atomic a and fb = float_of_atomic b in
  let both_int =
    match (a, b) with
    | (AInt _ | AUntyped _), (AInt _ | AUntyped _) -> (
      (* untyped atomics promote to double per spec; keep ints only for
         true integers *)
      match (a, b) with AInt _, AInt _ -> true | _ -> false)
    | _ -> false
  in
  match op with
  | Ast.Add -> if both_int then AInt (int_of_float fa + int_of_float fb) else ADbl (fa +. fb)
  | Ast.Sub -> if both_int then AInt (int_of_float fa - int_of_float fb) else ADbl (fa -. fb)
  | Ast.Mul -> if both_int then AInt (int_of_float fa * int_of_float fb) else ADbl (fa *. fb)
  | Ast.Div ->
    if fb = 0.0 && both_int then dynamic_error "division by zero"
    else ADbl (fa /. fb)
  | Ast.Idiv ->
    if fb = 0.0 then dynamic_error "integer division by zero"
    else AInt (int_of_float (Float.trunc (fa /. fb)))
  | Ast.Mod ->
    if fb = 0.0 then
      if both_int then dynamic_error "modulo by zero" else ADbl Float.nan
    else if both_int then AInt (int_of_float fa mod int_of_float fb)
    else ADbl (Float.rem fa fb)
  | _ -> assert false

(* ---- the evaluator ------------------------------------------------------------ *)

(* [eval] dispatches through the profiler when one is attached to the
   context; the only cost with profiling off is the option match.
   [eval_core] is the evaluator proper. *)
let rec eval (ctx : ctx) (e : Ast.expr) : item Seq.t =
  match ctx.prof with
  | None -> eval_core ctx e
  | Some p -> (
    match Profiler.find_expr p e with
    | Some node -> Profiler.wrap_eval p node (fun () -> eval_core ctx e)
    | None -> eval_core ctx e)

and eval_core (ctx : ctx) (e : Ast.expr) : item Seq.t =
  Deadline.check ();
  match e with
  | Ast.Int_lit i -> Seq.return (A (AInt i))
  | Ast.Dbl_lit f -> Seq.return (A (ADbl f))
  | Ast.Str_lit s -> Seq.return (A (AStr s))
  | Ast.Empty_seq -> Seq.empty
  | Ast.Context_item -> Seq.return (context_item ctx)
  | Ast.Var v -> (
    match List.assoc_opt v ctx.vars with
    | Some value -> List.to_seq value
    | None -> dynamic_error "unbound variable $%s" v)
  | Ast.Sequence es -> Seq.concat_map (eval ctx) (List.to_seq es)
  | Ast.Range (a, b) -> (
    match (singleton_atomic ctx (eval ctx a), singleton_atomic ctx (eval ctx b)) with
    | Some x, Some y ->
      let lo = int_of_float (float_of_atomic x)
      and hi = int_of_float (float_of_atomic y) in
      if lo > hi then Seq.empty
      else Seq.map (fun i -> A (AInt i)) (Seq.ints lo |> Seq.take (hi - lo + 1))
    | _ -> Seq.empty)
  | Ast.Neg a -> (
    match singleton_atomic ctx (eval ctx a) with
    | None -> Seq.empty
    | Some (AInt i) -> Seq.return (A (AInt (-i)))
    | Some x -> Seq.return (A (ADbl (-.float_of_atomic x))))
  | Ast.Binop (op, a, b) -> eval_binop ctx op a b
  | Ast.And (a, b) ->
    Seq.return
      (A (ABool (ebv ctx.st (eval ctx a) && ebv ctx.st (eval ctx b))))
  | Ast.Or (a, b) ->
    Seq.return
      (A (ABool (ebv ctx.st (eval ctx a) || ebv ctx.st (eval ctx b))))
  | Ast.Not a -> Seq.return (A (ABool (not (ebv ctx.st (eval ctx a)))))
  | Ast.If (c, t, f) -> if ebv ctx.st (eval ctx c) then eval ctx t else eval ctx f
  | Ast.Ddo a -> ddo ctx (eval ctx a)
  | Ast.Ordered a | Ast.Unordered a -> eval ctx a
  | Ast.Path (init, steps) ->
    let start = eval ctx init in
    List.fold_left
      (fun seq step ->
        let nodes =
          Seq.map
            (function
              | N n -> n
              | A _ -> type_error "path step applied to an atomic value")
            seq
        in
        let out = Seq.concat_map (fun n -> eval_step ctx step n) nodes in
        match ctx.prof with
        | None -> out
        | Some p -> (
          match Profiler.find_step p step with
          | Some node -> Profiler.wrap_seq p node out
          | None -> out))
      start steps
  | Ast.Schema_path (doc, steps) -> eval_schema_path ctx doc steps
  | Ast.Index_probe p -> eval_index_probe ctx p
  | Ast.Chain_filter c -> eval_chain_filter ctx c
  | Ast.Filter (p, preds) ->
    List.fold_left (fun seq pred -> apply_predicate ctx pred seq) (eval ctx p) preds
  | Ast.Flwor (clauses, ret) -> eval_flwor ctx clauses ret
  | Ast.Quantified (q, binds, cond) ->
    let rec go ctx = function
      | [] -> ebv ctx.st (eval ctx cond)
      | (v, e') :: rest ->
        let items = eval ctx e' in
        let test item = go { ctx with vars = (v, [ item ]) :: ctx.vars } rest in
        (match q with
         | Ast.Some_q -> Seq.exists test items
         | Ast.Every_q -> Seq.for_all test items)
    in
    Seq.return (A (ABool (go ctx binds)))
  | Ast.Call (n, args) -> eval_call ctx n args
  | Ast.Elem_constr (name, atts, content) ->
    Seq.return (N (Temp (build_element ctx name atts content)))
  | Ast.Virtual_constr inner -> eval { ctx with virtual_ok = true } inner
  | Ast.Comp_elem (name_e, content_e) ->
    let name =
      match singleton_atomic ctx (eval ctx name_e) with
      | Some a -> Xname.of_string (string_of_atomic a)
      | None -> type_error "element constructor needs a name"
    in
    let t = new_tnode ~kind:Catalog.Element ~name:(Some name) ~value:"" in
    fill_content ctx t (eval ctx content_e);
    Seq.return (N (Temp t))
  | Ast.Comp_attr (name_e, value_e) ->
    let name =
      match singleton_atomic ctx (eval ctx name_e) with
      | Some a -> Xname.of_string (string_of_atomic a)
      | None -> type_error "attribute constructor needs a name"
    in
    let v =
      String.concat " "
        (List.map (item_string ctx.st) (List.of_seq (eval ctx value_e)))
    in
    Seq.return
      (N (Temp (new_tnode ~kind:Catalog.Attribute ~name:(Some name) ~value:v)))
  | Ast.Comp_text e' ->
    let v =
      String.concat " "
        (List.map (item_string ctx.st) (List.of_seq (eval ctx e')))
    in
    Seq.return (N (Temp (new_tnode ~kind:Catalog.Text ~name:None ~value:v)))
  | Ast.Comp_comment e' ->
    let v =
      String.concat " "
        (List.map (item_string ctx.st) (List.of_seq (eval ctx e')))
    in
    Seq.return (N (Temp (new_tnode ~kind:Catalog.Comment ~name:None ~value:v)))
  | Ast.Comp_pi (t_e, d_e) ->
    let target =
      match singleton_atomic ctx (eval ctx t_e) with
      | Some a -> string_of_atomic a
      | None -> type_error "processing-instruction constructor needs a target"
    in
    let v =
      String.concat " "
        (List.map (item_string ctx.st) (List.of_seq (eval ctx d_e)))
    in
    Seq.return
      (N (Temp (new_tnode ~kind:Catalog.Pi ~name:(Some (Xname.make target)) ~value:v)))
  | Ast.Cast (e', ty) -> eval_cast ctx e' ty
  | Ast.Castable (e', ty) ->
    let ok =
      try
        ignore (List.of_seq (eval_cast ctx e' ty));
        true
      with _ -> false
    in
    Seq.return (A (ABool ok))
  | Ast.Instance_of (e', ty) ->
    (* coarse dynamic check over the supported types *)
    let items = List.of_seq (eval ctx e') in
    let base = String.concat "" (String.split_on_char '?' ty) in
    let base = String.concat "" (String.split_on_char '*' base) in
    let card_ok =
      if String.contains ty '*' then true
      else if String.contains ty '?' then List.length items <= 1
      else List.length items = 1
    in
    let item_ok (i : item) =
      match (i, base) with
      | A (AInt _), ("xs:integer" | "xs:decimal" | "xs:double" | "item()") -> true
      | A (ADbl _), ("xs:double" | "xs:decimal" | "item()") -> true
      | A (AStr _), ("xs:string" | "item()") -> true
      | A (ABool _), ("xs:boolean" | "item()") -> true
      | A (AUntyped _), ("xs:untypedAtomic" | "item()") -> true
      | N _, ("node()" | "item()") -> true
      | N n, "element()" -> node_kind ctx.st n = Catalog.Element
      | N n, "attribute()" -> node_kind ctx.st n = Catalog.Attribute
      | N n, "text()" -> node_kind ctx.st n = Catalog.Text
      | _ -> false
    in
    Seq.return (A (ABool (card_ok && List.for_all item_ok items)))
  | Ast.Treat_as (e', _) -> eval ctx e'

and eval_cast ctx e' ty : item Seq.t =
  let v = singleton_atomic ctx (eval ctx e') in
  match v with
  | None ->
    if String.length ty > 0 && ty.[String.length ty - 1] = '?' then Seq.empty
    else type_error "cast of an empty sequence"
  | Some a -> (
    let base =
      match String.index_opt ty '?' with
      | Some i -> String.sub ty 0 i
      | None -> ty
    in
    match base with
    | "xs:integer" | "xs:int" | "xs:long" -> (
      match number_opt a with
      | Some f -> Seq.return (A (AInt (int_of_float f)))
      | None -> dynamic_error "cannot cast %S to xs:integer" (string_of_atomic a))
    | "xs:double" | "xs:decimal" | "xs:float" -> (
      match number_opt a with
      | Some f -> Seq.return (A (ADbl f))
      | None -> dynamic_error "cannot cast %S to xs:double" (string_of_atomic a))
    | "xs:string" -> Seq.return (A (AStr (string_of_atomic a)))
    | "xs:boolean" -> (
      match string_of_atomic a with
      | "true" | "1" -> Seq.return (A (ABool true))
      | "false" | "0" -> Seq.return (A (ABool false))
      | s -> dynamic_error "cannot cast %S to xs:boolean" s)
    | "xs:untypedAtomic" -> Seq.return (A (AUntyped (string_of_atomic a)))
    | t -> Error.raise_error Error.Unsupported "unsupported cast target %s" t)

(* ---- steps and predicates ------------------------------------------------------ *)

and eval_step ctx (step : Ast.step) (n : node) : item Seq.t =
  let raw =
    match step.Ast.axis with
    | Ast.Child -> child_step ctx step.Ast.test n
    | Ast.Descendant -> descendant_step ctx step.Ast.test n
    | Ast.Descendant_or_self ->
      if test_matches ctx step.Ast.test n then
        Seq.cons n (descendant_step ctx step.Ast.test n)
      else descendant_step ctx step.Ast.test n
    | axis -> Seq.filter (test_matches ctx step.Ast.test) (axis_seq ctx axis n)
  in
  let items = Seq.map (fun n -> N n) raw in
  List.fold_left (fun seq pred -> apply_predicate ctx pred seq) items step.Ast.preds

(* Predicate semantics: numeric value selects by position; otherwise
   effective boolean value with context item/position/size bound. *)
and apply_predicate ctx (pred : Ast.expr) (items : item Seq.t) : item Seq.t =
  let select size items =
    Seq.mapi (fun i it -> (i + 1, it)) items
    |> Seq.filter_map (fun (pos, it) ->
           let ctx' = { ctx with item = Some it; pos; size } in
           if pred_holds ctx' pred then Some it else None)
  in
  match position_limit pred with
  | Some limit -> select (lazy 0) (Seq.take limit items)
  | None when Sedna_xquery.Rewriter.uses_position pred ->
    (* positional: materialize to know size *)
    let lst = List.of_seq items in
    select (lazy (List.length lst)) (List.to_seq lst)
  | None ->
    (* not statically positional, but a predicate may still evaluate to
       a number: track position lazily (size stays unavailable, which
       is fine — last() would have been detected) *)
    select (lazy 0) items

and pred_holds ctx (pred : Ast.expr) : bool =
  let res = eval ctx pred in
  (* a numeric predicate value selects the item at that position *)
  match res () with
  | Seq.Nil -> false
  | Seq.Cons (A ((AInt _ | ADbl _) as a), rest) -> (
    match rest () with
    | Seq.Nil -> float_of_atomic a = float_of_int ctx.pos
    | Seq.Cons _ -> ebv ctx.st res)
  | _ -> ebv ctx.st res

(* ---- schema-resolved structural paths ------------------------------------------- *)

and eval_schema_path ctx (doc_name : string) (steps : (Ast.axis * Xname.t) list)
    : item Seq.t =
  let st = ctx.st in
  let doc = Catalog.get_document st.Store.cat doc_name in
  let root_snode = Catalog.snode_by_id st.Store.cat doc.Catalog.schema_root_id in
  (* resolve the step names against the schema tree: this happens in
     main memory, no data block is touched (paper §5.1.4) *)
  let final =
    Catalog.resolve_steps st.Store.cat ~root:root_snode
      (List.map (fun (axis, name) -> (axis = Ast.Descendant, name)) steps)
  in
  let seqs = List.map (fun s -> Traverse.scan_snode st s) final in
  let merged =
    match seqs with
    | [] -> Seq.empty
    | [ one ] -> one
    | seqs -> Traverse.merge_by_doc_order st seqs
  in
  Seq.map (fun d -> N (Stored d)) merged

(* ---- automatic index selection: the physical probe ------------------------------- *)

(* Evaluate a probe produced by the rewriter: look the key(s) up in the
   B-tree, then re-apply the original predicate to every candidate (it
   filters index false positives and enforces strict bounds).  When the
   index is unusable at run time — dropped since compilation, or the
   key is of an atomic kind whose comparison order differs from the
   index's key order — fall back to the unrewritten path. *)
and eval_index_probe ctx (p : Ast.index_probe) : item Seq.t =
  let st = ctx.st in
  match Catalog.find_index st.Store.cat p.Ast.ip_index with
  | None -> eval ctx p.Ast.ip_fallback
  | Some def ->
    let keys = List.map (atomize st) (List.of_seq (eval ctx p.Ast.ip_key)) in
    let compatible (a : atomic) =
      match (def.Catalog.idx_kind, a) with
      | Catalog.Number_index, (AInt _ | ADbl _) -> true
      | Catalog.String_index, (AStr _ | AUntyped _) -> true
      | _ -> false
    in
    if not (List.for_all compatible keys) then eval ctx p.Ast.ip_fallback
    else begin
      Counters.bump Counters.index_probe;
      let handles_for (a : atomic) =
        match def.Catalog.idx_kind with
        | Catalog.Number_index -> (
          let f = float_of_atomic a in
          (* XQuery: every comparison against NaN is false, so a NaN key
             matches nothing — the B-tree's own float order would
             otherwise return an arbitrary, wrong answer *)
          if Float.is_nan f then []
          else
          match p.Ast.ip_mode with
          | Ast.Probe_eq -> Index_mgr.lookup_number st def f
          | Ast.Probe_ge | Ast.Probe_gt -> Index_mgr.range_number st def ~lo:f ()
          | Ast.Probe_le | Ast.Probe_lt -> Index_mgr.range_number st def ~hi:f ())
        | Catalog.String_index -> (
          let s = string_of_atomic a in
          match p.Ast.ip_mode with
          | Ast.Probe_eq -> Index_mgr.lookup_string st def s
          | Ast.Probe_ge | Ast.Probe_gt -> Index_mgr.range_string st def ~lo:s ()
          | Ast.Probe_le | Ast.Probe_lt -> Index_mgr.range_string st def ~hi:s ())
      in
      (* multi-key probes (general comparison against a sequence) may hit
         the same node through several keys: collapse before the residual
         runs; a surviving DDO above restores document order *)
      let handles = List.sort_uniq compare (List.concat_map handles_for keys) in
      List.to_seq handles
      |> Seq.map (fun h -> Indirection.get st.Store.bm h)
      |> Seq.filter (fun d ->
             let ctx' =
               { ctx with item = Some (N (Stored d)); pos = 1; size = lazy 1 }
             in
             pred_holds ctx' p.Ast.ip_residual)
      |> Seq.map (fun d -> N (Stored d))
    end

(* ---- value predicates on schema chains ------------------------------------------------ *)

(* Evaluate [P[K op v]] by scanning the block chain of K's schema node
   and merging the matching keys with P's chain, instead of navigating
   from every P.  [v] is evaluated once, at the first key.  The
   keys of several K schema nodes under one P schema node (an unprefixed
   name matching in several namespaces) are merged in document order. *)
and eval_chain_filter ctx (c : Ast.chain_filter) : item Seq.t =
  let st = ctx.st in
  let cat = st.Store.cat in
  let doc = Catalog.get_document cat c.Ast.cf_doc in
  let root = Catalog.snode_by_id cat doc.Catalog.schema_root_id in
  let ps =
    Catalog.resolve_steps cat ~root
      (List.map (fun (axis, name) -> (axis = Ast.Descendant, name)) c.Ast.cf_path)
  in
  let key_step frontier (axis, want) =
    List.concat_map
      (fun (s : Catalog.snode) ->
        List.filter
          (fun (k : Catalog.snode) ->
            match axis with
            | Ast.Attribute_axis ->
              k.Catalog.kind = Catalog.Attribute && name_matches want k.Catalog.name
            | _ -> Catalog.snode_matches_name want k)
          s.Catalog.children)
      frontier
  in
  let values = lazy (List.of_seq (Seq.map (atomize st) (eval ctx c.Ast.cf_value))) in
  let keep v =
    let x = AUntyped v in
    List.exists (general_holds c.Ast.cf_op x) (Lazy.force values)
  in
  let matching_keys (k : Catalog.snode) : Node.desc Seq.t =
    Seq.filter (fun d -> keep (Node_ser.string_value_in st k d)) (Traverse.scan_snode st k)
  in
  let under p =
    let keys =
      match List.fold_left key_step [ p ] c.Ast.cf_key with
      | [ k ] -> matching_keys k
      | ks -> Traverse.merge_by_doc_order st (List.map matching_keys ks)
    in
    Traverse.ancestors_in_chain st p keys
  in
  let merged =
    match List.map under ps with
    | [ one ] -> one
    | seqs -> Traverse.merge_by_doc_order st seqs
  in
  Seq.map (fun d -> N (Stored d)) merged

(* ---- FLWOR ------------------------------------------------------------------------ *)

and eval_clauses ctx (clauses : Ast.clause list) : ctx Seq.t =
  match clauses with
  | [] -> Seq.return ctx
  | Ast.For binds :: rest ->
    let rec expand ctx = function
      | [] -> Seq.return ctx
      | (v, pos_var, e') :: more ->
        let items = eval ctx e' in
        let indexed = Seq.mapi (fun i it -> (i + 1, it)) items in
        Seq.concat_map
          (fun (i, it) ->
            let vars = (v, [ it ]) :: ctx.vars in
            let vars =
              match pos_var with
              | Some pv -> (pv, [ A (AInt i) ]) :: vars
              | None -> vars
            in
            expand { ctx with vars } more)
          indexed
    in
    Seq.concat_map (fun ctx' -> eval_clauses ctx' rest) (expand ctx binds)
  | Ast.Let binds :: rest ->
    let ctx' =
      List.fold_left
        (fun ctx (v, e') ->
          (* let-bound sequences are materialized once (the lazy
             evaluation of §5.1.3) *)
          { ctx with vars = (v, List.of_seq (eval ctx e')) :: ctx.vars })
        ctx binds
    in
    eval_clauses ctx' rest
  | Ast.Where cond :: rest ->
    Seq.concat_map
      (fun ctx' -> eval_clauses ctx' rest)
      (Seq.filter (fun ctx' -> ebv ctx'.st (eval ctx' cond)) (Seq.return ctx))
  | Ast.Order_by keys :: rest ->
    (* ordering is a blocking operator: materialize the tuple stream
       produced so far.  The clause list layout guarantees Order_by is
       applied to the tuples of the preceding clauses because
       eval_clauses is invoked per tuple; to sort globally we intercept
       here: collect continuations. *)
    ignore keys;
    ignore rest;
    assert false (* handled by eval_flwor_ordered below *)

(* FLWORs with order-by need the whole tuple stream: restructure. *)
and eval_flwor ctx (clauses : Ast.clause list) (ret : Ast.expr) : item Seq.t =
  (* split at the first Order_by *)
  let rec split acc = function
    | Ast.Order_by keys :: rest -> Some (List.rev acc, keys, rest)
    | c :: rest -> split (c :: acc) rest
    | [] -> None
  in
  match split [] clauses with
  | None ->
    Seq.concat_map (fun ctx' -> eval ctx' ret) (eval_clauses ctx clauses)
  | Some (before, keys, after) ->
    let tuples = List.of_seq (eval_clauses ctx before) in
    let keyed =
      List.map
        (fun ctx' ->
          let ks =
            List.map
              (fun (k, dir) -> (singleton_atomic ctx' (eval ctx' k), dir))
              keys
          in
          (ks, ctx'))
        tuples
    in
    let cmp_atomic a b =
      match (a, b) with
      | None, None -> 0
      | None, Some _ -> -1 (* empty least *)
      | Some _, None -> 1
      | Some x, Some y -> (
        match general_pair_compare x y with
        | Some c -> c
        | None -> String.compare (string_of_atomic x) (string_of_atomic y))
    in
    let rec cmp_keys ks1 ks2 =
      match (ks1, ks2) with
      | [], [] -> 0
      | (a, dir) :: r1, (b, _) :: r2 ->
        let c = cmp_atomic a b in
        let c = match dir with Ast.Ascending -> c | Ast.Descending -> -c in
        if c <> 0 then c else cmp_keys r1 r2
      | _ -> 0
    in
    let sorted = List.stable_sort (fun (k1, _) (k2, _) -> cmp_keys k1 k2) keyed in
    Seq.concat_map
      (fun (_, ctx') -> eval_flwor ctx' after ret)
      (List.to_seq sorted)

(* ---- binary operators ----------------------------------------------------------- *)

and eval_binop ctx op a b : item Seq.t =
  match op with
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Idiv | Ast.Mod -> (
    match
      (singleton_atomic ctx (eval ctx a), singleton_atomic ctx (eval ctx b))
    with
    | Some x, Some y -> Seq.return (A (numeric_binop op x y))
    | _ -> Seq.empty)
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
    match
      (singleton_atomic ctx (eval ctx a), singleton_atomic ctx (eval ctx b))
    with
    | Some x, Some y when nan_pair x y ->
      (* IEEE 754: every ordered comparison with NaN is false; 'ne' is
         not(eq), so it alone is true *)
      Seq.return (A (ABool (op = Ast.Ne)))
    | Some x, Some y -> (
      match value_compare x y with
      | None ->
        type_error "values %S and %S are not comparable" (string_of_atomic x)
          (string_of_atomic y)
      | Some c ->
        let r =
          match op with
          | Ast.Eq -> c = 0
          | Ast.Ne -> c <> 0
          | Ast.Lt -> c < 0
          | Ast.Le -> c <= 0
          | Ast.Gt -> c > 0
          | Ast.Ge -> c >= 0
          | _ -> assert false
        in
        Seq.return (A (ABool r)))
    | _ -> Seq.empty)
  | Ast.Gen_eq | Ast.Gen_ne | Ast.Gen_lt | Ast.Gen_le | Ast.Gen_gt | Ast.Gen_ge ->
    let xs = List.of_seq (Seq.map (atomize ctx.st) (eval ctx a)) in
    let ys = List.of_seq (Seq.map (atomize ctx.st) (eval ctx b)) in
    Seq.return
      (A (ABool (List.exists (fun x -> List.exists (general_holds op x) ys) xs)))
  | Ast.Is | Ast.Precedes | Ast.Follows -> (
    let node_of e' =
      match (eval ctx e') () with
      | Seq.Nil -> None
      | Seq.Cons (N n, _) -> Some n
      | Seq.Cons (A _, _) -> type_error "node comparison over atomic values"
    in
    match (node_of a, node_of b) with
    | Some x, Some y ->
      let r =
        match op with
        | Ast.Is -> is_same_node ctx.st x y
        | Ast.Precedes -> node_compare ctx.st x y < 0
        | Ast.Follows -> node_compare ctx.st x y > 0
        | _ -> assert false
      in
      Seq.return (A (ABool r))
    | _ -> Seq.empty)
  | Ast.Union ->
    ddo ctx (Seq.append (eval ctx a) (eval ctx b))
  | Ast.Intersect ->
    let ys = List.of_seq (eval ctx b) in
    let mem n =
      List.exists
        (function N m -> is_same_node ctx.st n m | A _ -> false)
        ys
    in
    ddo ctx
      (Seq.filter (function N n -> mem n | A _ -> false) (eval ctx a))
  | Ast.Except ->
    let ys = List.of_seq (eval ctx b) in
    let mem n =
      List.exists
        (function N m -> is_same_node ctx.st n m | A _ -> false)
        ys
    in
    ddo ctx
      (Seq.filter (function N n -> not (mem n) | A _ -> true) (eval ctx a))

(* ---- constructors ------------------------------------------------------------------ *)

and build_element ctx (name : Xname.t) (atts : Ast.attr_constr list)
    (content : Ast.expr list) : tnode =
  let t = new_tnode ~kind:Catalog.Element ~name:(Some name) ~value:"" in
  let att_nodes =
    List.map
      (fun (a : Ast.attr_constr) ->
        let v =
          String.concat ""
            (List.map
               (fun part ->
                 match part with
                 | Ast.Str_lit s -> s
                 | e' ->
                   String.concat " "
                     (List.map (item_string ctx.st) (List.of_seq (eval ctx e'))))
               a.Ast.attr_value)
        in
        let an =
          new_tnode ~kind:Catalog.Attribute ~name:(Some a.Ast.attr_name) ~value:v
        in
        an.t_parent <- Some t;
        Temp an)
      atts
  in
  t.t_children <- att_nodes;
  (* literal text parts join without separators; atomics within ONE
     enclosed expression are space-separated (XQuery 3.7.1.3) *)
  List.iter
    (fun part ->
      match part with
      | Ast.Str_lit s -> append_literal_text t s
      | e' -> fill_content ctx t (eval ctx e'))
    content;
  t

(* merge literal text with a preceding text node, never adding spaces *)
and append_literal_text (t : tnode) (s : string) : unit =
  match List.rev t.t_children with
  | Temp last :: _ when last.t_kind = Catalog.Text ->
    last.t_value <- last.t_value ^ s
  | _ ->
    let tx = new_tnode ~kind:Catalog.Text ~name:None ~value:s in
    tx.t_parent <- Some t;
    t.t_children <- t.t_children @ [ Temp tx ]

(* Append evaluated content items to a constructed element, applying
   the §5.2.1 copy rules: adjacent atomics join into one text node;
   stored nodes are deep-copied unless the constructor is virtual;
   freshly constructed (parentless) temp nodes are adopted directly —
   the "embedded constructors" optimization. *)
and fill_content ctx (t : tnode) (items : item Seq.t) : unit =
  let pending = Buffer.create 16 in
  let have_pending = ref false in
  let flush () =
    if !have_pending then begin
      let tx = new_tnode ~kind:Catalog.Text ~name:None ~value:(Buffer.contents pending) in
      tx.t_parent <- Some t;
      t.t_children <- t.t_children @ [ Temp tx ];
      Buffer.clear pending;
      have_pending := false
    end
  in
  Seq.iter
    (fun it ->
      match it with
      | A a ->
        if !have_pending then Buffer.add_char pending ' ';
        Buffer.add_string pending (string_of_atomic a);
        have_pending := true
      | N (Stored d) ->
        flush ();
        if ctx.virtual_ok then begin
          Counters.bump "constructor.virtual";
          t.t_children <- t.t_children @ [ Stored d ]
        end
        else begin
          let c = deep_copy_stored ctx.st d in
          c.t_parent <- Some t;
          t.t_children <- t.t_children @ [ Temp c ]
        end
      | N (Temp src) ->
        flush ();
        if src.t_parent = None then begin
          (* embedded constructor: set the parent, no copy *)
          Counters.bump "constructor.embedded";
          src.t_parent <- Some t;
          t.t_children <- t.t_children @ [ Temp src ]
        end
        else begin
          let c = deep_copy_temp src in
          c.t_parent <- Some t;
          t.t_children <- t.t_children @ [ Temp c ]
        end)
    items;
  flush ()

(* ---- function calls ------------------------------------------------------------------ *)

and eval_call ctx (n : Xname.t) (args : Ast.expr list) : item Seq.t =
  let local = Xname.local n in
  (* user-declared functions shadow nothing: builtin names win *)
  match (local, args) with
  | "doc", [ a ] | "document", [ a ] -> (
    match singleton_atomic ctx (eval ctx a) with
    | Some name ->
      let doc = Catalog.get_document ctx.st.Store.cat (string_of_atomic name) in
      Seq.return (N (Stored (Indirection.get ctx.st.Store.bm doc.Catalog.doc_indir)))
    | None -> Seq.empty)
  | "doc-available", [ a ] -> (
    match singleton_atomic ctx (eval ctx a) with
    | Some name ->
      Seq.return
        (A (ABool (Catalog.find_document ctx.st.Store.cat (string_of_atomic name) <> None)))
    | None -> Seq.return (A (ABool false)))
  | "collection", [ a ] -> (
    match singleton_atomic ctx (eval ctx a) with
    | Some name ->
      let docs =
        Catalog.collection_documents ctx.st.Store.cat (string_of_atomic name)
      in
      List.to_seq docs
      |> Seq.map (fun d ->
             let doc = Catalog.get_document ctx.st.Store.cat d in
             N (Stored (Indirection.get ctx.st.Store.bm doc.Catalog.doc_indir)))
    | None -> Seq.empty)
  | "root", [] | "root", [ _ ] ->
    let n0 =
      match args with
      | [] -> context_node ctx
      | [ a ] -> (
        match (eval ctx a) () with
        | Seq.Cons (N n, _) -> n
        | _ -> type_error "fn:root needs a node")
      | _ -> assert false
    in
    let rec up n =
      match node_parent ctx.st n with None -> n | Some p -> up p
    in
    Seq.return (N (up n0))
  | "count", [ a ] ->
    Seq.return (A (AInt (Seq.length (eval ctx a))))
  | "empty", [ a ] -> Seq.return (A (ABool (Seq.is_empty (eval ctx a))))
  | "exists", [ a ] -> Seq.return (A (ABool (not (Seq.is_empty (eval ctx a)))))
  | "boolean", [ a ] -> Seq.return (A (ABool (ebv ctx.st (eval ctx a))))
  | "true", [] -> Seq.return (A (ABool true))
  | "false", [] -> Seq.return (A (ABool false))
  | ("sum" | "avg" | "min" | "max"), [ a ] -> eval_aggregate ctx local a
  | "string", [] -> Seq.return (A (AStr (item_string ctx.st (context_item ctx))))
  | "string", [ a ] -> (
    match (eval ctx a) () with
    | Seq.Nil -> Seq.return (A (AStr ""))
    | Seq.Cons (x, _) -> Seq.return (A (AStr (item_string ctx.st x))))
  | "data", [ a ] -> Seq.map (fun i -> A (atomize ctx.st i)) (eval ctx a)
  | "number", [] ->
    Seq.return (A (ADbl (float_of_atomic (atomize ctx.st (context_item ctx)))))
  | "number", [ a ] -> (
    match singleton_atomic ctx (eval ctx a) with
    | Some x -> Seq.return (A (ADbl (float_of_atomic x)))
    | None -> Seq.return (A (ADbl Float.nan)))
  | "string-length", _ ->
    let s =
      match args with
      | [] -> item_string ctx.st (context_item ctx)
      | [ a ] -> (
        match (eval ctx a) () with
        | Seq.Nil -> ""
        | Seq.Cons (x, _) -> item_string ctx.st x)
      | _ -> assert false
    in
    Seq.return (A (AInt (String.length s)))
  | "normalize-space", _ ->
    let s =
      match args with
      | [] -> item_string ctx.st (context_item ctx)
      | [ a ] -> (
        match (eval ctx a) () with
        | Seq.Nil -> ""
        | Seq.Cons (x, _) -> item_string ctx.st x)
      | _ -> assert false
    in
    let parts =
      String.split_on_char ' ' (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s)
      |> List.filter (fun p -> p <> "")
    in
    Seq.return (A (AStr (String.concat " " parts)))
  | "upper-case", [ a ] ->
    Seq.return (A (AStr (String.uppercase_ascii (arg_string ctx a))))
  | "lower-case", [ a ] ->
    Seq.return (A (AStr (String.lowercase_ascii (arg_string ctx a))))
  | "concat", args when List.length args >= 2 ->
    Seq.return
      (A (AStr (String.concat "" (List.map (fun a -> arg_string ctx a) args))))
  | "contains", [ a; b ] ->
    let hay = arg_string ctx a and needle = arg_string ctx b in
    Seq.return (A (ABool (contains_sub hay needle)))
  | "starts-with", [ a; b ] ->
    let hay = arg_string ctx a and p = arg_string ctx b in
    Seq.return
      (A (ABool (String.length hay >= String.length p && String.sub hay 0 (String.length p) = p)))
  | "ends-with", [ a; b ] ->
    let hay = arg_string ctx a and p = arg_string ctx b in
    let lh = String.length hay and lp = String.length p in
    Seq.return (A (ABool (lh >= lp && String.sub hay (lh - lp) lp = p)))
  | "substring", [ a; b ] ->
    let s = arg_string ctx a in
    let start = int_of_float (arg_number ctx b) in
    let i = max 0 (start - 1) in
    let r = if i >= String.length s then "" else String.sub s i (String.length s - i) in
    Seq.return (A (AStr r))
  | "substring", [ a; b; c ] ->
    let s = arg_string ctx a in
    let start = int_of_float (arg_number ctx b) in
    let len = int_of_float (arg_number ctx c) in
    let i = max 0 (start - 1) in
    let j = min (String.length s) (max 0 (start - 1 + len)) in
    let r = if i >= j then "" else String.sub s i (j - i) in
    Seq.return (A (AStr r))
  | "substring-before", [ a; b ] ->
    let s = arg_string ctx a and m = arg_string ctx b in
    Seq.return
      (A (AStr (match find_sub s m with Some i -> String.sub s 0 i | None -> "")))
  | "substring-after", [ a; b ] ->
    let s = arg_string ctx a and m = arg_string ctx b in
    Seq.return
      (A (AStr
            (match find_sub s m with
             | Some i ->
               String.sub s (i + String.length m) (String.length s - i - String.length m)
             | None -> "")))
  | "string-join", [ a; b ] ->
    let parts = List.map (item_string ctx.st) (List.of_seq (eval ctx a)) in
    Seq.return (A (AStr (String.concat (arg_string ctx b) parts)))
  | "translate", [ a; b; c ] ->
    let s = arg_string ctx a and from = arg_string ctx b and to_ = arg_string ctx c in
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun ch ->
        match String.index_opt from ch with
        | Some i -> if i < String.length to_ then Buffer.add_char buf to_.[i]
        | None -> Buffer.add_char buf ch)
      s;
    Seq.return (A (AStr (Buffer.contents buf)))
  | "position", [] -> Seq.return (A (AInt ctx.pos))
  | "last", [] -> Seq.return (A (AInt (Lazy.force ctx.size)))
  | ("name" | "local-name" | "namespace-uri"), _ ->
    let node =
      match args with
      | [] -> Some (context_node ctx)
      | [ a ] -> (
        match (eval ctx a) () with
        | Seq.Nil -> None
        | Seq.Cons (N n, _) -> Some n
        | Seq.Cons (A _, _) -> type_error "fn:%s needs a node" local)
      | _ -> assert false
    in
    let s =
      match node with
      | None -> ""
      | Some n -> (
        match node_name ctx.st n with
        | None -> ""
        | Some nm -> (
          match local with
          | "name" -> Xname.to_string nm
          | "local-name" -> Xname.local nm
          | _ -> Xname.uri nm))
    in
    Seq.return (A (AStr s))
  | "node-name", [ a ] -> (
    match (eval ctx a) () with
    | Seq.Cons (N n, _) -> (
      match node_name ctx.st n with
      | Some nm -> Seq.return (A (AStr (Xname.to_string nm)))
      | None -> Seq.empty)
    | _ -> Seq.empty)
  | "distinct-values", [ a ] ->
    let seen = Hashtbl.create 16 in
    Seq.filter_map
      (fun i ->
        let a' = atomize ctx.st i in
        let key =
          match a' with
          | AInt v -> "n" ^ string_of_float (float_of_int v)
          | ADbl v -> "n" ^ string_of_float v
          | ABool b -> "b" ^ string_of_bool b
          | AStr s | AUntyped s -> "s" ^ s
        in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some (A a')
        end)
      (eval ctx a)
  | "reverse", [ a ] -> List.to_seq (List.rev (List.of_seq (eval ctx a)))
  | "subsequence", [ a; b ] ->
    let start = int_of_float (arg_number ctx b) in
    Seq.mapi (fun i it -> (i + 1, it)) (eval ctx a)
    |> Seq.filter_map (fun (i, it) -> if i >= start then Some it else None)
  | "subsequence", [ a; b; c ] ->
    let start = int_of_float (arg_number ctx b) in
    let len = int_of_float (arg_number ctx c) in
    Seq.mapi (fun i it -> (i + 1, it)) (eval ctx a)
    |> Seq.filter_map (fun (i, it) ->
           if i >= start && i < start + len then Some it else None)
  | "insert-before", [ a; b; c ] ->
    let lst = List.of_seq (eval ctx a) in
    let pos = max 1 (int_of_float (arg_number ctx b)) in
    let ins = List.of_seq (eval ctx c) in
    let rec go i = function
      | [] -> ins
      | x :: rest -> if i = pos then ins @ (x :: rest) else x :: go (i + 1) rest
    in
    List.to_seq (go 1 lst)
  | "remove", [ a; b ] ->
    let pos = int_of_float (arg_number ctx b) in
    Seq.mapi (fun i it -> (i + 1, it)) (eval ctx a)
    |> Seq.filter_map (fun (i, it) -> if i = pos then None else Some it)
  | "index-of", [ a; b ] -> (
    match singleton_atomic ctx (eval ctx b) with
    | None -> Seq.empty
    | Some target ->
      Seq.mapi (fun i it -> (i + 1, atomize ctx.st it)) (eval ctx a)
      |> Seq.filter_map (fun (i, a') ->
             match general_pair_compare a' target with
             | Some 0 -> Some (A (AInt i))
             | _ -> None))
  | "floor", [ a ] -> Seq.return (A (ADbl (Float.floor (arg_number ctx a))))
  | "ceiling", [ a ] -> Seq.return (A (ADbl (Float.ceil (arg_number ctx a))))
  | "round", [ a ] -> Seq.return (A (ADbl (Float.round (arg_number ctx a))))
  | "abs", [ a ] -> Seq.return (A (ADbl (Float.abs (arg_number ctx a))))
  | "zero-or-one", [ a ] ->
    let lst = List.of_seq (eval ctx a) in
    if List.length lst > 1 then type_error "fn:zero-or-one got %d items" (List.length lst)
    else List.to_seq lst
  | "exactly-one", [ a ] ->
    let lst = List.of_seq (eval ctx a) in
    if List.length lst <> 1 then type_error "fn:exactly-one got %d items" (List.length lst)
    else List.to_seq lst
  | "one-or-more", [ a ] ->
    let lst = List.of_seq (eval ctx a) in
    if lst = [] then type_error "fn:one-or-more got an empty sequence"
    else List.to_seq lst
  | "matches", [ a; b ] ->
    Seq.return
      (A (ABool (Rx.matches ~pattern:(arg_string ctx b) (arg_string ctx a))))
  | "replace", [ a; b; c ] ->
    Seq.return
      (A (AStr
            (Rx.replace ~pattern:(arg_string ctx b)
               ~replacement:(arg_string ctx c) (arg_string ctx a))))
  | "tokenize", [ a; b ] ->
    List.to_seq
      (List.map
         (fun s -> A (AStr s))
         (Rx.tokenize ~pattern:(arg_string ctx b) (arg_string ctx a)))
  | "deep-equal", [ a; b ] ->
    let sa = serialize ctx.st (eval ctx a) and sb = serialize ctx.st (eval ctx b) in
    Seq.return (A (ABool (String.equal sa sb)))
  | "index-scan", args -> eval_index_scan ctx args
  | "statistics", [] ->
    (* Sedna extension: database statistics as XML *)
    let cat = ctx.st.Store.cat in
    let attr name v =
      let a = new_tnode ~kind:Catalog.Attribute ~name:(Some (Xname.make name)) ~value:v in
      a
    in
    let root = new_tnode ~kind:Catalog.Element ~name:(Some (Xname.make "statistics")) ~value:"" in
    let docs =
      Catalog.document_names cat
      |> List.map (fun name ->
             let doc = Catalog.get_document cat name in
             let sroot = Catalog.snode_by_id cat doc.Catalog.schema_root_id in
             let all = sroot :: Catalog.schema_descendants sroot in
             let nodes =
               List.fold_left (fun a s -> a + s.Catalog.node_count) 0 all
             in
             let blocks =
               List.fold_left (fun a s -> a + s.Catalog.block_count) 0 all
             in
             let d =
               new_tnode ~kind:Catalog.Element
                 ~name:(Some (Xname.make "document")) ~value:""
             in
             let atts =
               [ attr "name" name;
                 attr "nodes" (string_of_int nodes);
                 attr "blocks" (string_of_int blocks);
                 attr "schema-nodes" (string_of_int (List.length all)) ]
             in
             List.iter (fun a -> a.t_parent <- Some d) atts;
             d.t_children <- List.map (fun a -> Temp a) atts;
             d.t_parent <- Some root;
             Temp d)
    in
    let idx =
      Hashtbl.fold
        (fun _ (def : Catalog.index_def) acc ->
          let d =
            new_tnode ~kind:Catalog.Element ~name:(Some (Xname.make "index"))
              ~value:""
          in
          let atts =
            [ attr "name" def.Catalog.idx_name; attr "document" def.Catalog.idx_doc ]
          in
          List.iter (fun a -> a.t_parent <- Some d) atts;
          d.t_children <- List.map (fun a -> Temp a) atts;
          d.t_parent <- Some root;
          Temp d :: acc)
        cat.Catalog.indexes []
    in
    root.t_children <- docs @ idx;
    Seq.return (N (Temp root))
  | "schema", [ a ] -> (
    (* Sedna extension: the document's descriptive schema as XML *)
    match singleton_atomic ctx (eval ctx a) with
    | None -> Seq.empty
    | Some name ->
      let doc =
        Catalog.get_document ctx.st.Store.cat (string_of_atomic name)
      in
      let rec tnode_of (s : Catalog.snode) : tnode =
        let t =
          new_tnode ~kind:Catalog.Element
            ~name:(Some (Xname.make (Catalog.kind_name s.Catalog.kind)))
            ~value:""
        in
        let atts =
          (match s.Catalog.name with
           | Some n ->
             [ new_tnode ~kind:Catalog.Attribute ~name:(Some (Xname.make "name"))
                 ~value:(Xname.to_string n) ]
           | None -> [])
          @ [ new_tnode ~kind:Catalog.Attribute
                ~name:(Some (Xname.make "count"))
                ~value:(string_of_int s.Catalog.node_count);
              new_tnode ~kind:Catalog.Attribute
                ~name:(Some (Xname.make "blocks"))
                ~value:(string_of_int s.Catalog.block_count) ]
        in
        List.iter (fun a' -> a'.t_parent <- Some t) atts;
        let kids = List.map tnode_of s.Catalog.children in
        List.iter (fun k -> k.t_parent <- Some t) kids;
        t.t_children <-
          List.map (fun a' -> Temp a') atts @ List.map (fun k -> Temp k) kids;
        t
      in
      let root =
        Catalog.snode_by_id ctx.st.Store.cat doc.Catalog.schema_root_id
      in
      Seq.return (N (Temp (tnode_of root))))
  | _ -> (
    (* xs: constructor functions *)
    if Xname.prefix n = "xs" && List.length args = 1 then
      eval_cast ctx (List.hd args) ("xs:" ^ local)
    else
      (* user-declared function *)
      match List.assoc_opt local ctx.funcs with
      | Some f when List.length f.Ast.fn_params = List.length args ->
        let bound =
          List.map2 (fun p a -> (p, List.of_seq (eval ctx a))) f.Ast.fn_params args
        in
        eval { ctx with vars = bound @ ctx.vars; item = None } f.Ast.fn_body
      | _ ->
        Error.raise_error Error.Xquery_static "unknown function %s#%d"
          (Xname.to_string n) (List.length args))

and arg_string ctx (a : Ast.expr) : string =
  match (eval ctx a) () with
  | Seq.Nil -> ""
  | Seq.Cons (x, _) -> item_string ctx.st x

and arg_number ctx (a : Ast.expr) : float =
  match singleton_atomic ctx (eval ctx a) with
  | Some x -> float_of_atomic x
  | None -> Float.nan

and contains_sub hay needle =
  find_sub hay needle <> None

and find_sub hay needle : int option =
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 then Some 0
  else
    let rec go i =
      if i + nn > nh then None
      else if String.sub hay i nn = needle then Some i
      else go (i + 1)
    in
    go 0

and eval_aggregate ctx (which : string) (a : Ast.expr) : item Seq.t =
  let values = List.map (atomize ctx.st) (List.of_seq (eval ctx a)) in
  match values with
  | [] -> Seq.empty
  | _ -> (
    match which with
    | "sum" ->
      let s = List.fold_left (fun acc v -> acc +. float_of_atomic v) 0.0 values in
      if List.for_all (function AInt _ -> true | _ -> false) values then
        Seq.return (A (AInt (int_of_float s)))
      else Seq.return (A (ADbl s))
    | "avg" ->
      let s = List.fold_left (fun acc v -> acc +. float_of_atomic v) 0.0 values in
      Seq.return (A (ADbl (s /. float_of_int (List.length values))))
    | "min" | "max" ->
      let better =
        if which = "min" then fun c -> c < 0 else fun c -> c > 0
      in
      let all_numeric =
        List.for_all (fun v -> number_opt v <> None) values
      in
      let pick a b =
        let c =
          if all_numeric then compare (float_of_atomic a) (float_of_atomic b)
          else String.compare (string_of_atomic a) (string_of_atomic b)
        in
        if better c then a else b
      in
      let m = List.fold_left pick (List.hd values) (List.tl values) in
      let m = if all_numeric && not (List.for_all (function AInt _ -> true | _ -> false) values) then ADbl (float_of_atomic m) else m in
      Seq.return (A m)
    | _ -> assert false)

(* Sedna extension: index-scan("name", key [, "GE"|"LE"|"EQ"]) *)
and eval_index_scan ctx (args : Ast.expr list) : item Seq.t =
  match args with
  | name_e :: key_e :: rest ->
    let name =
      match singleton_atomic ctx (eval ctx name_e) with
      | Some a -> string_of_atomic a
      | None -> dynamic_error "index-scan needs an index name"
    in
    let def = Catalog.get_index ctx.st.Store.cat name in
    let mode =
      match rest with
      | [ m ] -> (
        match singleton_atomic ctx (eval ctx m) with
        | Some a -> String.uppercase_ascii (string_of_atomic a)
        | None -> "EQ")
      | _ -> "EQ"
    in
    (match mode with
     | "EQ" | "GE" | "LE" -> ()
     | m -> dynamic_error "index-scan: unknown mode %S (expected EQ, GE or LE)" m);
    let key = singleton_atomic ctx (eval ctx key_e) in
    let handles =
      match (def.Catalog.idx_kind, key) with
      | _, None -> []
      | Catalog.Number_index, Some k -> (
        let f = float_of_atomic k in
        if Float.is_nan f then []
        else
          match mode with
          | "GE" -> Index_mgr.range_number ctx.st def ~lo:f ()
          | "LE" -> Index_mgr.range_number ctx.st def ~hi:f ()
          | _ -> Index_mgr.lookup_number ctx.st def f)
      | Catalog.String_index, Some k -> (
        let s = string_of_atomic k in
        match mode with
        | "GE" -> Index_mgr.range_string ctx.st def ~lo:s ()
        | "LE" -> Index_mgr.range_string ctx.st def ~hi:s ()
        | _ -> Index_mgr.lookup_string ctx.st def s)
    in
    List.to_seq handles
    |> Seq.map (fun h -> N (Stored (Indirection.get ctx.st.Store.bm h)))
  | _ -> dynamic_error "index-scan needs at least 2 arguments"

(* ---- top-level entry -------------------------------------------------------------- *)

(* Fix the Flwor dispatch: route through eval_flwor so order-by works. *)
let eval_top (ctx : ctx) (e : Ast.expr) : item Seq.t = eval ctx e
