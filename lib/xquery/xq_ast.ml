(* Abstract syntax for the supported XQuery subset, the XUpdate
   extension and the data-definition statements.

   The tree doubles as the paper's "logical representation": the
   normalizer inserts explicit [Ddo] operations (distinct-document-
   order) after path steps, and the optimizing rewriter then removes
   the redundant ones and performs the other §5.1 rewrites. *)

open Sedna_util

type axis =
  | Child
  | Descendant
  | Descendant_or_self
  | Self
  | Parent
  | Ancestor
  | Ancestor_or_self
  | Following_sibling
  | Preceding_sibling
  | Following
  | Preceding
  | Attribute_axis

type node_test =
  | Name_test of Xname.t
  | Wildcard
  | Kind_any (* node() *)
  | Kind_text
  | Kind_comment
  | Kind_pi of string option
  | Kind_element of Xname.t option
  | Kind_attribute of Xname.t option
  | Kind_document

type binop =
  | Add | Sub | Mul | Div | Idiv | Mod
  (* value comparisons *)
  | Eq | Ne | Lt | Le | Gt | Ge
  (* general comparisons *)
  | Gen_eq | Gen_ne | Gen_lt | Gen_le | Gen_gt | Gen_ge
  (* node comparisons *)
  | Is | Precedes | Follows
  (* set operations *)
  | Union | Intersect | Except

type quantifier = Some_q | Every_q

type expr =
  | Int_lit of int
  | Dbl_lit of float
  | Str_lit of string
  | Empty_seq
  | Sequence of expr list (* comma operator *)
  | Range of expr * expr (* e1 to e2 *)
  | Var of string
  | Context_item
  | Binop of binop * expr * expr
  | Neg of expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr (* produced by the rewriter from fn:not *)
  | If of expr * expr * expr
  | Flwor of clause list * expr
  | Quantified of quantifier * (string * expr) list * expr
  | Path of expr * step list (* initial context expr, then steps *)
  | Filter of expr * expr list (* primary expression with predicates *)
  | Call of Xname.t * expr list
  | Elem_constr of Xname.t * attr_constr list * expr list
  | Comp_elem of expr * expr (* computed: element {name-expr} {content} *)
  | Comp_attr of expr * expr
  | Comp_text of expr
  | Comp_comment of expr
  | Comp_pi of expr * expr
  | Ddo of expr (* distinct-document-order, inserted by normalization *)
  | Ordered of expr
  | Unordered of expr
  | Schema_path of string * (axis * Xname.t) list
    (* structural location path resolved against the descriptive schema
       (rewriter §5.1.4): document name + descending name steps *)
  | Index_probe of index_probe
    (* physical plan node produced by the rewriter's automatic index
       selection: a selective value predicate over a structural path is
       answered from a B-tree value index instead of a block-chain scan *)
  | Chain_filter of chain_filter
    (* physical plan node of rule 4's predicate extension: a general
       comparison over a structural path is answered by scanning the
       key's schema-node block chain and merging the matching keys with
       the filtered nodes' chain *)
  | Virtual_constr of expr
    (* a constructor whose result is never navigated against identity /
       parent / order: may reference stored content instead of deep-
       copying it (rewriter §5.2.1) *)
  | Castable of expr * string
  | Cast of expr * string
  | Instance_of of expr * string
  | Treat_as of expr * string

and step = { axis : axis; test : node_test; preds : expr list }

and index_probe = {
  ip_index : string; (* index name in the catalog *)
  ip_doc : string; (* document the index covers (for lock inference) *)
  ip_mode : probe_mode;
  ip_key : expr; (* probe key; context-free by construction *)
  ip_residual : expr;
    (* the original predicate, re-applied to every candidate: filters
       index false positives and enforces strict bounds *)
  ip_fallback : expr;
    (* the unrewritten path, evaluated when the index is unusable at
       run time (dropped, or key of an incompatible atomic kind) *)
}

and chain_filter = {
  cf_doc : string;
  cf_path : (axis * Xname.t) list;
    (* descending name steps from the document node to the filtered
       node P, as in [Schema_path] *)
  cf_key : (axis * Xname.t) list;
    (* the key path K below P: [Child] element steps, optionally ending
       in one [Attribute_axis] step *)
  cf_op : binop; (* general comparison, the key on its left *)
  cf_value : expr; (* context-free, evaluated once *)
}

and probe_mode = Probe_eq | Probe_ge | Probe_le | Probe_gt | Probe_lt

and attr_constr = { attr_name : Xname.t; attr_value : expr list }
(* attribute value template: literal strings and enclosed expressions *)

and clause =
  | For of (string * string option * expr) list (* var, positional var, seq *)
  | Let of (string * expr) list
  | Where of expr
  | Order_by of (expr * order_dir) list

and order_dir = Ascending | Descending

type fun_def = {
  fn_name : Xname.t;
  fn_params : string list;
  fn_body : expr;
}

type prolog = {
  namespaces : (string * string) list;
  variables : (string * expr) list;
  functions : fun_def list;
  boundary_space_preserve : bool;
}

let empty_prolog =
  { namespaces = []; variables = []; functions = []; boundary_space_preserve = false }

(* ---- XUpdate statements (paper §3, syntax close to Lehti's XUpdate) *)

type update_stmt =
  | Insert_into of expr * expr (* source, target *)
  | Insert_preceding of expr * expr
  | Insert_following of expr * expr
  | Delete of expr
  | Delete_undeep of expr (* remove node, lift its children *)
  | Replace of string * expr * expr (* $var in target-expr with new-expr *)
  | Rename of expr * Xname.t

(* ---- data definition statements *)

type ddl_stmt =
  | Create_document of string
  | Create_document_in of string * string (* doc, collection *)
  | Drop_document of string
  | Create_collection of string
  | Drop_collection of string
  | Load_string of string * string (* xml text, doc name: LOAD inline *)
  | Load_file of string * string
  | Create_index of {
      ix_name : string;
      ix_doc : string;
      ix_on : string list; (* element path below root *)
      ix_by : string list; (* key path below indexed node *)
      ix_type : string; (* xs:string / xs:integer / xs:double *)
    }
  | Drop_index of string

type statement =
  | Query of prolog * expr
  | Update of prolog * update_stmt
  | Ddl of ddl_stmt

(* ---- the child structure, in one place ------------------------------ *)

(* Every analysis that only needs to reach subexpressions goes through
   [map] or [fold], so a constructor's children are listed here and
   nowhere else. *)

(* One-level structural map: [f] applied to each immediate
   subexpression, leaves returned unchanged. *)
let map (f : expr -> expr) (e : expr) : expr =
  match e with
  | Int_lit _ | Dbl_lit _ | Str_lit _ | Empty_seq | Context_item | Var _
  | Schema_path _ -> e
  | Index_probe p ->
    Index_probe
      {
        p with
        ip_key = f p.ip_key;
        ip_residual = f p.ip_residual;
        ip_fallback = f p.ip_fallback;
      }
  | Chain_filter c -> Chain_filter { c with cf_value = f c.cf_value }
  | Sequence es -> Sequence (List.map f es)
  | Range (a, b) -> Range (f a, f b)
  | Binop (op, a, b) -> Binop (op, f a, f b)
  | Neg a -> Neg (f a)
  | And (a, b) -> And (f a, f b)
  | Or (a, b) -> Or (f a, f b)
  | Not a -> Not (f a)
  | If (c, t, e') -> If (f c, f t, f e')
  | Call (n, args) -> Call (n, List.map f args)
  | Filter (p, preds) -> Filter (f p, List.map f preds)
  | Path (p, steps) ->
    Path (f p, List.map (fun s -> { s with preds = List.map f s.preds }) steps)
  | Elem_constr (n, atts, content) ->
    Elem_constr
      ( n,
        List.map (fun a -> { a with attr_value = List.map f a.attr_value }) atts,
        List.map f content )
  | Comp_elem (a, b) -> Comp_elem (f a, f b)
  | Comp_attr (a, b) -> Comp_attr (f a, f b)
  | Comp_text a -> Comp_text (f a)
  | Comp_comment a -> Comp_comment (f a)
  | Comp_pi (a, b) -> Comp_pi (f a, f b)
  | Ddo a -> Ddo (f a)
  | Ordered a -> Ordered (f a)
  | Unordered a -> Unordered (f a)
  | Virtual_constr a -> Virtual_constr (f a)
  | Castable (a, t) -> Castable (f a, t)
  | Cast (a, t) -> Cast (f a, t)
  | Instance_of (a, t) -> Instance_of (f a, t)
  | Treat_as (a, t) -> Treat_as (f a, t)
  | Quantified (q, binds, cond) ->
    Quantified (q, List.map (fun (v, e') -> (v, f e')) binds, f cond)
  | Flwor (clauses, ret) ->
    Flwor
      ( List.map
          (function
            | For binds -> For (List.map (fun (v, p, e') -> (v, p, f e')) binds)
            | Let binds -> Let (List.map (fun (v, e') -> (v, f e')) binds)
            | Where c -> Where (f c)
            | Order_by keys -> Order_by (List.map (fun (k, d) -> (f k, d)) keys))
          clauses,
        f ret )

(* Fold [f] over the immediate subexpressions in evaluation order: the
   children [map] visits, in the same order (step predicates after the
   path's input, attribute values before content, FLWOR clauses before
   the return). *)
let fold (f : 'a -> expr -> 'a) (acc : 'a) (e : expr) : 'a =
  let all acc es = List.fold_left f acc es in
  match e with
  | Int_lit _ | Dbl_lit _ | Str_lit _ | Empty_seq | Context_item | Var _
  | Schema_path _ -> acc
  | Index_probe p -> f (f (f acc p.ip_key) p.ip_residual) p.ip_fallback
  | Chain_filter c -> f acc c.cf_value
  | Sequence es | Call (_, es) -> all acc es
  | Range (a, b) | Binop (_, a, b) | And (a, b) | Or (a, b)
  | Comp_elem (a, b) | Comp_attr (a, b) | Comp_pi (a, b) -> f (f acc a) b
  | Neg a | Not a | Ddo a | Ordered a | Unordered a | Comp_text a
  | Comp_comment a | Virtual_constr a
  | Castable (a, _) | Cast (a, _) | Instance_of (a, _) | Treat_as (a, _) ->
    f acc a
  | If (c, t, e') -> f (f (f acc c) t) e'
  | Filter (p, preds) -> all (f acc p) preds
  | Path (p, steps) -> List.fold_left (fun acc s -> all acc s.preds) (f acc p) steps
  | Elem_constr (_, atts, content) ->
    all (List.fold_left (fun acc a -> all acc a.attr_value) acc atts) content
  | Quantified (_, binds, cond) ->
    f (List.fold_left (fun acc (_, e') -> f acc e') acc binds) cond
  | Flwor (clauses, ret) ->
    let clause acc = function
      | For binds -> List.fold_left (fun acc (_, _, e') -> f acc e') acc binds
      | Let binds -> List.fold_left (fun acc (_, e') -> f acc e') acc binds
      | Where c -> f acc c
      | Order_by keys -> List.fold_left (fun acc (k, _) -> f acc k) acc keys
    in
    f (List.fold_left clause acc clauses) ret

(* Does [p] hold for some immediate subexpression? *)
let exists (p : expr -> bool) (e : expr) : bool =
  fold (fun found sub -> found || p sub) false e

(* ---- helpers used across the compiler ------------------------------- *)

(* Variables referenced but not bound inside [e] (with repeats). *)
let free_vars (e : expr) : string list =
  let rec go bound acc e =
    match e with
    | Var v -> if List.mem v bound then acc else v :: acc
    | Quantified (_, binds, cond) ->
      let bound, acc =
        List.fold_left (fun ba (v, e') -> bind [ v ] ba e') (bound, acc) binds
      in
      go bound acc cond
    | Flwor (clauses, ret) ->
      (* a binding's expression sees the variables bound before it: by
         earlier clauses and by earlier bindings of its own clause *)
      let bound, acc =
        List.fold_left
          (fun (bound, acc) c ->
            match c with
            | For binds ->
              List.fold_left
                (fun ba (v, p, e') -> bind (v :: Option.to_list p) ba e')
                (bound, acc) binds
            | Let binds ->
              List.fold_left (fun ba (v, e') -> bind [ v ] ba e') (bound, acc) binds
            | Where c' -> (bound, go bound acc c')
            | Order_by keys ->
              (bound, List.fold_left (fun acc (k, _) -> go bound acc k) acc keys))
          (bound, acc) clauses
      in
      go bound acc ret
    | e -> fold (go bound) acc e
  and bind vs (bound, acc) e' = (vs @ bound, go bound acc e') in
  go [] [] e

let depends_on (e : expr) (vars : string list) =
  List.exists (fun v -> List.mem v vars) (free_vars e)
