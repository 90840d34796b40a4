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

(* ---- helpers used across the compiler ------------------------------- *)

let rec free_vars (e : expr) : string list =
  let ( @@@ ) a b = List.rev_append a b in
  match e with
  | Int_lit _ | Dbl_lit _ | Str_lit _ | Empty_seq | Context_item -> []
  | Var v -> [ v ]
  | Sequence es -> List.concat_map free_vars es
  | Range (a, b)
  | Binop (_, a, b)
  | And (a, b)
  | Or (a, b)
  | Comp_elem (a, b)
  | Comp_attr (a, b)
  | Comp_pi (a, b) -> free_vars a @@@ free_vars b
  | Neg a | Not a | Ddo a | Ordered a | Unordered a | Comp_text a
  | Comp_comment a | Virtual_constr a
  | Castable (a, _) | Cast (a, _) | Instance_of (a, _) | Treat_as (a, _) ->
    free_vars a
  | Schema_path _ -> []
  | Index_probe p ->
    free_vars p.ip_key @@@ free_vars p.ip_residual @@@ free_vars p.ip_fallback
  | Chain_filter c -> free_vars c.cf_value
  | If (c, t, e') -> free_vars c @@@ free_vars t @@@ free_vars e'
  | Call (_, args) -> List.concat_map free_vars args
  | Filter (p, preds) -> free_vars p @@@ List.concat_map free_vars preds
  | Path (p, steps) ->
    free_vars p
    @@@ List.concat_map (fun s -> List.concat_map free_vars s.preds) steps
  | Elem_constr (_, atts, content) ->
    List.concat_map (fun a -> List.concat_map free_vars a.attr_value) atts
    @@@ List.concat_map free_vars content
  | Quantified (_, binds, cond) ->
    let bound = List.map fst binds in
    (List.concat_map (fun (_, e') -> free_vars e') binds
     @@@ List.filter (fun v -> not (List.mem v bound)) (free_vars cond))
  | Flwor (clauses, ret) ->
    let rec go bound acc = function
      | [] ->
        acc @@@ List.filter (fun v -> not (List.mem v bound)) (free_vars ret)
      | For binds :: rest ->
        let acc =
          List.fold_left
            (fun acc (_, _, e') ->
              acc
              @@@ List.filter (fun v -> not (List.mem v bound)) (free_vars e'))
            acc binds
        in
        let bound =
          List.concat_map
            (fun (v, p, _) -> v :: Option.to_list p)
            binds
          @ bound
        in
        go bound acc rest
      | Let binds :: rest ->
        let acc =
          List.fold_left
            (fun acc (_, e') ->
              acc
              @@@ List.filter (fun v -> not (List.mem v bound)) (free_vars e'))
            acc binds
        in
        go (List.map fst binds @ bound) acc rest
      | Where c :: rest ->
        go bound
          (acc @@@ List.filter (fun v -> not (List.mem v bound)) (free_vars c))
          rest
      | Order_by keys :: rest ->
        go bound
          (acc
           @@@ List.concat_map
                 (fun (k, _) ->
                   List.filter (fun v -> not (List.mem v bound)) (free_vars k))
                 keys)
          rest
    in
    go [] [] clauses

let depends_on (e : expr) (vars : string list) =
  List.exists (fun v -> List.mem v vars) (free_vars e)
