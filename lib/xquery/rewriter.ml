(* The optimizing rewriter (paper §5.1, §5.2.1).  Rule-based rewrites
   over the logical operation tree:

   1. DDO insertion + removal (§5.1.1): normalization wraps every path
      in an explicit distinct-document-order operation; the rewriter
      then removes the ones whose argument is provably ordered and
      duplicate-free, and the ones whose consumer needs neither order
      nor duplicates (effective-boolean-value contexts).
   2. Abbreviated descendant-or-self combining (§5.1.2):
      [//para] becomes [/descendant::para] unless the next step's
      predicates depend on context position or size.
   3. Nested-for laziness (§5.1.3): a for-clause binding sequence that
      does not depend on the iteration variables bound before it is
      hoisted into a let-clause evaluated once.
   4. Structural path extraction (§5.1.4): paths from a document node
      consisting solely of descending name steps with no predicates map
      to schema-resolved scans executed against the descriptive schema.
      The rule extends into predicates: [doc("D")/s1/.../P[K op v]]
      with such steps up to P, a child-step key path K (optionally
      ending in one attribute step), a general comparison and a
      context-free [v] becomes a chain filter, which scans K's schema
      node block chain and merges the matching keys with P's chain
      instead of navigating from each P (path partitioning: the schema
      says which chains to scan).  An index covering the path wins
      (rule 7).
   5. Virtual element constructors (§5.2.1): constructors whose results
      are never navigated against identity/parent/order are marked
      virtual so the executor can avoid deep copies. *)

open Xq_ast

(* ---- position/size dependence (for //-combining and DDO in preds) ---- *)

let rec positional ~numeric (e : expr) : bool =
  match e with
  | Call (n, []) ->
    let l = Sedna_util.Xname.local n in
    l = "position" || l = "last"
  | Int_lit _ | Dbl_lit _ -> numeric (* numeric predicate = positional *)
  | e -> exists (positional ~numeric) e

let uses_position = positional ~numeric:true

(* Strict variant: only explicit position()/last() calls count, numeric
   literals do not. *)
let calls_position = positional ~numeric:false

(* A whole predicate is positional if it may depend on context position
   or size: numeric-valued predicates select by position.  A predicate
   whose top is a comparison or boolean connective is boolean-valued,
   so only explicit position()/last() calls inside can make it
   positional — numeric literals there are plain values ([n = 50]). *)
let predicate_is_positional (p : expr) =
  match p with
  | Int_lit _ | Dbl_lit _ -> true
  | Binop ((Add | Sub | Mul | Div | Idiv | Mod), _, _) -> true
  | Binop
      ( ( Eq | Ne | Lt | Le | Gt | Ge | Gen_eq | Gen_ne | Gen_lt | Gen_le
        | Gen_gt | Gen_ge ),
        a,
        b ) ->
    calls_position a || calls_position b
  | And (a, b) | Or (a, b) -> calls_position a || calls_position b
  | Not a -> calls_position a
  | _ -> uses_position p

(* ---- rule 2: descendant-or-self combining ----------------------------- *)

let rec combine_dos_steps (steps : step list) : step list =
  match steps with
  | { axis = Descendant_or_self; test = Kind_any; preds = [] }
    :: ({ axis = Child; test; preds } as _next) :: rest
    when not (List.exists predicate_is_positional preds) ->
    combine_dos_steps ({ axis = Descendant; test; preds } :: rest)
  | { axis = Descendant_or_self; test = Kind_any; preds = [] }
    :: ({ axis = Attribute_axis; test; preds } as _next) :: rest
    when not (List.exists predicate_is_positional preds) ->
    (* //@a: descendant-or-self::node()/attribute::a =
       descendant-or-self elements' attributes; keep the pair *)
    { axis = Descendant_or_self; test = Kind_any; preds = [] }
    :: { axis = Attribute_axis; test; preds }
    :: combine_dos_steps rest
  | s :: rest -> s :: combine_dos_steps rest
  | [] -> []

(* ---- rule 4: structural path extraction -------------------------------- *)

let doc_name_of_init (e : expr) : string option =
  match e with
  | Call (n, [ Str_lit d ])
    when let l = Sedna_util.Xname.local n in
         l = "doc" || l = "document" ->
    Some d
  | _ -> None

(* Leading structural steps: descending name steps without predicates. *)
let structural_prefix (steps : step list) :
    (axis * Sedna_util.Xname.t) list option =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | { axis = (Child | Descendant) as a; test = Name_test n; preds = [] }
      :: rest -> go ((a, n) :: acc) rest
    | _ -> None
  in
  go [] steps

let structural_steps steps = if steps = [] then None else structural_prefix steps

(* ---- ordered/dedup property analysis (rule 1) --------------------------- *)

type props = { in_ddo : bool; disjoint : bool; single : bool }

let atomic_props = { in_ddo = true; disjoint = true; single = true }

type venv = (string * props) list

let rec props_of (env : venv) (e : expr) : props =
  match e with
  | Int_lit _ | Dbl_lit _ | Str_lit _ | Empty_seq | Context_item ->
    atomic_props
  | Var v -> (
    match List.assoc_opt v env with
    | Some p -> p
    | None -> { in_ddo = false; disjoint = false; single = false })
  | Call (n, _) ->
    let l = Sedna_util.Xname.local n in
    if List.mem l [ "doc"; "document"; "root"; "exactly-one"; "zero-or-one" ]
    then atomic_props
    else { in_ddo = false; disjoint = false; single = false }
  | Ddo x ->
    let p = props_of env x in
    { in_ddo = true; disjoint = false; single = p.single }
  | Schema_path _ -> { in_ddo = true; disjoint = false; single = false }
  | Index_probe _ ->
    (* B-tree order, not document order; multi-key probes may duplicate *)
    { in_ddo = false; disjoint = false; single = false }
  | Chain_filter c ->
    (* nodes of one schema path are never nested in each other *)
    {
      in_ddo = true;
      disjoint = List.for_all (fun (a, _) -> a = Child) c.cf_path;
      single = false;
    }
  | Filter (p, _) -> props_of env p
  | Path (init, steps) ->
    let p0 = props_of env init in
    let state =
      if p0.single then { in_ddo = true; disjoint = true; single = true }
      else p0
    in
    List.fold_left
      (fun s (stp : step) ->
        match stp.axis with
        | Self -> s
        | Child | Attribute_axis ->
          { in_ddo = s.in_ddo && s.disjoint; disjoint = s.disjoint; single = false }
        | Descendant | Descendant_or_self ->
          { in_ddo = s.in_ddo && s.disjoint; disjoint = false; single = false }
        | Parent | Ancestor | Ancestor_or_self | Following_sibling
        | Preceding_sibling | Following | Preceding ->
          { in_ddo = false; disjoint = false; single = false })
      state steps
  | If (_, t, f) ->
    let a = props_of env t and b = props_of env f in
    {
      in_ddo = a.in_ddo && b.in_ddo;
      disjoint = a.disjoint && b.disjoint;
      single = a.single && b.single;
    }
  | Elem_constr _ | Comp_elem _ | Comp_attr _ | Comp_text _ | Comp_comment _
  | Comp_pi _ | Virtual_constr _ ->
    { in_ddo = true; disjoint = true; single = true }
  | Ordered x | Unordered x -> props_of env x
  | Neg _ | Not _ | And _ | Or _ | Binop _ | Range _ | Castable _ | Cast _
  | Instance_of _ | Treat_as _ ->
    { in_ddo = true; disjoint = true; single = true }
    (* scalar results *)
  | Sequence _ | Flwor _ | Quantified _ ->
    { in_ddo = false; disjoint = false; single = false }

(* ---- the main rewrite ----------------------------------------------------- *)

type need = Full | Ebv (* effective boolean value: order and dups ignored *)

(* Does [e] read the focus it is evaluated in?  Predicates, the steps
   of a path and an index probe's residual rebind the focus, so only
   their input counts. *)
let rec contains_context (e : expr) : bool =
  match e with
  | Context_item -> true
  | Filter (p, _) | Path (p, _) -> contains_context p
  | Index_probe p -> contains_context p.ip_key || contains_context p.ip_fallback
  | e -> exists contains_context e

let is_worth_hoisting (e : expr) : bool =
  (* hoisting a literal or a variable buys nothing *)
  match e with
  | Int_lit _ | Dbl_lit _ | Str_lit _ | Empty_seq | Var _ -> false
  | _ -> true

(* ---- normalization: insert DDO over paths -------------------------------- *)

let rec normalize (e : expr) : expr =
  let e' = map normalize e in
  match e with Path (_, _ :: _) -> Ddo e' | _ -> e'

(* ---- rule 5: virtual constructor marking ---------------------------------- *)

(* [in_output] = the value flows straight to the result (or into another
   constructor's content): identity/parent/order of the construct are
   unobservable, so stored content may be referenced instead of copied. *)
let rec mark_virtual ~in_output (e : expr) : expr =
  match e with
  | Elem_constr (n, atts, content) ->
    let c = Elem_constr (n, atts, List.map (mark_virtual ~in_output:true) content) in
    if in_output then Virtual_constr c else c
  | Comp_elem (a, b) ->
    let c = Comp_elem (a, mark_virtual ~in_output:true b) in
    if in_output then Virtual_constr c else c
  | Sequence es -> Sequence (List.map (mark_virtual ~in_output) es)
  | If (c, t, f) ->
    If (c, mark_virtual ~in_output t, mark_virtual ~in_output f)
  | Flwor (clauses, ret) -> Flwor (clauses, mark_virtual ~in_output ret)
  | Ddo a -> Ddo (mark_virtual ~in_output:false a)
  | e -> e

(* ---- rule 6: user-function inlining (paper §5.1, reference [11]) ----- *)

(* Replace calls to non-recursive prolog functions with a let-bound
   copy of their body: [local:f(E1, E2)] becomes
   [let $p1 := E1, $p2 := E2 return body].  Both evaluate the arguments
   eagerly, so the semantics are preserved; bodies that mention the
   context item are excluded (a function body has no context item, but
   an inlined copy would capture the caller's).  A let binds one
   variable after another, so when an argument mentions an earlier
   parameter's name (the caller's variable), the arguments are bound
   to fresh names first. *)

let rec calls_of acc (e : expr) : string list =
  let acc =
    match e with
    | Call (n, _) -> Sedna_util.Xname.local n :: acc
    | _ -> acc
  in
  fold calls_of acc e

let inline_functions (funs : fun_def list) (e : expr) : expr =
  (* a function is inlinable when it never reaches itself through the
     call graph and its body does not use the context item *)
  let by_name =
    List.map (fun f -> (Sedna_util.Xname.local f.fn_name, f)) funs
  in
  let rec reaches seen from target =
    List.mem target (List.sort_uniq compare (calls_from from))
    || List.exists
         (fun callee ->
           (not (List.mem callee seen))
           && List.mem_assoc callee by_name
           && reaches (callee :: seen) callee target)
         (calls_from from)
  and calls_from name =
    match List.assoc_opt name by_name with
    | Some f -> calls_of [] f.fn_body
    | None -> []
  in
  let inlinable name =
    match List.assoc_opt name by_name with
    | Some f ->
      (not (reaches [ name ] name name)) && not (contains_context f.fn_body)
    | None -> false
  in
  let fresh =
    let c = ref 0 in
    fun () ->
      incr c;
      Printf.sprintf "#arg%d" !c
  in
  let rec captures earlier = function
    | [] -> false
    | (p, arg) :: rest -> depends_on arg earlier || captures (p :: earlier) rest
  in
  let rec go depth e =
    if depth = 0 then e
    else
      match e with
      | Call (n, args) when inlinable (Sedna_util.Xname.local n) ->
        let f = List.assoc (Sedna_util.Xname.local n) by_name in
        let args = List.map (go depth) args in
        let body = go (depth - 1) f.fn_body in
        let binds = List.combine f.fn_params args in
        if binds = [] then body
        else if not (captures [] binds) then Flwor ([ Let binds ], body)
        else
          let tmps = List.map (fun arg -> (fresh (), arg)) args in
          Flwor
            ( [ Let tmps; Let (List.map2 (fun p (t, _) -> (p, Var t)) f.fn_params tmps) ],
              body )
      | e -> map (go depth) e
  in
  go 8 e

(* ---- options and entry point ------------------------------------------------ *)

type options = {
  remove_ddo : bool;
  combine_descendant : bool; (* //-combining *)
  extract_structural : bool;
  hoist_for : bool;
  virtual_constructors : bool;
  inline_functions : bool;
  use_indexes : bool; (* automatic index selection *)
  index_min_count : int;
    (* pushdown only when the candidate schema nodes together hold at
       least this many data nodes — below it a block-chain scan is
       cheaper than a B-tree descent *)
}

let default_options =
  {
    remove_ddo = true;
    combine_descendant = true;
    extract_structural = true;
    hoist_for = true;
    virtual_constructors = true;
    inline_functions = true;
    use_indexes = true;
    index_min_count = 16;
  }

let no_options =
  {
    remove_ddo = false;
    combine_descendant = false;
    extract_structural = false;
    hoist_for = false;
    virtual_constructors = false;
    inline_functions = false;
    use_indexes = false;
    index_min_count = 16;
  }

(* ---- value predicates over structural paths (rules 4 and 7) ------------- *)

(* The relative key path of a predicate side: child element name steps,
   optionally ending in an attribute step, with no predicates — the
   shape CREATE INDEX ... BY accepts. *)
let key_steps_of (e : expr) : (axis * Sedna_util.Xname.t) list option =
  match e with
  | Path (Context_item, steps) when steps <> [] ->
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | [ { axis = Attribute_axis; test = Kind_attribute (Some n); preds = [] } ]
        -> Some (List.rev ((Attribute_axis, n) :: acc))
      | { axis = Child; test = Name_test n; preds = [] } :: rest ->
        go ((Child, n) :: acc) rest
      | _ -> None
    in
    go [] steps
  | _ -> None

(* [v op k] holds exactly when [k (mirror op) v] does. *)
let mirror = function
  | Lt -> Gt | Gt -> Lt | Le -> Ge | Ge -> Le
  | Gen_lt -> Gen_gt | Gen_gt -> Gen_lt | Gen_le -> Gen_ge | Gen_ge -> Gen_le
  | op -> op

(* [doc("D")/s1/.../P[K op v]/suffix], matched once for both rules. *)
type value_predicate = {
  vp_doc : string;
  vp_path : (axis * Sedna_util.Xname.t) list; (* structural steps to P *)
  vp_steps : step list; (* the same steps, P's predicate included *)
  vp_suffix : step list;
  vp_pred : expr;
  vp_key : (axis * Sedna_util.Xname.t) list;
  vp_op : binop; (* the key on the left *)
  vp_value : expr; (* context-free, no position()/last() *)
}

(* Fires when the path starts at doc("D") with descending predicate-free
   name steps up to the first step that carries predicates, and that
   step is a name step carrying exactly one predicate: a comparison
   between a relative key path and a context-free value expression. *)
let match_value_predicate (init : expr) (steps : step list) :
    value_predicate option =
  (* split at the first step carrying predicates *)
  let rec split acc = function
    | [] -> None
    | ({ preds = []; _ } as s) :: rest -> split (s :: acc) rest
    | s :: rest -> Some (List.rev acc, s, rest)
  in
  match (doc_name_of_init init, split [] steps) with
  | ( Some doc,
      Some
        ( prefix_steps,
          ({ axis = (Child | Descendant) as p_axis;
             test = Name_test p_name;
             preds = [ (Binop (op, lhs, rhs) as pred) ];
           } as p_step),
          suffix ) ) -> (
    let pick key_side value_side =
      match key_steps_of key_side with
      | Some key
        when (not (contains_context value_side))
             && not (calls_position value_side) ->
        Some (key, value_side)
      | _ -> None
    in
    let oriented =
      match pick lhs rhs with
      | Some (key, v) -> Some (key, op, v)
      | None -> Option.map (fun (key, v) -> (key, mirror op, v)) (pick rhs lhs)
    in
    match (oriented, structural_prefix prefix_steps) with
    | Some (key, op, value), Some prefix ->
      Some
        {
          vp_doc = doc;
          vp_path = prefix @ [ (p_axis, p_name) ];
          vp_steps = prefix_steps @ [ p_step ];
          vp_suffix = suffix;
          vp_pred = pred;
          vp_key = key;
          vp_op = op;
          vp_value = value;
        }
    | _ -> None)
  | _ -> None

let with_suffix (vp : value_predicate) (e : expr) =
  if vp.vp_suffix = [] then e else Path (e, vp.vp_suffix)

(* ---- rule 4, extended: value predicates on schema chains ------------------ *)

(* A general comparison over a matched value predicate becomes a chain
   filter. *)
let chain_filter_of (vp : value_predicate) : expr option =
  match vp.vp_op with
  | Gen_eq | Gen_ne | Gen_lt | Gen_le | Gen_gt | Gen_ge ->
    Some
      (with_suffix vp
         (Chain_filter
            {
              cf_doc = vp.vp_doc;
              cf_path = vp.vp_path;
              cf_key = vp.vp_key;
              cf_op = vp.vp_op;
              cf_value = vp.vp_value;
            }))
  | _ -> None

(* ---- rule 7: automatic index selection ---------------------------------- *)

(* A comparison predicate [path op key] maps to a B-tree probe mode. *)
let probe_mode_of (op : binop) : probe_mode option =
  match op with
  | Eq | Gen_eq -> Some Probe_eq
  | Ge | Gen_ge -> Some Probe_ge
  | Gt | Gen_gt -> Some Probe_gt
  | Le | Gen_le -> Some Probe_le
  | Lt | Gen_lt -> Some Probe_lt
  | _ -> None

(* Numeric comparisons adapt untyped values by parsing them as numbers,
   with NaN for non-numeric text — and NaN compares below every number,
   so [path <= k] holds for non-numeric values that a number index does
   not contain.  Only the modes whose scan semantics agree with the
   index contents are pushed down per key kind. *)
let mode_fits_kind (kind : Sedna_core.Catalog.index_kind) (mode : probe_mode) =
  match kind with
  | Sedna_core.Catalog.String_index -> true
  | Sedna_core.Catalog.Number_index -> (
    match mode with
    | Probe_eq | Probe_ge | Probe_gt -> true
    | Probe_le | Probe_lt -> false)

(* The key path as CREATE INDEX ... BY spells it. *)
let key_path_names key =
  List.map
    (fun (a, n) ->
      let l = Sedna_util.Xname.local n in
      if a = Attribute_axis then "@" ^ l else l)
    key

(* Try to answer a matched value predicate from an index.  Fires when
   the schema nodes the path reaches at P hold enough data nodes for
   pushdown to pay (cardinality gate on [Catalog.node_count]), and some
   index on D covers exactly those schema nodes with the same key path
   and a kind compatible with the comparison's probe mode.  Steps after
   P are re-applied on top of the probe.  The original predicate is
   kept as a residual filter, and the unrewritten path as a runtime
   fallback, so the probe is always semantically safe. *)
let try_index_rewrite (cat : Sedna_core.Catalog.t) (opts : options)
    (init : expr) (vp : value_predicate) : expr option =
  let module C = Sedna_core.Catalog in
  match (probe_mode_of vp.vp_op, C.find_document cat vp.vp_doc) with
  | Some mode, Some d ->
    let root = C.snode_by_id cat d.C.schema_root_id in
    let qset =
      C.resolve_steps cat ~root
        (List.map (fun (a, n) -> (a = Descendant, n)) vp.vp_path)
    in
    let total = List.fold_left (fun a (s : C.snode) -> a + s.C.node_count) 0 qset in
    if qset = [] || total < opts.index_min_count then None
    else
      let key_path = key_path_names vp.vp_key in
      let qids = List.map (fun (s : C.snode) -> s.C.id) qset in
      C.indexes_for_document cat vp.vp_doc
      |> List.find_map (fun (def : C.index_def) ->
             if
               def.C.idx_key_path = key_path
               && mode_fits_kind def.C.idx_kind mode
               && List.map (fun (s : C.snode) -> s.C.id) (C.index_target_snodes cat def)
                  = qids
             then
               Some
                 (with_suffix vp
                    (Index_probe
                       {
                         ip_index = def.C.idx_name;
                         ip_doc = vp.vp_doc;
                         ip_mode = mode;
                         ip_key = vp.vp_value;
                         ip_residual = vp.vp_pred;
                         ip_fallback = Path (init, vp.vp_steps);
                       }))
             else None)
  | _ -> None

(* A rewrite pass with rules disabled replaces the corresponding
   transformation with identity; normalization (DDO insertion) always
   runs so that un-optimized plans carry their DDO operations.
   [catalog] enables automatic index selection (rule 7): without it the
   rewriter has no index definitions or cardinalities to consult. *)
let rewrite_with ?catalog (opts : options) (e : expr) : expr =
  let e = normalize e in
  (* The main pass is monolithic; options gate each rule inside. *)
  let rec gated env need e =
    match e with
    | Ddo x ->
      let x' = gated env Full x in
      if not opts.remove_ddo then Ddo x'
      else if need = Ebv then x'
      else if (props_of env x').in_ddo then x'
      else Ddo x'
    | Path (init, steps) ->
      let init' = gated env Full init in
      let steps =
        if opts.combine_descendant then combine_dos_steps steps else steps
      in
      let steps =
        List.map
          (fun s ->
            { s with
              preds =
                List.map
                  (fun p ->
                    if predicate_is_positional p then gated env Full p
                    else gated env Ebv p)
                  s.preds })
          steps
      in
      let vp = match_value_predicate init' steps in
      let indexed =
        match (catalog, vp) with
        | Some cat, Some vp when opts.use_indexes -> try_index_rewrite cat opts init' vp
        | _ -> None
      in
      (match indexed with
       | Some probe -> probe
       | None -> (
         if not opts.extract_structural then Path (init', steps)
         else
           match (doc_name_of_init init', structural_steps steps) with
           | Some doc, Some named -> Schema_path (doc, named)
           | _ -> (
             match Option.bind vp chain_filter_of with
             | Some filter -> filter
             | None -> Path (init', steps))))
    | Flwor (clauses0, ret) ->
      let clauses =
        if not opts.hoist_for then clauses0
        else begin
          let fresh =
            let c = ref 0 in
            fun () ->
              incr c;
              Printf.sprintf "#lazy%d" !c
          in
          (* a binding sees the bindings before it, those of its own
             clause included *)
          let rec hoist bound acc hoisted = function
            | [] -> (List.rev acc, List.rev hoisted)
            | For binds :: rest ->
              let bound, binds', new_hoists =
                List.fold_left
                  (fun (bound, bs, hs) (v, p, e') ->
                    let bound' = (v :: Option.to_list p) @ bound in
                    if
                      bound <> []
                      && (not (depends_on e' bound))
                      && (not (contains_context e'))
                      && is_worth_hoisting e'
                    then begin
                      let tmp = fresh () in
                      (bound', (v, p, Var tmp) :: bs, (tmp, e') :: hs)
                    end
                    else (bound', (v, p, e') :: bs, hs))
                  (bound, [], []) binds
              in
              hoist bound
                (For (List.rev binds') :: acc)
                (List.rev_append new_hoists hoisted)
                rest
            | (Let binds as c) :: rest ->
              hoist (List.map fst binds @ bound) (c :: acc) hoisted rest
            | c :: rest -> hoist bound (c :: acc) hoisted rest
          in
          let clauses, hoisted = hoist [] [] [] clauses0 in
          if hoisted = [] then clauses else Let hoisted :: clauses
        end
      in
      let env', clauses =
        List.fold_left
          (fun (env, cs) c ->
            match c with
            | For binds ->
              let env, binds =
                List.fold_left_map
                  (fun env (v, p, e') ->
                    let e' = gated env Full e' in
                    ( List.map (fun v -> (v, atomic_props)) (v :: Option.to_list p)
                      @ env,
                      (v, p, e') ))
                  env binds
              in
              (env, For binds :: cs)
            | Let binds ->
              let env, binds =
                List.fold_left_map
                  (fun env (v, e') ->
                    let e' = gated env Full e' in
                    ((v, props_of env e') :: env, (v, e')))
                  env binds
              in
              (env, Let binds :: cs)
            | Where c' -> (env, Where (gated env Ebv c') :: cs)
            | Order_by keys ->
              (env, Order_by (List.map (fun (k, d) -> (gated env Full k, d)) keys) :: cs))
          (env, []) clauses
      in
      Flwor (List.rev clauses, gated env' need ret)
    | e -> rewrite_shallow env need e gated
  and rewrite_shallow env need e k =
    (* dispatch structurally, recursing through [k] *)
    match e with
    | Int_lit _ | Dbl_lit _ | Str_lit _ | Empty_seq | Context_item | Var _
    | Schema_path _ | Index_probe _ | Chain_filter _ -> e
    | Sequence es -> Sequence (List.map (k env Full) es)
    | Range (a, b) -> Range (k env Full a, k env Full b)
    | Binop (((Gen_eq | Gen_ne | Gen_lt | Gen_le | Gen_gt | Gen_ge) as op), a, b)
      -> Binop (op, k env Ebv a, k env Ebv b)
    | Binop (op, a, b) -> Binop (op, k env Full a, k env Full b)
    | Neg a -> Neg (k env Full a)
    | And (a, b) -> And (k env Ebv a, k env Ebv b)
    | Or (a, b) -> Or (k env Ebv a, k env Ebv b)
    | Not a -> Not (k env Ebv a)
    | If (c, t, f) -> If (k env Ebv c, k env need t, k env need f)
    | Call (n, args) ->
      let l = Sedna_util.Xname.local n in
      if l = "not" && List.length args = 1 then Not (k env Ebv (List.hd args))
      else if List.mem l [ "boolean"; "exists"; "empty" ] then
        Call (n, List.map (k env Ebv) args)
      else Call (n, List.map (k env Full) args)
    | Filter (p, preds) ->
      Filter
        ( k env Full p,
          List.map
            (fun pr ->
              if predicate_is_positional pr then k env Full pr else k env Ebv pr)
            preds )
    | Quantified (q, binds, cond) ->
      let env', binds =
        List.fold_left_map
          (fun env (v, e') -> ((v, atomic_props) :: env, (v, k env Ebv e')))
          env binds
      in
      Quantified (q, binds, k env' Ebv cond)
    | Elem_constr (n, atts, content) ->
      Elem_constr
        ( n,
          List.map
            (fun a -> { a with attr_value = List.map (k env Full) a.attr_value })
            atts,
          List.map (k env Full) content )
    | Comp_elem (a, b) -> Comp_elem (k env Full a, k env Full b)
    | Comp_attr (a, b) -> Comp_attr (k env Full a, k env Full b)
    | Comp_text a -> Comp_text (k env Full a)
    | Comp_comment a -> Comp_comment (k env Full a)
    | Comp_pi (a, b) -> Comp_pi (k env Full a, k env Full b)
    | Ordered a -> Ordered (k env need a)
    | Unordered a -> Unordered (k env Ebv a)
    | Virtual_constr a -> Virtual_constr (k env need a)
    | Castable (a, t) -> Castable (k env Full a, t)
    | Cast (a, t) -> Cast (k env Full a, t)
    | Instance_of (a, t) -> Instance_of (k env Full a, t)
    | Treat_as (a, t) -> Treat_as (k env Full a, t)
    | Ddo _ | Path _ | Flwor _ -> assert false
  in
  let e = gated [] Full e in
  if opts.virtual_constructors then mark_virtual ~in_output:true e else e

let optimize e = rewrite_with default_options e

(* count the nodes of a tree that satisfy [is_x] (tests, benches, \explain) *)
let rec count_nodes (is_x : expr -> bool) (e : expr) : int =
  fold (fun n sub -> n + count_nodes is_x sub) (if is_x e then 1 else 0) e

let count_ddo = count_nodes (function Ddo _ -> true | _ -> false)
let count_index_probes = count_nodes (function Index_probe _ -> true | _ -> false)
let count_chain_filters = count_nodes (function Chain_filter _ -> true | _ -> false)
