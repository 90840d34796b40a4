(* Operator-level profiling for the Volcano executor — the engine's
   EXPLAIN ANALYZE.

   [instrument] walks a rewritten expression once, before execution,
   and builds a tree of [op] stat nodes mirroring the interesting
   operators (paths and their steps, schema paths, index probes,
   filters, FLWORs, DDOs, function calls, constructors, set ops).  The
   nodes are keyed by *physical identity* of the AST node, so the
   executor can look its current expression up in O(1) without any
   change to the tree itself.

   The executor's [eval] consults the profiler only when a profile
   context is present in [ctx]; with profiling off the only cost is a
   [match] on an option.  When on, each operator's lazy sequence is
   wrapped so we record:

   - open time: building the sequence (eager work like DDO sorts lands
     here);
   - next time: forcing each element;
   - rows produced;
   - storage counter deltas around each of those windows (buffer hits
     and faults, xptr dereferences, index probes) read from the
     pre-resolved {!Counters} hot cells.

   Times and counter deltas are *inclusive*: a parent's window contains
   its children's work, like EXPLAIN ANALYZE's per-node totals.  An
   operator evaluated repeatedly (a predicate, a FLWOR body)
   accumulates across evaluations. *)

open Sedna_util
module Ast = Sedna_xquery.Xq_ast
module Pp = Sedna_xquery.Xq_pp

type op = {
  label : string;
  mutable rows : int;
  mutable time_s : float; (* inclusive: open + per-row forcing *)
  mutable hits : int; (* buffer.hit delta *)
  mutable faults : int; (* buffer.fault delta *)
  mutable derefs : int; (* xptr.deref delta *)
  mutable probes : int; (* index.probe delta *)
  mutable children : op list; (* plan order *)
}

(* AST nodes are acyclic immutable trees: structural hashing is a sound
   (and GC-move-stable) hash for a physical-equality table — equal
   pointers hash equal, and [==] disambiguates structural twins. *)
module Expr_tbl = Hashtbl.Make (struct
  type t = Ast.expr

  let equal = ( == )
  let hash = Hashtbl.hash
end)

module Step_tbl = Hashtbl.Make (struct
  type t = Ast.step

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type t = {
  exprs : op Expr_tbl.t;
  steps : op Step_tbl.t;
  probe_cell : int ref;
}

let mk label =
  {
    label;
    rows = 0;
    time_s = 0.;
    hits = 0;
    faults = 0;
    derefs = 0;
    probes = 0;
    children = [];
  }

(* ------------------------------------------------- building the tree *)

let probe_mode_name = function
  | Ast.Probe_eq -> "eq"
  | Ast.Probe_ge -> "ge"
  | Ast.Probe_le -> "le"
  | Ast.Probe_gt -> "gt"
  | Ast.Probe_lt -> "lt"

let step_label (s : Ast.step) =
  let base = Printf.sprintf "step %s::%s" (Pp.axis_name s.Ast.axis) (Pp.test_name s.Ast.test) in
  match List.length s.Ast.preds with
  | 0 -> base
  | n -> Printf.sprintf "%s [%d pred%s]" base n (if n = 1 then "" else "s")

let steps_label steps =
  String.concat ""
    (List.map
       (fun (a, n) -> Printf.sprintf "/%s::%s" (Pp.axis_name a) (Xname.to_string n))
       steps)

(* Operators worth a stat node of their own; anything else (literals,
   arithmetic, comparisons...) folds into its nearest labelled
   ancestor. *)
let label_of (e : Ast.expr) : string option =
  match e with
  | Ast.Path _ -> Some "path"
  | Ast.Schema_path (doc, steps) ->
    Some (Printf.sprintf "schema-path doc(%S)%s" doc (steps_label steps))
  | Ast.Index_probe p ->
    Some (Printf.sprintf "index-probe %S %s" p.Ast.ip_index (probe_mode_name p.Ast.ip_mode))
  | Ast.Chain_filter c ->
    Some
      (Printf.sprintf "chain-filter doc(%S)%s [%s %s]" c.Ast.cf_doc
         (steps_label c.Ast.cf_path)
         (String.concat "/"
            (List.map (fun (a, n) -> Pp.axis_name a ^ "::" ^ Xname.to_string n) c.Ast.cf_key))
         (Pp.binop_name c.Ast.cf_op))
  | Ast.Filter _ -> Some "filter"
  | Ast.Flwor _ -> Some "flwor"
  | Ast.Quantified (Ast.Some_q, _, _) -> Some "some"
  | Ast.Quantified (Ast.Every_q, _, _) -> Some "every"
  | Ast.Ddo _ -> Some "ddo (sort + dedup)"
  | Ast.Call (n, args) ->
    Some (Printf.sprintf "fn:%s/%d" (Xname.to_string n) (List.length args))
  | Ast.Binop (Ast.Union, _, _) -> Some "union"
  | Ast.Binop (Ast.Intersect, _, _) -> Some "intersect"
  | Ast.Binop (Ast.Except, _, _) -> Some "except"
  | Ast.Elem_constr (n, _, _) ->
    Some (Printf.sprintf "element <%s>" (Xname.to_string n))
  | Ast.Comp_elem _ -> Some "computed-element"
  | Ast.Virtual_constr _ -> Some "virtual-constructor"
  | Ast.If _ -> Some "if"
  | _ -> None

(* Returns the labelled roots of [e]'s subtree at this nesting level,
   registering every labelled node (and every path step) on the way. *)
let rec build p (e : Ast.expr) : op list =
  match label_of e with
  | Some label ->
    let node = mk label in
    Expr_tbl.replace p.exprs e node;
    node.children <- build_children p e;
    [ node ]
  | None -> build_children p e

and build_children p (e : Ast.expr) : op list =
  match e with
  | Ast.Path (init, steps) ->
    (* a path's children are its input followed by one node per step,
       in evaluation order; predicate subtrees hang off their step *)
    build p init
    @ List.map
        (fun (s : Ast.step) ->
          let node = mk (step_label s) in
          Step_tbl.replace p.steps s node;
          node.children <- List.concat_map (build p) s.Ast.preds;
          node)
        steps
  | e -> List.rev (Ast.fold (fun acc sub -> List.rev_append (build p sub) acc) [] e)

let instrument (e : Ast.expr) : t * op =
  let p =
    {
      exprs = Expr_tbl.create 64;
      steps = Step_tbl.create 16;
      probe_cell = Counters.cell Counters.index_probe;
    }
  in
  let tops = build p e in
  match tops with
  | [ root ] when Expr_tbl.mem p.exprs e -> (p, root)
  | tops ->
    (* top expression isn't itself an operator (a literal, an
       arithmetic expression over paths...): give the profile a
       synthetic root so the root row count is still the result
       cardinality *)
    let root = mk "result" in
    root.children <- tops;
    Expr_tbl.replace p.exprs e root;
    (p, root)

let find_expr p e = Expr_tbl.find_opt p.exprs e
let find_step p s = Step_tbl.find_opt p.steps s

(* ------------------------------------------------------ wrapping *)

type grab = int * int * int * int

(* "hits" = pages found in memory, whether through the VAS fast path or
   the frame table; "faults" = pages that had to be installed. *)
let grab p : grab =
  ( !Counters.buffer_hit_cell + !Counters.vas_fast_hit_cell,
    !Counters.buffer_fault_cell,
    !Counters.deref_cell,
    !(p.probe_cell) )

let settle p node ((h0, f0, d0, p0) : grab) t0 =
  node.time_s <- node.time_s +. (Metrics.now () -. t0);
  node.hits <-
    node.hits + (!Counters.buffer_hit_cell + !Counters.vas_fast_hit_cell - h0);
  node.faults <- node.faults + (!Counters.buffer_fault_cell - f0);
  node.derefs <- node.derefs + (!Counters.deref_cell - d0);
  node.probes <- node.probes + (!(p.probe_cell) - p0)

(* Wrap an already-built lazy sequence: counts rows and attributes the
   per-element forcing cost. *)
let wrap_seq p node (s : 'a Seq.t) : 'a Seq.t =
  let rec go s () =
    let c0 = grab p in
    let t0 = Metrics.now () in
    match s () with
    | Seq.Nil ->
      settle p node c0 t0;
      Seq.Nil
    | Seq.Cons (x, rest) ->
      settle p node c0 t0;
      node.rows <- node.rows + 1;
      Seq.Cons (x, go rest)
  in
  go s

(* Wrap an operator evaluation: times the sequence construction (open)
   and then every forcing step. *)
let wrap_eval p node (f : unit -> 'a Seq.t) : 'a Seq.t =
  let c0 = grab p in
  let t0 = Metrics.now () in
  let s = f () in
  settle p node c0 t0;
  wrap_seq p node s

(* ------------------------------------------------------ rendering *)

let rec tree_rows indent node acc =
  let label_w = (2 * indent) + String.length node.label in
  let acc = (indent, node, label_w) :: acc in
  List.fold_left (fun acc c -> tree_rows (indent + 1) c acc) acc node.children

let ms s = s *. 1000.

let render root =
  let rows = List.rev (tree_rows 0 root []) in
  let w =
    List.fold_left (fun w (_, _, lw) -> max w lw) (String.length "operator") rows
  in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%-*s %10s %10s %8s %8s %8s %8s\n" w "operator" "rows"
       "time_ms" "hits" "faults" "derefs" "probes");
  List.iter
    (fun (indent, node, _) ->
      Buffer.add_string b
        (Printf.sprintf "%s%-*s %10d %10.3f %8d %8d %8d %8d\n"
           (String.make (2 * indent) ' ')
           (w - (2 * indent))
           node.label node.rows (ms node.time_s) node.hits node.faults
           node.derefs node.probes))
    rows;
  Buffer.add_string b
    "(times and counters are inclusive of children; operators evaluated\n\
    \ repeatedly accumulate across evaluations)";
  Buffer.contents b

let rec to_json node =
  Metrics.Obj
    [
      ("op", Metrics.Str node.label);
      ("rows", Metrics.Int node.rows);
      ("time_ms", Metrics.Float (ms node.time_s));
      ("buffer_hits", Metrics.Int node.hits);
      ("buffer_faults", Metrics.Int node.faults);
      ("xptr_derefs", Metrics.Int node.derefs);
      ("index_probes", Metrics.Int node.probes);
      ("children", Metrics.List (List.map to_json node.children));
    ]
