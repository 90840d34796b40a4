(** The optimizing rewriter (paper §5.1, §5.2.1): rule-based rewrites
    over the logical operation tree.

    1. {b DDO removal} (§5.1.1): {!normalize} wraps every path in an
       explicit distinct-document-order operation; the rewriter removes
       the ones whose argument is provably ordered and duplicate-free
       (ordered/disjoint property analysis) and the ones in
       effective-boolean-value positions.
    2. {b //-combining} (§5.1.2): [descendant-or-self::node()/child::x]
       becomes [descendant::x] unless the next step's predicates depend
       on context position or size (the paper's [//para[1]]
       counter-example is preserved).
    3. {b Nested-for laziness} (§5.1.3): for-clause binding sequences
       that do not depend on variables bound before them hoist into a
       let-clause evaluated once.
    4. {b Structural-path extraction} (§5.1.4): paths of descending
       name steps from [doc(...)] become {!Xq_ast.Schema_path}
       operations resolved on the descriptive schema.  A path whose
       last such step carries one general comparison [K op v] — [K] a
       child-step key path, optionally ending in an attribute,
       [v] context-free — becomes a {!Xq_ast.Chain_filter} that scans
       [K]'s block chain, unless an index answers it (rule 7).
    5. {b Virtual constructors} (§5.2.1): constructors whose results
       are never navigated are marked so the executor avoids deep
       copies.
    6. {b Function inlining} (§5.1's reference [11]): calls to
       non-recursive prolog functions become let-bound body copies. *)

type options = {
  remove_ddo : bool;
  combine_descendant : bool;
  extract_structural : bool;
  hoist_for : bool;
  virtual_constructors : bool;
  inline_functions : bool;
  use_indexes : bool;
      (** rule 7: rewrite selective value predicates over structural
          paths into B-tree index probes ({!Xq_ast.Index_probe}) when a
          matching index exists; needs the [?catalog] argument of
          {!rewrite_with} *)
  index_min_count : int;
      (** cardinality gate for rule 7: pushdown only when the candidate
          schema nodes together hold at least this many data nodes *)
}

val default_options : options
(** All rules on. *)

val no_options : options
(** All rules off — the unoptimized plans of benches E8–E11 (DDO
    operations inserted by normalization stay in place). *)

val normalize : Xq_ast.expr -> Xq_ast.expr
(** Insert explicit DDO operations over every path expression. *)

val rewrite_with :
  ?catalog:Sedna_core.Catalog.t -> options -> Xq_ast.expr -> Xq_ast.expr
(** Normalize, then apply the enabled rules.  [catalog] supplies index
    definitions and schema cardinalities for automatic index selection
    (rule 7); without it that rule never fires. *)

val optimize : Xq_ast.expr -> Xq_ast.expr
(** [rewrite_with default_options] (no catalog, so no index
    selection). *)

val inline_functions : Xq_ast.fun_def list -> Xq_ast.expr -> Xq_ast.expr
(** Rule 6, applied before {!rewrite_with} by the session when
    enabled.  Recursive functions (direct or mutual) and bodies using
    the context item are left as calls. *)

(** {1 Analysis helpers (exposed for the executor and tests)} *)

val uses_position : Xq_ast.expr -> bool
(** Does the expression (transitively) depend on [position()]/[last()]
    or contain a numeric literal predicate? *)

val predicate_is_positional : Xq_ast.expr -> bool

val combine_dos_steps : Xq_ast.step list -> Xq_ast.step list
(** Rule 2 on a raw step list. *)

val contains_context : Xq_ast.expr -> bool
(** Does the expression read the focus it is evaluated in?  Predicates,
    path steps and an index probe's residual rebind the focus, so only
    their input is looked at. *)

val count_ddo : Xq_ast.expr -> int
(** Number of DDO operations in a tree (tests and benches). *)

val count_nodes : (Xq_ast.expr -> bool) -> Xq_ast.expr -> int
(** Number of nodes of a tree that satisfy the test. *)

val count_chain_filters : Xq_ast.expr -> int
(** Number of {!Xq_ast.Chain_filter} operations in a tree (tests and
    benches). *)

val count_index_probes : Xq_ast.expr -> int
(** Number of {!Xq_ast.Index_probe} operations in a tree — lets tests
    and benches assert that automatic index selection fired. *)
