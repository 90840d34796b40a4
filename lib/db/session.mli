(** A client session (paper §3, Figure 1): owns at most one active
    transaction and runs statements through the full pipeline
    (parse → static analysis → optimizing rewrite → execute).

    Outside an explicit transaction, each statement auto-commits in its
    own transaction: read-only with a snapshot (no locks) for queries;
    updating with S2PL document locks for updates and DDL.  The lock
    set is inferred from the doc()/collection() references in the
    statement. *)

type t

type result =
  | Items of string  (** serialized query result *)
  | Updated of int  (** affected-node count of an update statement *)
  | Message of string  (** DDL confirmation *)

val result_to_string : result -> string

val connect : Sedna_core.Database.t -> t

val set_park : t -> ((unit -> unit) -> unit) -> unit
(** How this session's commits wait for the covering group fsync.  The
    governor installs [Governor.without_engine] here so the engine lock
    is released while the commit parks; the default runs the wait
    inline. *)

val database : t -> Sedna_core.Database.t

val id : t -> int
(** Process-unique session number (annotated on statement spans). *)

val set_rewriter_options : t -> Sedna_xquery.Rewriter.options -> unit
(** Per-session optimizer switches (benches/tests use this for
    ablations); the next statement compiles under them. *)

val begin_txn : ?read_only:bool -> t -> unit
val commit : t -> unit
val rollback : t -> unit
val in_transaction : t -> bool

val execute : t -> string -> result
(** Compile and run one statement string: XQuery query, XUpdate
    statement or DDL.  Every run compiles against the live catalog;
    there is no plan cache. *)

val execute_string : t -> string -> string

(** {1 Profiling — EXPLAIN ANALYZE} *)

type profiled_plan = {
  pp_statement : string;
  pp_parse_ms : float;
  pp_analyze_ms : float;
  pp_rewrite_ms : float;
  pp_execute_ms : float;
  pp_rows : int;  (** result cardinality = the root operator's rows *)
  pp_result : string;  (** the serialized query result *)
  pp_plan : Sedna_engine.Profiler.op;  (** annotated operator tree *)
}

val profile : t -> string -> profiled_plan
(** Run one query through {!execute}'s path — same statement span,
    locks, abort isolation and auto-commit restart — with
    operator-level profiling attached: per-operator elapsed time, rows,
    buffer hits/faults, xptr dereferences and index probes.  Queries
    only; raises [Unsupported] for updates and DDL. *)

val render_profile : profiled_plan -> string
(** What the CLI's [\profile] prints. *)

val explain : t -> string -> string
(** What the CLI's [\explain] prints: the query's normalized parse tree
    and the plan this session compiles it to now (static analysis,
    session rewriter options, live catalog), prolog variable
    initializers included.  Queries only; raises [Unsupported] for
    updates and DDL. *)

val statement_locks :
  Sedna_core.Database.t -> Sedna_xquery.Xq_ast.statement -> (string * Sedna_core.Lock_mgr.mode) list
(** The inferred lock set (exposed for tests). *)
