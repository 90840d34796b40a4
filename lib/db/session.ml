(* A client session (paper §3, Figure 1): owns at most one active
   transaction at a time and runs statements through the full pipeline:
   parse -> static analysis -> optimizing rewrite -> execute.

   Auto-commit mode: a statement outside an explicit transaction runs
   in its own transaction — read-only (snapshot, no locks) for queries,
   updating (S2PL document locks, refused rather than waited for) for
   updates and DDL.  An updating transaction locks each document where
   the statement resolves it (the transaction's store, see
   [Database.txn_store]): S for a query, X for an update or DDL. *)

open Sedna_util
open Sedna_core
module Ast = Sedna_xquery.Xq_ast

type result =
  | Items of string (* serialized query result *)
  | Updated of int (* affected-node count *)
  | Message of string (* DDL confirmation *)

let result_to_string = function
  | Items s -> s
  | Updated n -> Printf.sprintf "update succeeded (%d nodes)" n
  | Message m -> m

type t = {
  id : int;
  db : Database.t;
  mutable txn : Txn.t option;
  mutable rewriter_options : Sedna_xquery.Rewriter.options;
  (* how this session's commits wait for the covering group fsync: the
     governor points this at [Governor.without_engine] so the engine
     lock is released while the commit parks; the default runs the
     wait inline (standalone sessions hold no engine lock) *)
  mutable park : (unit -> unit) -> unit;
}

(* Every session's statements feed one registered latency histogram
   (/metrics' stmt.latency). *)
let stmt_latency = Metrics.histogram "stmt.latency"

let next_session_id = ref 0

let connect db =
  incr next_session_id;
  let id = !next_session_id in
  {
    id;
    db;
    txn = None;
    rewriter_options = Sedna_xquery.Rewriter.default_options;
    park = (fun wait -> wait ());
  }

let set_park t f = t.park <- f
let database t = t.db
let id t = t.id

let set_rewriter_options t o = t.rewriter_options <- o

(* ---- transaction control ---------------------------------------------- *)

let begin_txn ?(read_only = false) t =
  (match t.txn with
   | Some txn when Txn.is_active txn ->
     Error.raise_error Error.Txn_not_active
       "session already has an active transaction"
   | _ -> ());
  t.txn <- Some (Database.begin_txn ~read_only t.db)

let commit t =
  match t.txn with
  | Some txn when Txn.is_active txn ->
    Database.commit ~park:t.park t.db txn;
    t.txn <- None
  | _ -> Error.raise_error Error.Txn_not_active "no active transaction"

let rollback t =
  match t.txn with
  | Some txn when Txn.is_active txn ->
    Database.abort t.db txn;
    t.txn <- None
  | _ -> Error.raise_error Error.Txn_not_active "no active transaction"

let in_transaction t =
  match t.txn with Some txn -> Txn.is_active txn | None -> false

(* ---- statement compilation -------------------------------------------- *)

(* static analysis + function inlining + optimizing rewrite on one
   expression, with the live catalog feeding automatic index selection *)
let optimize_expr t (prolog : Ast.prolog) (e : Ast.expr) : Ast.expr =
  let e =
    if t.rewriter_options.Sedna_xquery.Rewriter.inline_functions then
      Sedna_xquery.Rewriter.inline_functions prolog.Ast.functions e
    else e
  in
  Sedna_xquery.Rewriter.rewrite_with
    ~catalog:(Database.catalog t.db)
    t.rewriter_options e

(* Compile a parsed statement against the live catalog.  Every run
   compiles afresh, as in the paper's pipeline (§5): a plan always
   reflects the current indexes, schema and populations.  Prolog
   variable initializers are rewritten here too; [build_ctx] below
   only evaluates them.  Returns the compiled statement plus (analyze,
   rewrite) seconds for [\profile]. *)
let compile t (stmt : Ast.statement) : Ast.statement * float * float =
  let variables prolog =
    List.map (fun (v, e') -> (v, optimize_expr t prolog e')) prolog.Ast.variables
  in
  match stmt with
  | Ast.Query (prolog, e) ->
    let ta, () =
      Metrics.time (fun () -> ignore (Sedna_xquery.Static.analyse prolog e))
    in
    let tr, stmt =
      Metrics.time (fun () ->
          let prolog' = { prolog with Ast.variables = variables prolog } in
          Ast.Query (prolog', optimize_expr t prolog' e))
    in
    (stmt, ta, tr)
  | Ast.Update (prolog, u) ->
    let tr, stmt =
      Metrics.time (fun () ->
          let opt = optimize_expr t prolog in
          let u =
            match u with
            | Ast.Insert_into (a, b) -> Ast.Insert_into (opt a, opt b)
            | Ast.Insert_preceding (a, b) -> Ast.Insert_preceding (opt a, opt b)
            | Ast.Insert_following (a, b) -> Ast.Insert_following (opt a, opt b)
            | Ast.Delete a -> Ast.Delete (opt a)
            | Ast.Delete_undeep a -> Ast.Delete_undeep (opt a)
            | Ast.Replace (v, a, b) -> Ast.Replace (v, opt a, opt b)
            | Ast.Rename (a, n) -> Ast.Rename (opt a, n)
          in
          Ast.Update ({ prolog with Ast.variables = variables prolog }, u))
    in
    (stmt, 0., tr)
  | Ast.Ddl _ -> (stmt, 0., 0.)

(* \explain: the query's parsed tree beside the plan [compile] gives
   it, i.e. the plan a statement with this text runs now *)
let explain t (text : string) : string =
  match Sedna_xquery.Xq_parser.parse_statement text with
  | Ast.Query (_, e) as parsed -> (
    match compile t parsed with
    | Ast.Query (prolog, e'), _, _ ->
      Sedna_xquery.Xq_pp.explain ~variables:prolog.Ast.variables e e'
    | _ -> assert false)
  | Ast.Update _ | Ast.Ddl _ ->
    Error.raise_error Error.Unsupported "\\explain supports queries only"

(* ---- statement execution ----------------------------------------------- *)

let build_ctx _t (st : Store.t) (prolog : Ast.prolog) : Sedna_engine.Executor.ctx =
  let funcs =
    List.map (fun (f : Ast.fun_def) -> (Xname.local f.Ast.fn_name, f)) prolog.Ast.functions
  in
  let ctx0 = Sedna_engine.Executor.initial_ctx ~funcs st in
  (* prolog variables (already rewritten by [compile]) are evaluated
     eagerly, in declaration order *)
  let vars =
    List.fold_left
      (fun vars (v, e) ->
        let ctx = { ctx0 with Sedna_engine.Executor.vars = vars } in
        (v, List.of_seq (Sedna_engine.Executor.eval ctx e)) :: vars)
      [] prolog.Ast.variables
  in
  { ctx0 with Sedna_engine.Executor.vars = vars }

let is_query = function Ast.Query _ -> true | _ -> false

(* Run an already-compiled statement; [prof] observes a query's
   operators ([\profile]). *)
let run_statement ?prof t (stmt : Ast.statement) (txn : Txn.t) : result =
  let mode = if is_query stmt then Lock_mgr.Shared else Lock_mgr.Exclusive in
  let st = Database.txn_store t.db txn ~mode in
  match stmt with
  | Ast.Query (prolog, e) ->
    let ctx = { (build_ctx t st prolog) with Sedna_engine.Executor.prof } in
    Items (Sedna_engine.Xdm.serialize st (Sedna_engine.Executor.eval ctx e))
  | Ast.Update (prolog, u) ->
    if txn.Txn.read_only then
      Error.raise_error Error.Txn_read_only
        "update statement in a read-only transaction";
    let ctx = build_ctx t st prolog in
    Updated (Sedna_engine.Update_exec.execute ctx u)
  | Ast.Ddl d ->
    if txn.Txn.read_only then
      Error.raise_error Error.Txn_read_only "DDL in a read-only transaction";
    Message (Sedna_engine.Ddl_exec.execute st d)

(* Statement-level abort isolation: failures that can leave partial
   storage effects or a refused lock behind must abort the whole
   transaction (releasing locks, restoring before-images) so the
   session survives cleanly instead of carrying a poisoned transaction.
   Pure statement errors (type errors, read-only violations, parse
   failures) leave the transaction usable. *)
let aborts_transaction = function
  | Fault.Injected_fault _ -> true
  | Error.Sedna_error
      ( ( Error.Lock_timeout | Error.Storage_corruption
        | Error.Corrupt_page | Error.Update_conflict
        (* a fired statement deadline may have left partial update
           effects behind: only the owning transaction dies, its locks
           and before-images are released like any other abort *)
        | Error.Query_timeout
        (* resource exhaustion mid-transaction: the node just entered
           degraded mode and this transaction's writes can no longer be
           made durable — abort it rather than leave it half-applied *)
        | Error.Degraded ),
        _ ) ->
    true
  | e when Sedna_util.Sysutil.is_resource_exhaustion e -> true
  | _ -> false

let statement_kind = function
  | Ast.Query _ -> "query"
  | Ast.Update _ -> "update"
  | Ast.Ddl _ -> "ddl"

(* The statement path: compile one statement string, then run it.
   Within an explicit transaction the statement joins it; otherwise it
   runs in an auto-commit transaction of the appropriate kind.
   [instrument] sees the compiled statement before it runs and may
   return a profiler to attach to the executor ([\profile]).  Returns
   the result and the (parse, analyze, rewrite, execute) seconds. *)
let run t ~instrument (text : string) : result * (float * float * float * float) =
  (* tracing: join the server's request context when one is ambient,
     otherwise root a trace of our own (CLI, tests, bench); [owned]
     remembers which case so we publish and un-install only our own *)
  let owned =
    match Span.current () with
    | Some _ -> None
    | None ->
      let c = Span.make () in
      Span.set_current c;
      c
  in
  let cx = Span.current () in
  let stmt_sp =
    Option.map
      (fun c ->
        let sp = Span.start c "statement" in
        Span.annotate sp "session" (Metrics.Int t.id);
        Span.annotate sp "text" (Metrics.Str text);
        sp)
      cx
  in
  let t0 = Metrics.mono () in
  let finish ~kind ~ok =
    let total = Metrics.mono () -. t0 in
    Metrics.observe stmt_latency total;
    (match (cx, stmt_sp) with
     | Some c, Some sp ->
       Span.finish c
         ~annots:[ ("kind", Metrics.Str kind); ("ok", Metrics.Bool ok) ]
         sp;
       (* the slow log is this trace, kept apart at publish time *)
       if sp.Span.sp_dur >= Span.slow_threshold () then Span.mark_slow c
     | _ -> ());
    match owned with
    | Some c ->
      Span.publish c;
      Span.set_current None
    | None -> ()
  in
  try
    let tp, (stmt, ta, tr) =
      Span.with_span "compile" (fun _ ->
          let tp, parsed =
            Metrics.time (fun () -> Sedna_xquery.Xq_parser.parse_statement text)
          in
          (tp, compile t parsed))
    in
    let prof = instrument stmt in
    (* span-boundary deadline check: compilation can be slow and never
       passes an executor choke point *)
    Deadline.check_now ();
    let te = ref 0. in
    let eval txn =
      Span.with_span "eval" (fun _ ->
          let dt, r =
            Metrics.time (fun () ->
                Database.run t.db txn (fun () -> run_statement ?prof t stmt txn))
          in
          te := dt;
          r)
    in
    let r =
      match t.txn with
      | Some txn when Txn.is_active txn -> (
        try eval txn with
        | Fault.Injected_crash _ as e ->
          (* simulated process death: nothing may be written after
             this point, the harness reopens the directory *)
          t.txn <- None;
          raise e
        | e when aborts_transaction e ->
          (if Txn.is_active txn then
             try Database.abort t.db txn with
             | Fault.Injected_crash _ as c ->
               t.txn <- None;
               raise c
             | _ -> ());
          t.txn <- None;
          raise e)
      | _ ->
        let run_once () =
          let txn = Database.begin_txn ~read_only:(is_query stmt) t.db in
          try
            let r = eval txn in
            Database.commit ~park:t.park t.db txn;
            r
          with
          | Fault.Injected_crash _ as e -> raise e
          | e ->
            (if Txn.is_active txn then
               try Database.abort t.db txn with
               | Fault.Injected_crash _ as c -> raise c
               | _ -> ());
            raise e
        in
        (* Lock timeouts restart the whole auto-commit statement: the
           document lock is typically held by a commit parked in the
           group fsync, and that commit can only complete — and
           release — once this session lets go of the engine lock.
           So the pause between attempts goes through [t.park]
           (engine lock released, like a commit park).  A document is
           locked where the statement resolves it, so a refusal may
           come after the attempt changed other documents; the attempt
           is fully aborted (before-images, catalog, locks), so the
           restart is still invisible to the client.  Explicit
           transactions are not restarted: their abort is the
           documented statement-failure contract.  This is the only
           lock wait ([Database.lock_exn] never sleeps): 38 attempts
           pause 0.279 s in all before SE-LOCK-TIMEOUT. *)
        let max_attempts = 38 in
        let rec attempt n =
          match run_once () with
          | r -> r
          | exception Error.Sedna_error (Error.Lock_timeout, _)
            when n < max_attempts ->
            Counters.bump Counters.stmt_lock_restarts;
            t.park (fun () ->
                Unix.sleepf (Float.min 0.008 (0.0005 *. float_of_int (1 lsl n))));
            attempt (n + 1)
        in
        attempt 1
    in
    finish ~kind:(statement_kind stmt) ~ok:true;
    (r, (tp, ta, tr, !te))
  with e ->
    finish ~kind:"error" ~ok:false;
    raise e

let execute t text = fst (run t ~instrument:(fun _ -> None) text)

let execute_string t text = result_to_string (execute t text)

(* ---- profiling (EXPLAIN ANALYZE) --------------------------------------- *)

type profiled_plan = {
  pp_statement : string;
  pp_parse_ms : float;
  pp_analyze_ms : float;
  pp_rewrite_ms : float;
  pp_execute_ms : float;
  pp_rows : int; (* result cardinality = root operator row count *)
  pp_result : string; (* serialized result *)
  pp_plan : Sedna_engine.Profiler.op;
}

(* Profile one query: run it through [execute]'s path with a profiler
   attached to the executor context, and return the annotated operator
   tree with the phase timings. *)
let profile t (text : string) : profiled_plan =
  let root = ref None in
  let instrument = function
    | Ast.Query (_, body) ->
      let prof, op = Sedna_engine.Profiler.instrument body in
      root := Some op;
      Some prof
    | Ast.Update _ | Ast.Ddl _ ->
      Error.raise_error Error.Unsupported "\\profile supports queries only"
  in
  let ms s = s *. 1000. in
  match run t ~instrument text with
  | Items result, (tp, ta, tr, te) ->
    let root = Option.get !root in
    {
      pp_statement = text;
      pp_parse_ms = ms tp;
      pp_analyze_ms = ms ta;
      pp_rewrite_ms = ms tr;
      pp_execute_ms = ms te;
      pp_rows = root.Sedna_engine.Profiler.rows;
      pp_result = result;
      pp_plan = root;
    }
  | (Updated _ | Message _), _ -> assert false

let render_profile (pp : profiled_plan) : string =
  Printf.sprintf
    "profile: %s\n\
     phases (ms): parse %.3f | analyze %.3f | rewrite %.3f | execute %.3f\n\
     %s\n\
     result cardinality: %d item(s)"
    pp.pp_statement pp.pp_parse_ms pp.pp_analyze_ms pp.pp_rewrite_ms
    pp.pp_execute_ms
    (Sedna_engine.Profiler.render pp.pp_plan)
    pp.pp_rows
