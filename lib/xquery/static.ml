(* Static analysis (paper §5): namespace resolution over the query
   prolog, variable-binding checks, and function resolution against the
   built-in library plus prolog-declared functions.  Static errors are
   reported before any data is touched. *)

open Sedna_util
open Xq_ast

let builtin_functions : (string * int list) list =
  (* name, accepted arities; a trailing -1 means "or more" *)
  [
    ("doc", [ 1 ]);
    ("document", [ 1 ]);
    ("collection", [ 1 ]);
    ("root", [ 0; 1 ]);
    ("count", [ 1 ]);
    ("sum", [ 1 ]);
    ("avg", [ 1 ]);
    ("min", [ 1 ]);
    ("max", [ 1 ]);
    ("empty", [ 1 ]);
    ("exists", [ 1 ]);
    ("not", [ 1 ]);
    ("true", [ 0 ]);
    ("false", [ 0 ]);
    ("boolean", [ 1 ]);
    ("string", [ 0; 1 ]);
    ("data", [ 1 ]);
    ("number", [ 0; 1 ]);
    ("string-length", [ 0; 1 ]);
    ("normalize-space", [ 0; 1 ]);
    ("upper-case", [ 1 ]);
    ("lower-case", [ 1 ]);
    ("concat", [ -1 ]);
    ("contains", [ 2 ]);
    ("starts-with", [ 2 ]);
    ("ends-with", [ 2 ]);
    ("substring", [ 2; 3 ]);
    ("substring-before", [ 2 ]);
    ("substring-after", [ 2 ]);
    ("string-join", [ 2 ]);
    ("translate", [ 3 ]);
    ("position", [ 0 ]);
    ("last", [ 0 ]);
    ("name", [ 0; 1 ]);
    ("local-name", [ 0; 1 ]);
    ("namespace-uri", [ 0; 1 ]);
    ("node-name", [ 1 ]);
    ("distinct-values", [ 1 ]);
    ("reverse", [ 1 ]);
    ("subsequence", [ 2; 3 ]);
    ("insert-before", [ 3 ]);
    ("remove", [ 2 ]);
    ("index-of", [ 2 ]);
    ("floor", [ 1 ]);
    ("ceiling", [ 1 ]);
    ("round", [ 1 ]);
    ("abs", [ 1 ]);
    ("zero-or-one", [ 1 ]);
    ("exactly-one", [ 1 ]);
    ("one-or-more", [ 1 ]);
    ("deep-equal", [ 2 ]);
    ("matches", [ 2 ]);
    ("replace", [ 3 ]);
    ("tokenize", [ 2 ]);
    ("id", [ 1 ]);
    ("doc-available", [ 1 ]);
    (* Sedna extensions *)
    ("index-scan", [ 2; 3 ]);
    ("schema", [ 1 ]);
    ("statistics", [ 0 ]);
    ("sedna-schema-path", [ -1 ]);
  ]

type env = {
  prolog : prolog;
  bound_vars : string list;
  functions : (string * int) list; (* declared name/arity *)
}

let fn_uri = "http://www.w3.org/2005/xpath-functions"
let xs_uri = "http://www.w3.org/2001/XMLSchema"

let resolve_name env ?(default_fn = false) (n : Xname.t) : Xname.t =
  if Xname.uri n <> "" then n
  else
    let p = Xname.prefix n in
    if p = "" then
      if default_fn then Xname.make ~uri:fn_uri (Xname.local n) else n
    else
      match List.assoc_opt p env.prolog.namespaces with
      | Some uri -> Xname.make ~prefix:p ~uri (Xname.local n)
      | None -> (
        match p with
        | "fn" -> Xname.make ~prefix:p ~uri:fn_uri (Xname.local n)
        | "xs" -> Xname.make ~prefix:p ~uri:xs_uri (Xname.local n)
        | "local" ->
          Xname.make ~prefix:p
            ~uri:"http://www.w3.org/2005/xquery-local-functions"
            (Xname.local n)
        | "xml" ->
          Xname.make ~prefix:p ~uri:"http://www.w3.org/XML/1998/namespace"
            (Xname.local n)
        | _ ->
          Error.raise_error Error.Xquery_static
            "undeclared namespace prefix %S" p)

let check_function env (n : Xname.t) (arity : int) =
  let local = Xname.local n in
  let is_builtin =
    (Xname.prefix n = "" || Xname.prefix n = "fn")
    &&
    match List.assoc_opt local builtin_functions with
    | Some arities -> List.mem arity arities || List.mem (-1) arities
    | None -> false
  in
  let is_declared = List.mem (local, arity) env.functions in
  let is_constructor_fn =
    (* xs:integer("5") style constructor functions *)
    Xname.prefix n = "xs" && arity = 1
  in
  if not (is_builtin || is_declared || is_constructor_fn) then
    Error.raise_error Error.Xquery_static
      "unknown function %s#%d" (Xname.to_string n) arity

(* Walk the expression, checking names and variable bindings.  The
   comma-separated bindings of one clause or quantifier bind one after
   another: each expression sees the variables bound before it. *)
let rec check env (e : expr) : unit =
  let bind env vs e' =
    check env e';
    { env with bound_vars = vs @ env.bound_vars }
  in
  match e with
  | Var v ->
    if not (List.mem v env.bound_vars) then
      Error.raise_error Error.Xquery_static "unbound variable $%s" v
  | Call (n, args) ->
    check_function env (resolve_name env ~default_fn:true n) (List.length args);
    List.iter (check env) args
  | Quantified (_, binds, cond) ->
    check (List.fold_left (fun env (v, e') -> bind env [ v ] e') env binds) cond
  | Flwor (clauses, ret) ->
    let env' =
      List.fold_left
        (fun env' c ->
          match c with
          | For binds ->
            List.fold_left
              (fun env (v, p, e') -> bind env (v :: Option.to_list p) e')
              env' binds
          | Let binds -> List.fold_left (fun env (v, e') -> bind env [ v ] e') env' binds
          | Where c' ->
            check env' c';
            env'
          | Order_by keys ->
            List.iter (fun (k, _) -> check env' k) keys;
            env')
        env clauses
    in
    check env' ret
  | e -> fold (fun () -> check env) () e

(* Entry point: analyse prolog + body; returns the environment used by
   later phases. *)
let analyse (prolog : prolog) (body : expr) : env =
  let functions =
    List.map
      (fun f -> (Xname.local f.fn_name, List.length f.fn_params))
      prolog.functions
  in
  let env = { prolog; bound_vars = []; functions } in
  (* prolog variables see the ones declared before them *)
  let env =
    List.fold_left
      (fun env (v, e) ->
        check env e;
        { env with bound_vars = v :: env.bound_vars })
      env prolog.variables
  in
  (* function bodies *)
  List.iter
    (fun f ->
      check { env with bound_vars = f.fn_params @ env.bound_vars } f.fn_body)
    prolog.functions;
  check env body;
  env
