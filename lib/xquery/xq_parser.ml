(* Recursive-descent parser for the XQuery subset, XUpdate statements
   and DDL.  Operates directly on the source string (single pass, no
   token buffer) because direct element constructors require lexical
   mode switching.

   Comments [(: ... :)] nest, per the XQuery grammar. *)

open Sedna_util
open Xq_ast

type state = { src : string; mutable pos : int }

let fail st fmt =
  Format.kasprintf
    (fun msg ->
      let upto = min st.pos (String.length st.src) in
      let line = ref 1 and col = ref 1 in
      String.iteri
        (fun i c ->
          if i < upto then
            if c = '\n' then begin
              incr line;
              col := 1
            end
            else incr col)
        st.src;
      Error.raise_error Error.Xquery_parse "%s at line %d, column %d" msg !line
        !col)
    fmt

let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]
let peek_at st k =
  if st.pos + k >= String.length st.src then '\000' else st.src.[st.pos + k]
let advance st = st.pos <- st.pos + 1

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

(* whitespace and nested (: comments :) *)
let rec skip_ws st =
  if eof st then ()
  else
    match peek st with
    | ' ' | '\t' | '\n' | '\r' ->
      advance st;
      skip_ws st
    | '(' when peek_at st 1 = ':' ->
      st.pos <- st.pos + 2;
      let depth = ref 1 in
      while !depth > 0 do
        if eof st then fail st "unterminated comment";
        if looking_at st "(:" then begin
          incr depth;
          st.pos <- st.pos + 2
        end
        else if looking_at st ":)" then begin
          decr depth;
          st.pos <- st.pos + 2
        end
        else advance st
      done;
      skip_ws st
    | _ -> ()

let expect st s =
  skip_ws st;
  if looking_at st s then st.pos <- st.pos + String.length s
  else fail st "expected %S" s

let try_sym st s =
  skip_ws st;
  if looking_at st s then begin
    st.pos <- st.pos + String.length s;
    true
  end
  else false

(* a symbol that must not be the prefix of a longer operator *)
let try_sym_notfollowed st s bad =
  skip_ws st;
  if
    looking_at st s
    && not
         (let c = peek_at st (String.length s) in
          String.contains bad c)
  then begin
    st.pos <- st.pos + String.length s;
    true
  end
  else false

let is_name_start c = Xname.is_name_start c
let is_name_char c = Xname.is_name_char c

(* read an NCName at the current position (no whitespace skipping) *)
let read_ncname st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

let read_qname st =
  skip_ws st;
  let first = read_ncname st in
  if peek st = ':' && is_name_start (peek_at st 1) then begin
    advance st;
    let second = read_ncname st in
    Xname.make ~prefix:first second
  end
  else Xname.make first

(* peek a keyword: an NCName equal to [kw] (whole word) *)
let peek_word st =
  skip_ws st;
  if is_name_start (peek st) then begin
    let save = st.pos in
    let w = read_ncname st in
    st.pos <- save;
    Some w
  end
  else None

let try_kw st kw =
  skip_ws st;
  match peek_word st with
  | Some w when String.equal w kw ->
    st.pos <- st.pos + String.length kw;
    true
  | _ -> false

let expect_kw st kw = if not (try_kw st kw) then fail st "expected %S" kw

(* string literal with doubled-quote escape and predefined entities *)
let read_string_lit st =
  skip_ws st;
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected a string literal";
  advance st;
  let b = Buffer.create 16 in
  let rec go () =
    if eof st then fail st "unterminated string literal";
    let c = peek st in
    if c = quote then begin
      advance st;
      if peek st = quote then begin
        Buffer.add_char b quote;
        advance st;
        go ()
      end
    end
    else if c = '&' then begin
      match String.index_from_opt st.src st.pos ';' with
      | None -> fail st "unterminated entity reference"
      | Some j ->
        let name = String.sub st.src (st.pos + 1) (j - st.pos - 1) in
        (match Sedna_xml.Escape.expand_entity name with
         | Some s -> Buffer.add_string b s
         | None -> fail st "unknown entity &%s;" name);
        st.pos <- j + 1;
        go ()
    end
    else begin
      Buffer.add_char b c;
      advance st;
      go ()
    end
  in
  go ();
  Buffer.contents b

let read_number st =
  skip_ws st;
  let start = st.pos in
  while (not (eof st)) && peek st >= '0' && peek st <= '9' do
    advance st
  done;
  let is_dec = peek st = '.' && peek_at st 1 >= '0' && peek_at st 1 <= '9' in
  if is_dec then begin
    advance st;
    while (not (eof st)) && peek st >= '0' && peek st <= '9' do
      advance st
    done
  end;
  let is_dbl = peek st = 'e' || peek st = 'E' in
  if is_dbl then begin
    advance st;
    if peek st = '+' || peek st = '-' then advance st;
    while (not (eof st)) && peek st >= '0' && peek st <= '9' do
      advance st
    done
  end;
  let text = String.sub st.src start (st.pos - start) in
  if is_dec || is_dbl then Dbl_lit (float_of_string text)
  else Int_lit (int_of_string text)

(* ---- expressions ------------------------------------------------------ *)

let rec parse_expr st : expr =
  let e1 = parse_expr_single st in
  if try_sym st "," then
    let rec more acc =
      let e = parse_expr_single st in
      if try_sym st "," then more (e :: acc) else List.rev (e :: acc)
    in
    Sequence (e1 :: more [])
  else e1

and parse_expr_single st : expr =
  skip_ws st;
  match peek_word st with
  | Some "for" when peek_clause_start st -> parse_flwor st
  | Some "let" when peek_clause_start st -> parse_flwor st
  | Some "if" when peek_after_word st "if" '(' -> parse_if st
  | Some "some" when peek_after_word st "some" '$' ->
    parse_quantified st Some_q
  | Some "every" when peek_after_word st "every" '$' ->
    parse_quantified st Every_q
  | _ -> parse_or st

(* does the word begin a FLWOR clause, i.e. is followed by '$'? *)
and peek_clause_start st =
  let save = st.pos in
  skip_ws st;
  let w = read_ncname st in
  ignore w;
  skip_ws st;
  let ok = peek st = '$' in
  st.pos <- save;
  ok

and peek_after_word st w c =
  let save = st.pos in
  skip_ws st;
  let w' = read_ncname st in
  skip_ws st;
  let ok = String.equal w w' && peek st = c in
  st.pos <- save;
  ok

and parse_var_name st =
  expect st "$";
  read_ncname st

and parse_flwor st : expr =
  let rec clauses acc =
    if try_kw st "for" then begin
      let rec binds acc2 =
        let v = parse_var_name st in
        let pos_var =
          if try_kw st "at" then Some (parse_var_name st) else None
        in
        expect_kw st "in";
        let e = parse_expr_single st in
        if try_sym st "," then binds ((v, pos_var, e) :: acc2)
        else List.rev ((v, pos_var, e) :: acc2)
      in
      clauses (For (binds []) :: acc)
    end
    else if try_kw st "let" then begin
      let rec binds acc2 =
        let v = parse_var_name st in
        expect st ":=";
        let e = parse_expr_single st in
        if try_sym st "," then binds ((v, e) :: acc2)
        else List.rev ((v, e) :: acc2)
      in
      clauses (Let (binds []) :: acc)
    end
    else if try_kw st "where" then
      clauses (Where (parse_expr_single st) :: acc)
    else if try_kw st "stable" || peek_word st = Some "order" then begin
      expect_kw st "order";
      expect_kw st "by";
      let rec keys acc2 =
        let e = parse_expr_single st in
        let dir =
          if try_kw st "descending" then Descending
          else begin
            ignore (try_kw st "ascending");
            Ascending
          end
        in
        if try_sym st "," then keys ((e, dir) :: acc2)
        else List.rev ((e, dir) :: acc2)
      in
      clauses (Order_by (keys []) :: acc)
    end
    else List.rev acc
  in
  let cs = clauses [] in
  expect_kw st "return";
  let ret = parse_expr_single st in
  Flwor (cs, ret)

and parse_if st : expr =
  expect_kw st "if";
  expect st "(";
  let c = parse_expr st in
  expect st ")";
  expect_kw st "then";
  let t = parse_expr_single st in
  expect_kw st "else";
  let e = parse_expr_single st in
  If (c, t, e)

and parse_quantified st q : expr =
  skip_ws st;
  ignore (read_ncname st);
  let rec binds acc =
    let v = parse_var_name st in
    expect_kw st "in";
    let e = parse_expr_single st in
    if try_sym st "," then binds ((v, e) :: acc) else List.rev ((v, e) :: acc)
  in
  let bs = binds [] in
  expect_kw st "satisfies";
  let cond = parse_expr_single st in
  Quantified (q, bs, cond)

and parse_or st : expr =
  let a = parse_and st in
  if try_kw st "or" then Or (a, parse_or st) else a

and parse_and st : expr =
  let a = parse_comparison st in
  if try_kw st "and" then And (a, parse_and st) else a

and parse_comparison st : expr =
  let a = parse_range st in
  let op =
    skip_ws st;
    if try_sym st "!=" then Some Gen_ne
    else if try_sym st "<=" then Some Gen_le
    else if try_sym st ">=" then Some Gen_ge
    else if try_sym_notfollowed st "<" "<" then Some Gen_lt
    else if try_sym_notfollowed st ">" ">" then Some Gen_gt
    else if try_sym st "=" then Some Gen_eq
    else if try_sym st "<<" then Some Precedes
    else if try_sym st ">>" then Some Follows
    else
      match peek_word st with
      | Some "eq" -> ignore (try_kw st "eq"); Some Eq
      | Some "ne" -> ignore (try_kw st "ne"); Some Ne
      | Some "lt" -> ignore (try_kw st "lt"); Some Lt
      | Some "le" -> ignore (try_kw st "le"); Some Le
      | Some "gt" -> ignore (try_kw st "gt"); Some Gt
      | Some "ge" -> ignore (try_kw st "ge"); Some Ge
      | Some "is" -> ignore (try_kw st "is"); Some Is
      | _ -> None
  in
  match op with Some op -> Binop (op, a, parse_range st) | None -> a

and parse_range st : expr =
  let a = parse_additive st in
  if try_kw st "to" then Range (a, parse_additive st) else a

and parse_additive st : expr =
  let rec go a =
    skip_ws st;
    if try_sym st "+" then go (Binop (Add, a, parse_multiplicative st))
    else if
      (* '-' must not eat the start of a name like '-foo' inside names:
         names cannot start with '-', so plain consumption is safe *)
      try_sym st "-"
    then go (Binop (Sub, a, parse_multiplicative st))
    else a
  in
  go (parse_multiplicative st)

and parse_multiplicative st : expr =
  let rec go a =
    skip_ws st;
    if try_sym st "*" then go (Binop (Mul, a, parse_union st))
    else
      match peek_word st with
      | Some "div" -> ignore (try_kw st "div"); go (Binop (Div, a, parse_union st))
      | Some "idiv" -> ignore (try_kw st "idiv"); go (Binop (Idiv, a, parse_union st))
      | Some "mod" -> ignore (try_kw st "mod"); go (Binop (Mod, a, parse_union st))
      | _ -> a
  in
  go (parse_union st)

and parse_union st : expr =
  let rec go a =
    skip_ws st;
    if try_kw st "union" || try_sym_notfollowed st "|" "|" then
      go (Binop (Union, a, parse_intersect st))
    else a
  in
  go (parse_intersect st)

and parse_intersect st : expr =
  let rec go a =
    if try_kw st "intersect" then go (Binop (Intersect, a, parse_typeop st))
    else if try_kw st "except" then go (Binop (Except, a, parse_typeop st))
    else a
  in
  go (parse_typeop st)

and parse_typeop st : expr =
  let a = parse_unary st in
  if try_kw st "instance" then begin
    expect_kw st "of";
    Instance_of (a, parse_sequence_type st)
  end
  else if try_kw st "castable" then begin
    expect_kw st "as";
    Castable (a, parse_sequence_type st)
  end
  else if try_kw st "cast" then begin
    expect_kw st "as";
    Cast (a, parse_sequence_type st)
  end
  else if try_kw st "treat" then begin
    expect_kw st "as";
    Treat_as (a, parse_sequence_type st)
  end
  else a

and parse_sequence_type st : string =
  skip_ws st;
  let n = Xname.to_string (read_qname st) in
  let n = if try_sym st "(" then (expect st ")"; n ^ "()") else n in
  let n =
    if try_sym st "?" then n ^ "?"
    else if try_sym st "*" then n ^ "*"
    else if try_sym st "+" then n ^ "+"
    else n
  in
  n

and parse_unary st : expr =
  skip_ws st;
  if try_sym st "-" then Neg (parse_unary st)
  else if try_sym st "+" then parse_unary st
  else parse_path st

(* ---- paths -------------------------------------------------------------- *)

and parse_path st : expr =
  skip_ws st;
  if looking_at st "//" then begin
    st.pos <- st.pos + 2;
    let steps = parse_relative_steps st in
    Path
      ( Call (Xname.make "root", [ Context_item ]),
        { axis = Descendant_or_self; test = Kind_any; preds = [] } :: steps )
  end
  else if peek st = '/' && peek_at st 1 <> '/' then begin
    advance st;
    skip_ws st;
    (* bare "/" or absolute path *)
    if eof st || not (is_path_start st) then
      Path (Call (Xname.make "root", [ Context_item ]), [])
    else
      let steps = parse_relative_steps st in
      Path (Call (Xname.make "root", [ Context_item ]), steps)
  end
  else begin
    let primary = parse_step_or_postfix st in
    skip_ws st;
    if looking_at st "/" then begin
      let steps = parse_path_continuation st in
      match primary with
      | Path (p, s0) -> Path (p, s0 @ steps)
      | p -> Path (p, steps)
    end
    else primary
  end

and is_path_start st =
  skip_ws st;
  let c = peek st in
  is_name_start c || c = '@' || c = '.' || c = '*'

and parse_path_continuation st : step list =
  let rec go acc =
    skip_ws st;
    if looking_at st "//" then begin
      st.pos <- st.pos + 2;
      let s = parse_axis_step st in
      go (s :: { axis = Descendant_or_self; test = Kind_any; preds = [] } :: acc)
    end
    else if peek st = '/' then begin
      advance st;
      let s = parse_axis_step st in
      go (s :: acc)
    end
    else List.rev acc
  in
  go []

and parse_relative_steps st : step list =
  let s = parse_axis_step st in
  s :: parse_path_continuation st

(* A step in a relative path: an axis step.  (Primary expressions in
   non-initial path positions are not supported.) *)
and parse_axis_step st : step =
  skip_ws st;
  if looking_at st ".." then begin
    st.pos <- st.pos + 2;
    let preds = parse_predicates st in
    { axis = Parent; test = Kind_any; preds }
  end
  else if peek st = '@' then begin
    advance st;
    let test =
      if peek st = '*' then begin
        advance st;
        Kind_attribute None
      end
      else Kind_attribute (Some (read_qname st))
    in
    let preds = parse_predicates st in
    { axis = Attribute_axis; test; preds }
  end
  else begin
    (* explicit axis? *)
    let axis, consumed =
      let save = st.pos in
      if is_name_start (peek st) then begin
        let w = read_ncname st in
        if looking_at st "::" then begin
          st.pos <- st.pos + 2;
          match w with
          | "child" -> (Child, true)
          | "descendant" -> (Descendant, true)
          | "descendant-or-self" -> (Descendant_or_self, true)
          | "self" -> (Self, true)
          | "parent" -> (Parent, true)
          | "ancestor" -> (Ancestor, true)
          | "ancestor-or-self" -> (Ancestor_or_self, true)
          | "following-sibling" -> (Following_sibling, true)
          | "preceding-sibling" -> (Preceding_sibling, true)
          | "following" -> (Following, true)
          | "preceding" -> (Preceding, true)
          | "attribute" -> (Attribute_axis, true)
          | a -> fail st "unknown axis %S" a
        end
        else begin
          st.pos <- save;
          (Child, false)
        end
      end
      else (Child, false)
    in
    ignore consumed;
    let test = parse_node_test st ~axis in
    let preds = parse_predicates st in
    { axis; test; preds }
  end

and parse_node_test st ~axis : node_test =
  skip_ws st;
  if peek st = '*' then begin
    advance st;
    if axis = Attribute_axis then Kind_attribute None else Wildcard
  end
  else begin
    let save = st.pos in
    let name = read_qname st in
    skip_ws st;
    if peek st = '(' then begin
      match Xname.to_string name with
      | "node" ->
        expect st "(";
        expect st ")";
        Kind_any
      | "text" ->
        expect st "(";
        expect st ")";
        Kind_text
      | "comment" ->
        expect st "(";
        expect st ")";
        Kind_comment
      | "processing-instruction" ->
        expect st "(";
        skip_ws st;
        let target =
          if peek st = ')' then None
          else if peek st = '"' || peek st = '\'' then
            Some (read_string_lit st)
          else Some (read_ncname st)
        in
        expect st ")";
        Kind_pi target
      | "element" ->
        expect st "(";
        skip_ws st;
        let n =
          if peek st = ')' || peek st = '*' then begin
            if peek st = '*' then advance st;
            None
          end
          else Some (read_qname st)
        in
        expect st ")";
        Kind_element n
      | "attribute" ->
        expect st "(";
        skip_ws st;
        let n =
          if peek st = ')' || peek st = '*' then begin
            if peek st = '*' then advance st;
            None
          end
          else Some (read_qname st)
        in
        expect st ")";
        Kind_attribute n
      | "document-node" ->
        expect st "(";
        expect st ")";
        Kind_document
      | _ ->
        (* a function call is not a node test: backtrack, caller is a
           step context so this is an error *)
        st.pos <- save;
        fail st "unexpected function call in a path step"
    end
    else if axis = Attribute_axis then Kind_attribute (Some name)
    else Name_test name
  end

and parse_predicates st : expr list =
  let rec go acc =
    skip_ws st;
    if peek st = '[' then begin
      advance st;
      let e = parse_expr st in
      expect st "]";
      go (e :: acc)
    end
    else List.rev acc
  in
  go []

(* Step position: either an axis step, or a postfix (primary +
   predicates) expression. *)
and parse_step_or_postfix st : expr =
  skip_ws st;
  let c = peek st in
  if c = '@' || looking_at st ".." then
    Path (Context_item, [ parse_axis_step st ])
  else if c = '.' && not (peek_at st 1 >= '0' && peek_at st 1 <= '9') then begin
    advance st;
    let preds = parse_predicates st in
    if preds = [] then Context_item else Filter (Context_item, preds)
  end
  else if c = '*' then Path (Context_item, [ parse_axis_step st ])
  else if is_name_start c then begin
    (* QName: could be a function call, a keyword-ish primary, an axis
       step, or a kind test *)
    let save = st.pos in
    let name = read_qname st in
    skip_ws st;
    if peek st = '(' then begin
      st.pos <- save;
      match Xname.to_string name with
      | "node" | "text" | "comment" | "processing-instruction" | "element"
      | "attribute" | "document-node" ->
        Path (Context_item, [ parse_axis_step st ])
      | _ -> parse_postfix st
    end
    else begin
      (* ordered/unordered blocks *)
      let block kw =
        st.pos <- save;
        if try_kw st kw && (skip_ws st; peek st = '{') then begin
          expect st "{";
          let e = parse_expr st in
          expect st "}";
          Some e
        end
        else None
      in
      match block "ordered" with
      | Some e -> Ordered e
      | None -> (
        match block "unordered" with
        | Some e -> Unordered e
        | None -> (
          st.pos <- save;
          (* computed constructors *)
          match parse_computed_constructor st with
          | Some e -> e
          | None -> Path (Context_item, [ parse_axis_step st ])))
    end
  end
  else parse_postfix st

and parse_computed_constructor st : expr option =
  let save = st.pos in
  match peek_word st with
  | Some "element" ->
    ignore (try_kw st "element");
    skip_ws st;
    if peek st = '{' then begin
      expect st "{";
      let n = parse_expr st in
      expect st "}";
      expect st "{";
      let c = if (skip_ws st; peek st = '}') then Empty_seq else parse_expr st in
      expect st "}";
      Some (Comp_elem (n, c))
    end
    else if is_name_start (peek st) then begin
      let n = read_qname st in
      skip_ws st;
      if peek st = '{' then begin
        expect st "{";
        let c =
          if (skip_ws st; peek st = '}') then Empty_seq else parse_expr st
        in
        expect st "}";
        Some (Comp_elem (Str_lit (Xname.to_string n), c))
      end
      else begin
        st.pos <- save;
        None
      end
    end
    else begin
      st.pos <- save;
      None
    end
  | Some "attribute" ->
    ignore (try_kw st "attribute");
    skip_ws st;
    let name_expr =
      if peek st = '{' then begin
        expect st "{";
        let n = parse_expr st in
        expect st "}";
        Some n
      end
      else if is_name_start (peek st) then begin
        let n = read_qname st in
        skip_ws st;
        if peek st = '{' then Some (Str_lit (Xname.to_string n)) else None
      end
      else None
    in
    (match name_expr with
     | Some n ->
       expect st "{";
       let v = if (skip_ws st; peek st = '}') then Empty_seq else parse_expr st in
       expect st "}";
       Some (Comp_attr (n, v))
     | None ->
       st.pos <- save;
       None)
  | Some "text" ->
    ignore (try_kw st "text");
    skip_ws st;
    if peek st = '{' then begin
      expect st "{";
      let v = parse_expr st in
      expect st "}";
      Some (Comp_text v)
    end
    else begin
      st.pos <- save;
      None
    end
  | Some "comment" ->
    ignore (try_kw st "comment");
    skip_ws st;
    if peek st = '{' then begin
      expect st "{";
      let v = parse_expr st in
      expect st "}";
      Some (Comp_comment v)
    end
    else begin
      st.pos <- save;
      None
    end
  | _ -> None

and parse_postfix st : expr =
  let p = parse_primary st in
  let preds = parse_predicates st in
  if preds = [] then p else Filter (p, preds)

and parse_primary st : expr =
  skip_ws st;
  match peek st with
  | '$' -> Var (parse_var_name st)
  | '(' ->
    advance st;
    skip_ws st;
    if peek st = ')' then begin
      advance st;
      Empty_seq
    end
    else begin
      let e = parse_expr st in
      expect st ")";
      e
    end
  | '"' | '\'' -> Str_lit (read_string_lit st)
  | c when c >= '0' && c <= '9' -> read_number st
  | '.' when peek_at st 1 >= '0' && peek_at st 1 <= '9' -> read_number st
  | '<' -> parse_direct_constructor st
  | c when is_name_start c ->
    let name = read_qname st in
    skip_ws st;
    if peek st = '(' then begin
      advance st;
      skip_ws st;
      let args =
        if peek st = ')' then []
        else
          let rec go acc =
            let a = parse_expr_single st in
            if try_sym st "," then go (a :: acc) else List.rev (a :: acc)
          in
          go []
      in
      expect st ")";
      Call (name, args)
    end
    else fail st "unexpected name %S in expression" (Xname.to_string name)
  | c -> fail st "unexpected character %C" c

(* ---- direct constructors ------------------------------------------------- *)

and parse_direct_constructor st : expr =
  expect st "<";
  if looking_at st "!--" then begin
    st.pos <- st.pos + 3;
    let start = st.pos in
    while not (looking_at st "-->") do
      if eof st then fail st "unterminated comment constructor";
      advance st
    done;
    let text = String.sub st.src start (st.pos - start) in
    st.pos <- st.pos + 3;
    Comp_comment (Str_lit text)
  end
  else if peek st = '?' then begin
    advance st;
    let target = read_ncname st in
    let start = st.pos in
    while not (looking_at st "?>") do
      if eof st then fail st "unterminated PI constructor";
      advance st
    done;
    let text = String.trim (String.sub st.src start (st.pos - start)) in
    st.pos <- st.pos + 2;
    Comp_pi (Str_lit target, Str_lit text)
  end
  else begin
    let name = read_qname st in
    let rec attrs acc =
      skip_ws st;
      if is_name_start (peek st) then begin
        let an = read_qname st in
        skip_ws st;
        expect st "=";
        skip_ws st;
        let quote = peek st in
        if quote <> '"' && quote <> '\'' then fail st "expected attribute value";
        advance st;
        let parts = parse_attr_value st quote in
        attrs ({ attr_name = an; attr_value = parts } :: acc)
      end
      else List.rev acc
    in
    let atts = attrs [] in
    skip_ws st;
    if try_sym st "/>" then Elem_constr (name, atts, [])
    else begin
      expect st ">";
      let content = parse_constructor_content st in
      (* closing tag *)
      let close = read_qname st in
      if not (Xname.equal close name || Xname.to_string close = Xname.to_string name)
      then fail st "mismatched constructor end tag </%s>" (Xname.to_string close);
      skip_ws st;
      expect st ">";
      Elem_constr (name, atts, content)
    end
  end

(* attribute value: alternating literal text and {enclosed exprs};
   terminates at the quote character *)
and parse_attr_value st quote : expr list =
  let parts = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      parts := Str_lit (Buffer.contents buf) :: !parts;
      Buffer.clear buf
    end
  in
  let rec go () =
    if eof st then fail st "unterminated attribute value";
    let c = peek st in
    if c = quote then advance st
    else if c = '{' && peek_at st 1 = '{' then begin
      Buffer.add_char buf '{';
      st.pos <- st.pos + 2;
      go ()
    end
    else if c = '}' && peek_at st 1 = '}' then begin
      Buffer.add_char buf '}';
      st.pos <- st.pos + 2;
      go ()
    end
    else if c = '{' then begin
      flush ();
      advance st;
      let e = parse_expr st in
      expect st "}";
      parts := e :: !parts;
      go ()
    end
    else if c = '&' then begin
      match String.index_from_opt st.src st.pos ';' with
      | None -> fail st "unterminated entity reference"
      | Some j ->
        let name = String.sub st.src (st.pos + 1) (j - st.pos - 1) in
        (match Sedna_xml.Escape.expand_entity name with
         | Some s -> Buffer.add_string buf s
         | None -> fail st "unknown entity &%s;" name);
        st.pos <- j + 1;
        go ()
    end
    else begin
      Buffer.add_char buf c;
      advance st;
      go ()
    end
  in
  go ();
  flush ();
  List.rev !parts

(* element content: text, enclosed exprs, nested constructors; stops
   before the closing tag (consumes "</"). *)
and parse_constructor_content st : expr list =
  let parts = ref [] in
  let buf = Buffer.create 32 in
  let is_ws s =
    let ok = ref true in
    String.iter (fun c -> if not (c = ' ' || c = '\t' || c = '\n' || c = '\r') then ok := false) s;
    !ok
  in
  let flush ~boundary =
    if Buffer.length buf > 0 then begin
      let s = Buffer.contents buf in
      Buffer.clear buf;
      (* strip boundary whitespace (default boundary-space strip) *)
      if not (boundary && is_ws s) then parts := Str_lit s :: !parts
    end
  in
  let rec go () =
    if eof st then fail st "unterminated element constructor";
    if looking_at st "</" then begin
      flush ~boundary:true;
      st.pos <- st.pos + 2
    end
    else if looking_at st "<![CDATA[" then begin
      st.pos <- st.pos + 9;
      let start = st.pos in
      while not (looking_at st "]]>") do
        if eof st then fail st "unterminated CDATA";
        advance st
      done;
      Buffer.add_string buf (String.sub st.src start (st.pos - start));
      st.pos <- st.pos + 3;
      go ()
    end
    else if peek st = '<' then begin
      flush ~boundary:true;
      parts := parse_direct_constructor st :: !parts;
      go ()
    end
    else if peek st = '{' && peek_at st 1 = '{' then begin
      Buffer.add_char buf '{';
      st.pos <- st.pos + 2;
      go ()
    end
    else if peek st = '}' && peek_at st 1 = '}' then begin
      Buffer.add_char buf '}';
      st.pos <- st.pos + 2;
      go ()
    end
    else if peek st = '{' then begin
      flush ~boundary:true;
      advance st;
      let e = parse_expr st in
      expect st "}";
      parts := e :: !parts;
      go ()
    end
    else if peek st = '&' then begin
      match String.index_from_opt st.src st.pos ';' with
      | None -> fail st "unterminated entity reference"
      | Some j ->
        let name = String.sub st.src (st.pos + 1) (j - st.pos - 1) in
        (match Sedna_xml.Escape.expand_entity name with
         | Some s -> Buffer.add_string buf s
         | None -> fail st "unknown entity &%s;" name);
        st.pos <- j + 1;
        go ()
    end
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      go ()
    end
  in
  go ();
  List.rev !parts

(* ---- prolog --------------------------------------------------------------- *)

let parse_prolog st : prolog =
  let ns = ref [] and vars = ref [] and funs = ref [] in
  let boundary = ref false in
  let rec go () =
    skip_ws st;
    if try_kw st "declare" then begin
      if try_kw st "namespace" then begin
        skip_ws st;
        let p = read_ncname st in
        expect st "=";
        let uri = read_string_lit st in
        ns := (p, uri) :: !ns;
        expect st ";";
        go ()
      end
      else if try_kw st "boundary-space" then begin
        if try_kw st "preserve" then boundary := true
        else expect_kw st "strip";
        expect st ";";
        go ()
      end
      else if try_kw st "variable" then begin
        let v = parse_var_name st in
        ignore (try_kw st "as" && (ignore (parse_sequence_type st); true));
        expect st ":=";
        let e = parse_expr_single st in
        vars := (v, e) :: !vars;
        expect st ";";
        go ()
      end
      else if try_kw st "function" then begin
        let name = read_qname st in
        expect st "(";
        skip_ws st;
        let params =
          if peek st = ')' then []
          else
            let rec ps acc =
              let v = parse_var_name st in
              ignore (try_kw st "as" && (ignore (parse_sequence_type st); true));
              if try_sym st "," then ps (v :: acc) else List.rev (v :: acc)
            in
            ps []
        in
        expect st ")";
        ignore (try_kw st "as" && (ignore (parse_sequence_type st); true));
        expect st "{";
        let body = parse_expr st in
        expect st "}";
        expect st ";";
        funs := { fn_name = name; fn_params = params; fn_body = body } :: !funs;
        go ()
      end
      else fail st "unsupported declaration"
    end
  in
  go ();
  {
    namespaces = List.rev !ns;
    variables = List.rev !vars;
    functions = List.rev !funs;
    boundary_space_preserve = !boundary;
  }

(* ---- statements ------------------------------------------------------------ *)

let parse_update_stmt st : update_stmt =
  if try_kw st "insert" then begin
    let src = parse_expr_single st in
    if try_kw st "into" then Insert_into (src, parse_expr st)
    else if try_kw st "preceding" then Insert_preceding (src, parse_expr st)
    else if try_kw st "following" then Insert_following (src, parse_expr st)
    else fail st "expected 'into', 'preceding' or 'following'"
  end
  else if try_kw st "delete_undeep" then Delete_undeep (parse_expr st)
  else if try_kw st "delete" then Delete (parse_expr st)
  else if try_kw st "replace" then begin
    let v = parse_var_name st in
    expect_kw st "in";
    let target = parse_expr_single st in
    expect_kw st "with";
    let repl = parse_expr st in
    Replace (v, target, repl)
  end
  else if try_kw st "rename" then begin
    let target = parse_expr_single st in
    expect_kw st "on";
    let name = read_qname st in
    Rename (target, name)
  end
  else fail st "unknown update statement"

let parse_path_of_names st : string list =
  (* a '/'-separated list of element names, used by CREATE INDEX *)
  let rec go acc =
    skip_ws st;
    if try_sym st "/" then begin
      skip_ws st;
      if peek st = '@' then advance st;
      if is_name_start (peek st) then go (Xname.to_string (read_qname st) :: acc)
      else if looking_at st "text()" then begin
        st.pos <- st.pos + 6;
        List.rev acc
      end
      else List.rev acc
    end
    else List.rev acc
  in
  go []

let parse_ddl st : ddl_stmt option =
  let save = st.pos in
  if try_kw st "CREATE" || try_kw st "create" then begin
    if try_kw st "DOCUMENT" || try_kw st "document" then begin
      let name = read_string_lit st in
      if try_kw st "IN" || try_kw st "in" then begin
        expect_kw st (match peek_word st with Some "COLLECTION" -> "COLLECTION" | _ -> "collection");
        Some (Create_document_in (name, read_string_lit st))
      end
      else Some (Create_document name)
    end
    else if try_kw st "COLLECTION" || try_kw st "collection" then
      Some (Create_collection (read_string_lit st))
    else if try_kw st "INDEX" || try_kw st "index" then begin
      let name = read_string_lit st in
      expect_kw st (match peek_word st with Some "ON" -> "ON" | _ -> "on");
      (* doc("name")/path *)
      expect_kw st "doc";
      expect st "(";
      let doc = read_string_lit st in
      expect st ")";
      let on_path = parse_path_of_names st in
      expect_kw st (match peek_word st with Some "BY" -> "BY" | _ -> "by");
      (* key path is relative: name(/name)* or ./text() style *)
      let by_path =
        let rec go acc =
          skip_ws st;
          if peek st = '.' then begin
            advance st;
            go acc
          end
          else if looking_at st "text()" then begin
            st.pos <- st.pos + 6;
            List.rev acc
          end
          else if peek st = '@' then begin
            advance st;
            (* keep the attribute marker: the index walks attributes,
               not child elements, for this (necessarily last) step *)
            List.rev (("@" ^ Xname.to_string (read_qname st)) :: acc)
          end
          else if is_name_start (peek st) then begin
            let n = Xname.to_string (read_qname st) in
            if try_sym st "/" then go (n :: acc) else List.rev (n :: acc)
          end
          else if try_sym st "/" then go acc
          else List.rev acc
        in
        go []
      in
      expect_kw st (match peek_word st with Some "AS" -> "AS" | _ -> "as");
      skip_ws st;
      let ty = Xname.to_string (read_qname st) in
      Some
        (Create_index { ix_name = name; ix_doc = doc; ix_on = on_path; ix_by = by_path; ix_type = ty })
    end
    else begin
      st.pos <- save;
      None
    end
  end
  else if try_kw st "DROP" || try_kw st "drop" then begin
    if try_kw st "DOCUMENT" || try_kw st "document" then
      Some (Drop_document (read_string_lit st))
    else if try_kw st "COLLECTION" || try_kw st "collection" then
      Some (Drop_collection (read_string_lit st))
    else if try_kw st "INDEX" || try_kw st "index" then
      Some (Drop_index (read_string_lit st))
    else begin
      st.pos <- save;
      None
    end
  end
  else if try_kw st "LOAD" then begin
    skip_ws st;
    let a = read_string_lit st in
    let b = read_string_lit st in
    (* LOAD "file.xml" "docname" *)
    Some (Load_file (a, b))
  end
  else None

let parse_statement (src : string) : statement =
  let st = { src; pos = 0 } in
  skip_ws st;
  match parse_ddl st with
  | Some d ->
    skip_ws st;
    if not (eof st) then fail st "trailing input after statement";
    Ddl d
  | None ->
    let prolog = parse_prolog st in
    skip_ws st;
    if try_kw st "UPDATE" then begin
      let u = parse_update_stmt st in
      skip_ws st;
      if not (eof st) then fail st "trailing input after update statement";
      Update (prolog, u)
    end
    else begin
      let e = parse_expr st in
      skip_ws st;
      if not (eof st) then fail st "trailing input after query";
      Query (prolog, e)
    end

let parse_query (src : string) : prolog * expr =
  match parse_statement src with
  | Query (p, e) -> (p, e)
  | _ ->
    Error.raise_error Error.Xquery_parse "expected a query, found a statement"
