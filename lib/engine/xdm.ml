(* The XQuery data model as seen by the executor: items are nodes or
   atomic values; nodes are either stored (descriptors in the page
   store) or temporary (constructed by element constructors, held in
   memory).

   A temporary element's children may be direct references to stored
   nodes — the "virtual element constructor" representation of
   paper §5.2.1: no deep copy is made and serialization follows the
   reference.  Deep copies, when they do happen, are counted. *)

open Sedna_util
open Sedna_core

type tnode = {
  t_id : int; (* creation order: identity and document order for temps *)
  t_kind : Catalog.kind;
  t_name : Xname.t option;
  mutable t_value : string; (* text / attribute / comment / pi value *)
  mutable t_children : node list; (* attributes first, then content *)
  mutable t_parent : tnode option;
}

and node = Stored of Node.desc | Temp of tnode

type atomic =
  | AInt of int
  | ADbl of float
  | AStr of string
  | ABool of bool
  | AUntyped of string

type item = N of node | A of atomic

type value = item list
(* materialized sequence: variable bindings, function arguments *)

let temp_counter = ref 0

let new_tnode ~kind ~name ~value =
  incr temp_counter;
  {
    t_id = !temp_counter;
    t_kind = kind;
    t_name = name;
    t_value = value;
    t_children = [];
    t_parent = None;
  }

(* ---- node accessors (polymorphic over stored/temp) -------------------- *)

let node_kind st = function
  | Stored d -> Node.kind st d
  | Temp t -> t.t_kind

let node_name st = function
  | Stored d -> Node.name st d
  | Temp t -> t.t_name

let node_children st = function
  | Stored d -> List.map (fun c -> Stored c) (Node.children st d)
  | Temp t ->
    List.filter
      (fun c -> node_kind st c <> Catalog.Attribute)
      t.t_children

let node_attributes st = function
  | Stored d -> List.map (fun c -> Stored c) (Node.attributes st d)
  | Temp t ->
    List.filter (fun c -> node_kind st c = Catalog.Attribute) t.t_children

let node_parent st = function
  | Stored d -> Option.map (fun p -> Stored p) (Node.parent st d)
  | Temp t -> Option.map (fun p -> Temp p) t.t_parent

let rec node_string_value st = function
  | Stored d -> Node_ser.string_value st d
  | Temp t -> (
    match t.t_kind with
    | Catalog.Text | Catalog.Attribute | Catalog.Comment | Catalog.Pi ->
      t.t_value
    | Catalog.Element | Catalog.Document ->
      (* descendant text only, as for stored nodes *)
      t.t_children
      |> List.filter (fun c ->
             match node_kind st c with
             | Catalog.Element | Catalog.Text -> true
             | _ -> false)
      |> List.map (node_string_value st)
      |> String.concat "")

let is_same_node st a b =
  match (a, b) with
  | Stored x, Stored y -> Xptr.equal (Node.handle st x) (Node.handle st y)
  | Temp x, Temp y -> x.t_id = y.t_id
  | _ -> false

(* Document order: stored nodes by label (handle as tie-break across
   documents); temporary nodes by creation id; stored before temp
   (implementation-defined inter-tree order, as the spec allows). *)
let node_compare st a b =
  match (a, b) with
  | Stored x, Stored y ->
    let c = Sedna_nid.Nid.compare (Node.label st x) (Node.label st y) in
    if c <> 0 then c
    else Xptr.compare (Node.handle st x) (Node.handle st y)
  | Temp x, Temp y -> compare x.t_id y.t_id
  | Stored _, Temp _ -> -1
  | Temp _, Stored _ -> 1

(* ---- atomics ------------------------------------------------------------ *)

let atomic_of_node st n : atomic = AUntyped (node_string_value st n)

let atomize st (i : item) : atomic =
  match i with N n -> atomic_of_node st n | A a -> a

let string_of_atomic = function
  | AInt i -> string_of_int i
  | ADbl f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      (* serialize 2.0 as "2", per the usual double canonicalization of
         integral values in query results *)
      Printf.sprintf "%.0f" f
    else if Float.is_nan f then "NaN"
    else if f = Float.infinity then "INF"
    else if f = Float.neg_infinity then "-INF"
    else
      let s = Printf.sprintf "%.12g" f in
      s
  | AStr s -> s
  | ABool b -> if b then "true" else "false"
  | AUntyped s -> s

let float_of_atomic = function
  | AInt i -> float_of_int i
  | ADbl f -> f
  | ABool b -> if b then 1.0 else 0.0
  | AStr s | AUntyped s -> (
    match float_of_string_opt (String.trim s) with
    | Some f -> f
    | None -> Float.nan)

let number_opt = function
  | AInt i -> Some (float_of_int i)
  | ADbl f -> Some f
  | AStr s | AUntyped s -> float_of_string_opt (String.trim s)
  | ABool _ -> None

let item_string st (i : item) : string =
  match i with
  | N n -> node_string_value st n
  | A a -> string_of_atomic a

(* ---- effective boolean value --------------------------------------------- *)

let ebv _st (items : item Seq.t) : bool =
  match items () with
  | Seq.Nil -> false
  | Seq.Cons (first, rest) -> (
    match first with
    | N _ -> true
    | A a -> (
      match rest () with
      | Seq.Cons _ ->
        Error.raise_error Error.Xquery_type
          "effective boolean value of a multi-item atomic sequence"
      | Seq.Nil -> (
        match a with
        | ABool b -> b
        | AStr s | AUntyped s -> String.length s > 0
        | AInt i -> i <> 0
        | ADbl f -> (not (Float.is_nan f)) && f <> 0.0)))

(* ---- comparisons ----------------------------------------------------------- *)

(* Numeric comparison with XQuery NaN semantics: every value/general
   comparison involving NaN is false, which [None] encodes — the
   polymorphic [compare] would instead order NaN below everything and
   make [NaN eq NaN] true. *)
let float_compare_opt (x : float) (y : float) : int option =
  if Float.is_nan x || Float.is_nan y then None else Some (compare x y)

(* One side is a numeric NaN and the other is numeric (or an untyped
   value that promotes to a number): the pair is unordered in the IEEE
   sense, as opposed to ill-typed — callers decide between "false" and
   a type error on that distinction. *)
let nan_pair (a : atomic) (b : atomic) : bool =
  let is_nan = function ADbl f -> Float.is_nan f | _ -> false in
  let numericish = function
    | AInt _ | ADbl _ -> true
    | AUntyped s -> float_of_string_opt (String.trim s) <> None
    | _ -> false
  in
  (is_nan a && numericish b) || (is_nan b && numericish a)

let value_compare (a : atomic) (b : atomic) : int option =
  (* typed comparison for 'eq lt ...'; None = incomparable *)
  match (a, b) with
  | AInt x, AInt y -> Some (compare x y)
  | (AInt _ | ADbl _), (AInt _ | ADbl _) ->
    float_compare_opt (float_of_atomic a) (float_of_atomic b)
  | ABool x, ABool y -> Some (compare x y)
  | (AStr x | AUntyped x), (AStr y | AUntyped y) -> Some (String.compare x y)
  | (AInt _ | ADbl _), AUntyped s | AUntyped s, (AInt _ | ADbl _) -> (
    match float_of_string_opt (String.trim s) with
    | Some _ -> float_compare_opt (float_of_atomic a) (float_of_atomic b)
    | None -> None)
  | _ -> None

(* xs:untypedAtomic -> xs:boolean cast (XQuery casting rules): the
   lexical space is "true"/"1" and "false"/"0"; anything else is a
   dynamic error, not silently false. *)
let bool_of_untyped (s : string) : bool =
  match String.trim s with
  | "true" | "1" -> true
  | "false" | "0" -> false
  | other ->
    Error.raise_error Error.Xquery_dynamic
      "cannot cast untyped value %S to xs:boolean" other

(* general-comparison pairwise rule: untyped adapts to the other side *)
let general_pair_compare (a : atomic) (b : atomic) : int option =
  match (a, b) with
  | AUntyped x, (AInt _ | ADbl _) ->
    float_compare_opt (float_of_atomic (AUntyped x)) (float_of_atomic b)
  | (AInt _ | ADbl _), AUntyped y ->
    float_compare_opt (float_of_atomic a) (float_of_atomic (AUntyped y))
  | AUntyped x, ABool _ -> value_compare (ABool (bool_of_untyped x)) b
  | ABool _, AUntyped y -> value_compare a (ABool (bool_of_untyped y))
  | AUntyped x, AStr y | AUntyped x, AUntyped y -> Some (String.compare x y)
  | AStr x, AUntyped y -> Some (String.compare x y)
  | _ -> value_compare a b

(* ---- deep copy of stored / temp content (constructors) -------------------- *)

let rec deep_copy_stored st (d : Node.desc) : tnode =
  Counters.bump Counters.deep_copies;
  let kind = Node.kind st d in
  let t =
    new_tnode ~kind ~name:(Node.name st d)
      ~value:
        (match kind with
         | Catalog.Element | Catalog.Document -> ""
         | _ -> Node.text_value st d)
  in
  (match kind with
   | Catalog.Element | Catalog.Document ->
     let atts =
       List.map
         (fun a ->
           let c = deep_copy_stored st a in
           c.t_parent <- Some t;
           Temp c)
         (Node.attributes st d)
     in
     let kids =
       List.map
         (fun c ->
           let c' = deep_copy_stored st c in
           c'.t_parent <- Some t;
           Temp c')
         (Node.children st d)
     in
     t.t_children <- atts @ kids
   | _ -> ());
  t

let rec deep_copy_temp (src : tnode) : tnode =
  let t = new_tnode ~kind:src.t_kind ~name:src.t_name ~value:src.t_value in
  t.t_children <-
    List.map
      (function
        | Temp c ->
          let c' = deep_copy_temp c in
          c'.t_parent <- Some t;
          Temp c'
        | Stored d -> Stored d (* virtual reference is preserved *))
      src.t_children;
  t

(* ---- serialization ---------------------------------------------------------- *)

let rec events_of_tnode st (t : tnode) : Sedna_xml.Xml_event.t list =
  match t.t_kind with
  | Catalog.Document ->
    List.concat_map (events_of_node st)
      (List.filter (fun c -> node_kind st c <> Catalog.Attribute) t.t_children)
  | Catalog.Element ->
    let name = match t.t_name with Some n -> n | None -> Xname.make "unnamed" in
    let atts =
      List.filter_map
        (fun c ->
          match c with
          | Temp a when a.t_kind = Catalog.Attribute ->
            Some
              {
                Sedna_xml.Xml_event.name =
                  (match a.t_name with Some n -> n | None -> Xname.make "a");
                value = a.t_value;
              }
          | Stored d when Node.kind st d = Catalog.Attribute ->
            Some
              {
                Sedna_xml.Xml_event.name =
                  (match Node.name st d with
                   | Some n -> n
                   | None -> Xname.make "a");
                value = Node.text_value st d;
              }
          | _ -> None)
        t.t_children
    in
    (Sedna_xml.Xml_event.Start_element (name, atts)
     :: List.concat_map (events_of_node st)
          (List.filter (fun c -> node_kind st c <> Catalog.Attribute) t.t_children))
    @ [ Sedna_xml.Xml_event.End_element ]
  | Catalog.Text -> [ Sedna_xml.Xml_event.Text t.t_value ]
  | Catalog.Comment -> [ Sedna_xml.Xml_event.Comment t.t_value ]
  | Catalog.Pi ->
    [ Sedna_xml.Xml_event.Processing_instruction
        ((match t.t_name with Some n -> Xname.local n | None -> "pi"), t.t_value) ]
  | Catalog.Attribute -> [ Sedna_xml.Xml_event.Text t.t_value ]

and events_of_node st (n : node) : Sedna_xml.Xml_event.t list =
  match n with
  | Stored d -> Node_ser.events_of_node st d
  | Temp t -> events_of_tnode st t

(* Serialize a result sequence the way a query shell does: nodes as
   XML, atomics as text separated by spaces. *)
let serialize st (items : item Seq.t) : string =
  let buf = Buffer.create 256 in
  let prev_atomic = ref false in
  Seq.iter
    (fun i ->
      match i with
      | N n ->
        prev_atomic := false;
        Buffer.add_string buf (Sedna_xml.Serializer.to_string (events_of_node st n))
      | A a ->
        if !prev_atomic then Buffer.add_char buf ' ';
        prev_atomic := true;
        Buffer.add_string buf (string_of_atomic a))
    items;
  Buffer.contents buf
