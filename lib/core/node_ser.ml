(* Serialization of stored subtrees back to XML events / text. *)

open Sedna_util

let rec events_of_node (st : Store.t) (d : Node.desc) : Sedna_xml.Xml_event.t list =
  match Node.kind st d with
  | Catalog.Document ->
    List.concat_map (events_of_node st) (Node.children st d)
  | Catalog.Element ->
    let name =
      match Node.name st d with
      | Some n -> n
      | None -> Xname.make "unnamed"
    in
    let atts =
      List.map
        (fun a ->
          {
            Sedna_xml.Xml_event.name =
              (match Node.name st a with
               | Some n -> n
               | None -> Xname.make "unnamed");
            value = Node.text_value st a;
          })
        (Node.attributes st d)
    in
    (Sedna_xml.Xml_event.Start_element (name, atts)
     :: List.concat_map (events_of_node st) (Node.children st d))
    @ [ Sedna_xml.Xml_event.End_element ]
  | Catalog.Text -> [ Sedna_xml.Xml_event.Text (Node.text_value st d) ]
  | Catalog.Comment -> [ Sedna_xml.Xml_event.Comment (Node.text_value st d) ]
  | Catalog.Pi ->
    [ Sedna_xml.Xml_event.Processing_instruction
        ((match Node.name st d with
          | Some n -> Xname.local n
          | None -> "pi"),
         Node.text_value st d) ]
  | Catalog.Attribute ->
    (* a bare attribute serializes as its value, per XQuery serialization *)
    [ Sedna_xml.Xml_event.Text (Node.text_value st d) ]

let to_string ?options (st : Store.t) (d : Node.desc) =
  Sedna_xml.Serializer.to_string ?options (events_of_node st d)

(* typed string value of a node: concatenation of descendant text —
   comments and processing instructions below an element or document
   contribute nothing (XDM 3.2/3.3) *)
let rec string_value (st : Store.t) (d : Node.desc) : string =
  string_value_in st (Node.snode st d) d

and string_value_in st (s : Catalog.snode) d =
  match s.Catalog.kind with
  | Catalog.Text | Catalog.Attribute | Catalog.Comment | Catalog.Pi ->
    Node.text_value st d
  | Catalog.Element when List.for_all is_leaf_child s.Catalog.children ->
    leaf_value st s d
  | Catalog.Element | Catalog.Document -> children_value st d

and children_value st d =
  Node.children st d
  |> List.filter_map (fun c ->
         let s = Node.snode st c in
         match s.Catalog.kind with
         | Catalog.Element | Catalog.Text -> Some (string_value_in st s c)
         | _ -> None)
  |> String.concat ""

(* A leaf element — whose schema children are text and attributes only —
   has at most one text child schema node, reached through its per-schema
   child slot.  A lone text child is the whole value; a text with a right
   sibling (a second text) takes the general path.  The slot and the
   sibling field are read where the general path reads them too, so no
   block it would not touch is fetched. *)
and leaf_value st s d =
  match List.find_opt (fun c -> c.Catalog.kind = Catalog.Text) s.Catalog.children with
  | None -> ""
  | Some t -> (
    match Node.first_child_of_schema st d t with
    | None -> ""
    | Some x ->
      if Node.right_sibling st x = None then Node.text_value st x
      else children_value st d)

and is_leaf_child (c : Catalog.snode) =
  c.Catalog.kind = Catalog.Text || c.Catalog.kind = Catalog.Attribute
