(** Serialization of stored subtrees back to XML. *)

val events_of_node : Store.t -> Node.desc -> Sedna_xml.Xml_event.t list

val to_string :
  ?options:Sedna_xml.Serializer.options -> Store.t -> Node.desc -> string

val string_value : Store.t -> Node.desc -> string
(** The XDM typed string value: concatenation of descendant text.  A
    leaf element (text and attribute children only) reads its text
    child through its per-schema child slot. *)

val string_value_in : Store.t -> Catalog.snode -> Node.desc -> string
(** [string_value] of a node whose schema node the caller knows. *)
