(** Bulk loading (paper §4.1): document-order loading appends at the
    tail of every schema node's block chain, assigns compact ordinal
    labels, and grows the descriptive schema incrementally. *)

type state

val start_document : Store.t -> doc_name:string -> state
(** Lock the name through the store, register the document,
    materialize its document node and schema root, and return a loader
    positioned inside it. *)

val feed : state -> Sedna_xml.Xml_event.t -> unit
(** Push one parser event.  Adjacent text events coalesce into one text
    node. *)

val finish : state -> Xptr.t * int
(** Close the load; returns the document node's handle and the number
    of nodes created.  Raises if elements are left open. *)

val load_string :
  Store.t -> doc_name:string -> ?options:Sedna_xml.Xml_parser.options ->
  string -> Xptr.t * int
(** Parse and load an XML string as one document. *)

val load_events :
  Store.t -> doc_name:string -> Sedna_xml.Xml_event.t list -> Xptr.t * int

val create_empty : Store.t -> doc_name:string -> Xptr.t
(** DDL 'CREATE DOCUMENT': a document node with no children. *)
