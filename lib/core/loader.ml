(* Bulk loading of an XML event stream into the storage (paper §4.1).

   Loading proceeds in document order, so every insertion appends at
   the tail of its schema node's block chain: labels are compact
   ordinal children, no label comparisons are needed, and the partial
   order invariant holds by construction.  The descriptive schema is
   built incrementally as elements are first encountered.

   Stack frames reference nodes by handle, not by descriptor address:
   a parent acquiring its first child of a new schema type may be
   relocated into a wider block mid-load. *)

open Sedna_util

type frame = {
  f_handle : Xptr.t;
  mutable f_last_child : Xptr.t option; (* handle of the last child *)
  mutable f_ordinal : int;
  mutable f_text_pending : Buffer.t option; (* coalesce adjacent text *)
}

type state = {
  st : Store.t;
  mutable stack : frame list;
  mutable doc_handle : Xptr.t;
  mutable node_count : int;
}

let add_child state ~kind ~name ~value =
  match state.stack with
  | [] -> Error.raise_error Error.Xml_parse "loader: content outside document"
  | frame :: _ ->
    let h =
      Update_ops.append_child state.st ~parent_handle:frame.f_handle
        ~prev_handle:frame.f_last_child ~kind ~name ~value
        ~ordinal:frame.f_ordinal
    in
    frame.f_last_child <- Some h;
    frame.f_ordinal <- frame.f_ordinal + 1;
    state.node_count <- state.node_count + 1;
    h

let flush_text state =
  match state.stack with
  | { f_text_pending = Some buf; _ } :: _ when Buffer.length buf > 0 ->
    let frame = List.hd state.stack in
    frame.f_text_pending <- None;
    ignore
      (add_child state ~kind:Catalog.Text ~name:None
         ~value:(Some (Buffer.contents buf)))
  | frame :: _ -> frame.f_text_pending <- None
  | [] -> ()

let feed state (e : Sedna_xml.Xml_event.t) =
  match e with
  | Sedna_xml.Xml_event.Start_document | Sedna_xml.Xml_event.End_document -> ()
  | Sedna_xml.Xml_event.Start_element (name, atts) ->
    flush_text state;
    let h =
      add_child state ~kind:Catalog.Element ~name:(Some name) ~value:None
    in
    let frame =
      { f_handle = h; f_last_child = None; f_ordinal = 0; f_text_pending = None }
    in
    state.stack <- frame :: state.stack;
    List.iter
      (fun { Sedna_xml.Xml_event.name = an; value } ->
        ignore
          (add_child state ~kind:Catalog.Attribute ~name:(Some an)
             ~value:(Some value)))
      atts
  | Sedna_xml.Xml_event.End_element ->
    flush_text state;
    (match state.stack with
     | _ :: rest -> state.stack <- rest
     | [] -> Error.raise_error Error.Xml_parse "loader: unbalanced end element")
  | Sedna_xml.Xml_event.Text s ->
    (match state.stack with
     | frame :: _ ->
       let buf =
         match frame.f_text_pending with
         | Some b -> b
         | None ->
           let b = Buffer.create (String.length s) in
           frame.f_text_pending <- Some b;
           b
       in
       Buffer.add_string buf s
     | [] -> Error.raise_error Error.Xml_parse "loader: text outside document")
  | Sedna_xml.Xml_event.Comment s ->
    flush_text state;
    ignore (add_child state ~kind:Catalog.Comment ~name:None ~value:(Some s))
  | Sedna_xml.Xml_event.Processing_instruction (target, data) ->
    flush_text state;
    ignore
      (add_child state ~kind:Catalog.Pi
         ~name:(Some (Xname.make target))
         ~value:(Some data))

(* Lock the new document's name, create its document node and schema
   root; returns the loader state positioned inside the document. *)
let start_document (st : Store.t) ~doc_name =
  st.Store.lock doc_name;
  let cat = st.Store.cat in
  let schema_root = Catalog.new_snode cat ~parent:None ~kind:Catalog.Document ~name:None in
  let doc = Catalog.add_document cat ~name:doc_name ~schema_root_id:schema_root.Catalog.id in
  (* materialize the document node descriptor *)
  let block =
    Node_block.create_block st.Store.bm cat schema_root ~child_slots:2 ~after:None
  in
  let d =
    Update_ops.write_fresh_desc st ~snode:schema_root ~block ~order_after:None
      ~lbl:Sedna_nid.Nid.root ~parent_handle:Xptr.null ~value:None
  in
  let h = Node.handle st d in
  doc.Catalog.doc_indir <- h;
  Catalog.mark_dirty cat;
  {
    st;
    stack = [ { f_handle = h; f_last_child = None; f_ordinal = 0; f_text_pending = None } ];
    doc_handle = h;
    node_count = 1;
  }

let finish state =
  flush_text state;
  (match state.stack with
   | [ _doc ] -> ()
   | _ ->
     Error.raise_error Error.Xml_parse "loader: unclosed elements at end of load");
  (state.doc_handle, state.node_count)

(* Load a whole XML string as document [doc_name]. *)
let load_string (st : Store.t) ~doc_name ?options (xml : string) =
  let state = start_document st ~doc_name in
  List.iter (feed state) (Sedna_xml.Xml_parser.events ?options xml);
  finish state

(* Load from a pre-parsed event list (workload generators). *)
let load_events (st : Store.t) ~doc_name (evs : Sedna_xml.Xml_event.t list) =
  let state = start_document st ~doc_name in
  List.iter (feed state) evs;
  finish state

(* Create an empty document (DDL 'CREATE DOCUMENT'). *)
let create_empty (st : Store.t) ~doc_name =
  let state = start_document st ~doc_name in
  fst (finish state)
