(* Data-definition statement execution: documents, collections,
   indexes, bulk load. *)

open Sedna_util
open Sedna_core
module Ast = Sedna_xquery.Xq_ast

(* Remove a document's schema subtree from the catalog. *)
let prune_schema (cat : Catalog.t) (root_id : int) =
  let root = Catalog.snode_by_id cat root_id in
  List.iter
    (fun (s : Catalog.snode) -> Hashtbl.remove cat.Catalog.snodes s.Catalog.id)
    (root :: Catalog.schema_descendants root);
  Catalog.mark_dirty cat

let drop_document (st : Store.t) name =
  let doc = Store.document st name in
  (* drop dependent indexes first *)
  List.iter
    (fun (d : Catalog.index_def) ->
      Catalog.remove_index st.Store.cat d.Catalog.idx_name)
    (Catalog.indexes_for_document st.Store.cat name);
  Update_ops.delete_node st doc.Catalog.doc_indir;
  prune_schema st.Store.cat doc.Catalog.schema_root_id;
  Catalog.remove_document st.Store.cat name

let index_kind_of_type = function
  | "xs:string" -> Catalog.String_index
  | "xs:integer" | "xs:double" | "xs:decimal" | "xs:float" ->
    Catalog.Number_index
  | t -> Error.raise_error Error.Unsupported "unsupported index type %s" t

(* Returns a human-readable confirmation message. *)
let execute (st : Store.t) (d : Ast.ddl_stmt) : string =
  match d with
  | Ast.Create_document name ->
    ignore (Loader.create_empty st ~doc_name:name);
    Printf.sprintf "document %S created" name
  | Ast.Create_document_in (name, coll) ->
    ignore (Loader.create_empty st ~doc_name:name);
    Catalog.add_document_to_collection st.Store.cat ~collection:coll ~doc:name;
    Printf.sprintf "document %S created in collection %S" name coll
  | Ast.Drop_document name ->
    drop_document st name;
    Printf.sprintf "document %S dropped" name
  | Ast.Create_collection name ->
    Catalog.add_collection st.Store.cat name;
    Printf.sprintf "collection %S created" name
  | Ast.Drop_collection name ->
    List.iter (fun d -> drop_document st d)
      (Catalog.collection_documents st.Store.cat name);
    Hashtbl.remove st.Store.cat.Catalog.collections name;
    Catalog.mark_dirty st.Store.cat;
    Printf.sprintf "collection %S dropped" name
  | Ast.Load_string (xml, name) ->
    let _, n = Loader.load_string st ~doc_name:name xml in
    Printf.sprintf "document %S loaded (%d nodes)" name n
  | Ast.Load_file (path, name) ->
    let ic = open_in_bin path in
    let xml = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let _, n = Loader.load_string st ~doc_name:name xml in
    Printf.sprintf "document %S loaded from %s (%d nodes)" name path n
  | Ast.Create_index { ix_name; ix_doc; ix_on; ix_by; ix_type } ->
    let kind = index_kind_of_type ix_type in
    ignore
      (Index_mgr.create st ~name:ix_name ~doc:ix_doc ~path:ix_on
         ~key_path:ix_by ~kind);
    Printf.sprintf "index %S created on document %S" ix_name ix_doc
  | Ast.Drop_index name ->
    Index_mgr.drop st ~name;
    Printf.sprintf "index %S dropped" name
