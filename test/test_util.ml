(* Shared fixtures: throw-away databases, loading helpers, a query
   runner, and a storage invariant checker used by the structural
   tests. *)

open Sedna_core

let counter = ref 0

let fresh_dir () =
  incr counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sedna-test-%d-%d" (Unix.getpid ()) !counter)
  in
  Sedna_util.Sysutil.rm_rf dir;
  dir

let with_db ?buffer_frames f =
  let dir = fresh_dir () in
  let db = Database.create ?buffer_frames dir in
  Fun.protect
    ~finally:(fun () -> try Database.close db with _ -> ())
    (fun () -> f db)

(* load an XML string as [name] inside its own transaction *)
let load db name xml =
  Database.with_txn db (fun txn st ->
      Database.lock_exn db txn ~doc:name ~mode:Lock_mgr.Exclusive;
      Loader.load_string st ~doc_name:name xml)

let load_events db name events =
  Database.with_txn db (fun txn st ->
      Database.lock_exn db txn ~doc:name ~mode:Lock_mgr.Exclusive;
      Loader.load_events st ~doc_name:name events)

(* run one statement in auto-commit mode *)
let exec db q =
  let s = Sedna_db.Session.connect db in
  Sedna_db.Session.execute_string s q

(* a database pre-loaded with one document; returns a query runner *)
let with_doc xml f =
  with_db (fun db ->
      ignore (load db "d" xml);
      f db (fun q -> exec db q))

(* does document [doc]'s schema have the child-step path [names]? *)
let schema_has (cat : Catalog.t) ~doc names =
  let root = Catalog.snode_by_id cat (Catalog.get_document cat doc).Catalog.schema_root_id in
  Catalog.resolve_steps cat ~root
    (List.map (fun n -> (false, Sedna_util.Xname.make n)) names)
  <> []

let doc_desc (st : Store.t) name =
  let doc = Catalog.get_document st.Store.cat name in
  Indirection.get st.Store.bm doc.Catalog.doc_indir

(* ---- storage invariant checker ------------------------------------- *)

(* the canonical checker lives in the library: Sedna_core.Integrity *)
let check_invariants (st : Store.t) name =
  match Integrity.check_document st name with
  | [] -> ()
  | es -> Alcotest.failf "invariant violations:\n%s" (String.concat "\n" es)

(* naive reference model built from the same XML, for axis testing *)
type ref_node = {
  rkind : Catalog.kind;
  rname : string;
  rvalue : string;
  rchildren : ref_node list;
}

let rec ref_of_tree (t : Sedna_xml.Xml_parser.tree) : ref_node =
  match t with
  | Sedna_xml.Xml_parser.Element (n, atts, kids) ->
    {
      rkind = Catalog.Element;
      rname = Sedna_util.Xname.to_string n;
      rvalue = "";
      rchildren =
        List.map
          (fun { Sedna_xml.Xml_event.name; value } ->
            {
              rkind = Catalog.Attribute;
              rname = Sedna_util.Xname.to_string name;
              rvalue = value;
              rchildren = [];
            })
          atts
        @ List.map ref_of_tree kids;
    }
  | Sedna_xml.Xml_parser.Tree_text s ->
    { rkind = Catalog.Text; rname = ""; rvalue = s; rchildren = [] }
  | Sedna_xml.Xml_parser.Tree_comment s ->
    { rkind = Catalog.Comment; rname = ""; rvalue = s; rchildren = [] }
  | Sedna_xml.Xml_parser.Tree_pi (t', d) ->
    { rkind = Catalog.Pi; rname = t'; rvalue = d; rchildren = [] }

let qcheck_case ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)
