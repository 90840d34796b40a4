(* The database catalog: descriptive schemas, the document and
   collection registries, index definitions, and allocation state for
   the text store and the indirection table.

   The descriptive schema (paper §4.1) is a relaxed DataGuide: every
   path in a document has exactly one path in the schema, so the schema
   is a tree.  It is generated from data dynamically and maintained
   incrementally; every schema node points to the chain of data blocks
   storing its nodes.

   The catalog is an in-memory structure; its persistent form is a
   Marshal blob written with commit records (when the catalog changed)
   and at checkpoints, so recovery always has a catalog consistent with
   the replayed pages. *)

open Sedna_util

type kind = Document | Element | Attribute | Text | Comment | Pi

let kind_code = function
  | Document -> 0
  | Element -> 1
  | Attribute -> 2
  | Text -> 3
  | Comment -> 4
  | Pi -> 5

let kind_name = function
  | Document -> "document"
  | Element -> "element"
  | Attribute -> "attribute"
  | Text -> "text"
  | Comment -> "comment"
  | Pi -> "processing-instruction"

type snode = {
  id : int;
  kind : kind;
  name : Xname.t option;
  mutable parent_id : int; (* -1 for roots; by id to keep Marshal acyclic *)
  mutable children : snode list; (* order of first appearance *)
  mutable child_slot : int; (* this node's slot in parent descriptors *)
  mutable first_block : Xptr.t;
  mutable last_block : Xptr.t;
  mutable node_count : int;
  mutable block_count : int;
}

type index_kind = String_index | Number_index

type index_def = {
  idx_name : string;
  idx_doc : string;
  idx_path : string list; (* element-name path below the root element *)
  idx_key_path : string list; (* path from indexed node to the key value *)
  idx_kind : index_kind;
  mutable idx_root : Xptr.t; (* B-tree root *)
}

type doc = {
  doc_name : string;
  mutable in_collection : string option;
  schema_root_id : int;
  mutable doc_indir : Xptr.t; (* indirection cell of the document node *)
}

(* Text-store free map, keyed by page address.  The hash is that of the
   page's 64-bit on-page value, which fixes the table's iteration order
   and hence which page [text_space_find] offers: texts land on the
   same pages, and the data file gets the same bytes, whatever the
   in-memory representation of [Xptr.t]. *)
module Text_space = Hashtbl.Make (struct
  type t = Xptr.t

  let equal = Xptr.equal
  let hash p = Hashtbl.hash (Xptr.to_int64 p)
end)

type t = {
  mutable next_snode_id : int;
  snodes : (int, snode) Hashtbl.t;
  documents : (string, doc) Hashtbl.t;
  doc_roots : (int, string) Hashtbl.t; (* schema root id -> document *)
  collections : (string, string list) Hashtbl.t;
  indexes : (string, index_def) Hashtbl.t;
  (* text store allocation state: pages with known free bytes *)
  text_space : int Text_space.t; (* page -> free bytes *)
  (* indirection table allocation state *)
  mutable indir_free_head : Xptr.t; (* first free cell, chained in-page *)
  mutable indir_pages : Xptr.t list;
  mutable dirty : bool; (* changed since last persisted *)
}

let create () =
  {
    next_snode_id = 1;
    snodes = Hashtbl.create 64;
    documents = Hashtbl.create 16;
    doc_roots = Hashtbl.create 16;
    collections = Hashtbl.create 8;
    indexes = Hashtbl.create 8;
    text_space = Text_space.create 64;
    indir_free_head = Xptr.null;
    indir_pages = [];
    dirty = false;
  }

let mark_dirty t = t.dirty <- true
let is_dirty t = t.dirty
let clear_dirty t = t.dirty <- false

(* ---- schema -------------------------------------------------------- *)

let snode_by_id t id =
  match Hashtbl.find_opt t.snodes id with
  | Some s -> s
  | None ->
    Error.raise_error Error.Storage_corruption "unknown schema node %d" id

let parent_snode t (s : snode) =
  if s.parent_id < 0 then None else Some (snode_by_id t s.parent_id)

let new_snode t ~parent ~kind ~name =
  let parent_id, child_slot =
    match parent with
    | None -> (-1, 0)
    | Some p -> (p.id, List.length p.children)
  in
  let s =
    {
      id = t.next_snode_id;
      kind;
      name;
      parent_id;
      children = [];
      child_slot;
      first_block = Xptr.null;
      last_block = Xptr.null;
      node_count = 0;
      block_count = 0;
    }
  in
  t.next_snode_id <- t.next_snode_id + 1;
  Hashtbl.add t.snodes s.id s;
  (match parent with
   | Some p -> p.children <- p.children @ [ s ]
   | None -> ());
  mark_dirty t;
  s

let name_matches name = function
  | None -> name = None
  | Some n -> (match name with Some m -> Xname.equal n m | None -> false)

(* The incremental maintenance step: find the child schema node for a
   (kind, name), creating it on first appearance. *)
let find_or_add_child t parent ~kind ~name =
  match
    List.find_opt
      (fun c -> c.kind = kind && name_matches name c.name)
      parent.children
  with
  | Some c -> (c, false)
  | None -> (new_snode t ~parent:(Some parent) ~kind ~name, true)

let find_child parent ~kind ~name =
  List.find_opt
    (fun c -> c.kind = kind && name_matches name c.name)
    parent.children

(* All schema descendants (excluding [s]); preorder. *)
let rec schema_descendants s =
  List.concat_map (fun c -> c :: schema_descendants c) s.children

let schema_size s = 1 + List.length (schema_descendants s)

(* Path of names from the schema root to [s] (element steps only). *)
let rec schema_path t s =
  match parent_snode t s with
  | None -> []
  | Some p ->
    schema_path t p
    @ [ (match s.name with Some n -> Xname.to_string n | None -> kind_name s.kind) ]

(* ---- documents ----------------------------------------------------- *)

let add_document t ~name ~schema_root_id =
  if Hashtbl.mem t.documents name then
    Error.raise_error Error.Document_exists "document %S already exists" name;
  let d =
    { doc_name = name; in_collection = None; schema_root_id; doc_indir = Xptr.null }
  in
  Hashtbl.add t.documents name d;
  Hashtbl.replace t.doc_roots schema_root_id name;
  mark_dirty t;
  d

let find_document t name = Hashtbl.find_opt t.documents name

let document_of_schema_root t id =
  Option.bind (Hashtbl.find_opt t.doc_roots id) (find_document t)

let get_document t name =
  match find_document t name with
  | Some d -> d
  | None -> Error.raise_error Error.No_such_document "no document %S" name

let remove_document t name =
  let d = get_document t name in
  (match d.in_collection with
   | Some c ->
     let docs = Option.value (Hashtbl.find_opt t.collections c) ~default:[] in
     Hashtbl.replace t.collections c (List.filter (( <> ) name) docs)
   | None -> ());
  Hashtbl.remove t.documents name;
  Hashtbl.remove t.doc_roots d.schema_root_id;
  mark_dirty t

let document_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.documents [] |> List.sort compare

(* ---- collections ---------------------------------------------------- *)

let add_collection t name =
  if Hashtbl.mem t.collections name then
    Error.raise_error Error.Collection_exists "collection %S already exists" name;
  Hashtbl.add t.collections name [];
  mark_dirty t

let collection_documents t name =
  match Hashtbl.find_opt t.collections name with
  | Some docs -> docs
  | None -> Error.raise_error Error.No_such_collection "no collection %S" name

let add_document_to_collection t ~collection ~doc =
  let docs = collection_documents t collection in
  Hashtbl.replace t.collections collection (docs @ [ doc ]);
  (get_document t doc).in_collection <- Some collection;
  mark_dirty t

let collection_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.collections [] |> List.sort compare

let remove_collection t name =
  List.iter (fun d -> remove_document t d) (collection_documents t name);
  Hashtbl.remove t.collections name;
  mark_dirty t

(* ---- indexes --------------------------------------------------------- *)

let add_index t def =
  if Hashtbl.mem t.indexes def.idx_name then
    Error.raise_error Error.Index_exists "index %S already exists" def.idx_name;
  Hashtbl.add t.indexes def.idx_name def;
  mark_dirty t

let find_index t name = Hashtbl.find_opt t.indexes name

let get_index t name =
  match find_index t name with
  | Some d -> d
  | None -> Error.raise_error Error.No_such_index "no index %S" name

let remove_index t name =
  ignore (get_index t name);
  Hashtbl.remove t.indexes name;
  mark_dirty t

let indexes_for_document t doc =
  Hashtbl.fold
    (fun _ d acc -> if d.idx_doc = doc then d :: acc else acc)
    t.indexes []

(* ---- schema path resolution ------------------------------------------ *)

(* Element-name matching for query-side path resolution: queries usually
   carry unprefixed names, so an empty uri matches any namespace. *)
let snode_matches_name (want : Xname.t) (s : snode) =
  s.kind = Element
  && match s.name with Some m -> Xname.matches ~want m | None -> false

(* Resolve a structural path of element-name steps ([descendant] = true
   for a descendant step, false for a child step) against the schema
   tree.  Main-memory only — no data block is touched (paper §5.1.4).
   Result is sorted by schema-node id and duplicate-free. *)
let resolve_steps _t ~(root : snode) (steps : (bool * Xname.t) list) :
    snode list =
  List.fold_left
    (fun frontier (descendant, name) ->
      let candidates s = if descendant then schema_descendants s else s.children in
      List.concat_map
        (fun s -> List.filter (snode_matches_name name) (candidates s))
        frontier
      |> List.sort_uniq (fun a b -> compare a.id b.id))
    [ root ] steps

(* The schema nodes an index definition covers: its element path, child
   steps below the document node.  Used by the rewriter to decide
   whether an index answers exactly the nodes a query path reaches. *)
let index_target_snodes t (def : index_def) : snode list =
  match find_document t def.idx_doc with
  | None -> []
  | Some d ->
    let root = snode_by_id t d.schema_root_id in
    resolve_steps t ~root
      (List.map (fun n -> (false, Xname.of_string n)) def.idx_path)

(* ---- text / indirection allocation state ----------------------------- *)

let text_space_set t (p : Xptr.t) free =
  if free <= 0 then Text_space.remove t.text_space p
  else Text_space.replace t.text_space p free

let text_space_find t ~need =
  let found = ref None in
  (try
     Text_space.iter
       (fun p free ->
         if free >= need then begin
           found := Some p;
           raise Exit
         end)
       t.text_space
   with Exit -> ());
  !found

(* ---- persistence ----------------------------------------------------- *)

type persistent = {
  p_catalog : t;
  p_page_count : int;
  p_free_pages : int list;
}

(* The blob is a Marshal image of in-memory records, so it is only
   readable by a build with the same layout of every catalog field.  The
   format tag names that layout; bump it whenever a marshaled type
   changes (version 2: [Xptr.t] fields are immediate ints; version 3:
   no plan-cache epoch). *)
let format_tag = "sedna-catalog/3\n"

let serialize t ~page_count ~free_pages =
  format_tag
  ^ Marshal.to_string
      { p_catalog = t; p_page_count = page_count; p_free_pages = free_pages }
      []

let deserialize (s : string) : persistent =
  if not (String.starts_with ~prefix:format_tag s) then
    Error.raise_error Error.Storage_corruption
      "catalog blob has no %S format tag: written by an incompatible \
       version, or damaged"
      (String.trim format_tag);
  Counters.bump Counters.catalog_decodes;
  Marshal.from_string s (String.length format_tag)
