(* A tour of the paper's internals through the public API: the
   descriptive schema, the rewriter's plans, the storage counters, and
   the consistency checker.

     dune exec examples/storage_tour.exe *)

open Sedna_core

let () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "sedna-tour" in
  Sedna_util.Sysutil.rm_rf dir;
  let db = Database.create dir in
  let session = Sedna_db.Session.connect db in
  let exec q = Sedna_db.Session.execute_string session q in

  let events = Sedna_workloads.Generators.library ~books:200 () in
  Database.with_txn db (fun txn st ->
      Database.lock_exn db txn ~doc:"lib" ~mode:Lock_mgr.Exclusive;
      ignore (Loader.load_events st ~doc_name:"lib" events));

  (* 1. the descriptive schema, queryable as XML (paper §4.1) *)
  print_endline "== descriptive schema (sedna:schema) ==";
  print_endline (exec {|schema("lib")|});

  (* 2. what the optimizing rewriter does to a query (paper §5.1) *)
  print_endline "\n== \\explain of a // query ==";
  print_endline
    (Sedna_db.Session.explain session
       {|for $b in doc("lib")//book where $b/price > 90 return $b/title|});

  (* 3. the storage counters behind a query (paper §4.2) *)
  print_endline "== counters for one descendant query ==";
  Sedna_util.Counters.reset_all ();
  ignore (exec {|count(doc("lib")//author)|});
  List.iter
    (fun name ->
      Printf.printf "  %-18s %d\n" name (Sedna_util.Counters.get name))
    [ Sedna_util.Counters.deref; Sedna_util.Counters.vas_fast_hit;
      Sedna_util.Counters.buffer_fault; Sedna_util.Counters.block_touch ];

  (* 4. per-schema-node block statistics *)
  print_endline "\n== block chains per schema node ==";
  let cat = Database.catalog db in
  let doc = Catalog.get_document cat "lib" in
  let root = Catalog.snode_by_id cat doc.Catalog.schema_root_id in
  List.iter
    (fun (s : Catalog.snode) ->
      Printf.printf "  %-28s %6d nodes in %3d block(s)\n"
        (String.concat "/" (Catalog.schema_path cat s))
        s.Catalog.node_count s.Catalog.block_count)
    (Catalog.schema_descendants root);

  (* 5. structural consistency after some churn *)
  ignore (exec {|UPDATE delete doc("lib")//book[price < 20]|});
  ignore (exec {|UPDATE insert <book><title>fresh</title><price>42</price></book>
                 into doc("lib")/library|});
  print_endline "\n== integrity check after updates ==";
  (match Integrity.check_all (Database.store db) with
   | [] -> print_endline "  all documents structurally consistent"
   | problems ->
     List.iter
       (fun (d, errs) ->
         Printf.printf "  %s: %d problem(s)\n" d (List.length errs))
       problems);

  Database.close db;
  print_endline "\nstorage_tour: done"
