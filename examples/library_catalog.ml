(* A catalogue application on the paper's library schema at a realistic
   size: bulk load, a value index, reporting queries and maintenance
   updates — the workload the schema-driven clustering is built for.

     dune exec examples/library_catalog.exe *)

open Sedna_core

let () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "sedna-catalog" in
  Sedna_util.Sysutil.rm_rf dir;
  let db = Database.create dir in
  let session = Sedna_db.Session.connect db in
  let run ?(show = true) q =
    let r = Sedna_db.Session.execute_string session q in
    if show then Printf.printf "sedna> %s\n%s\n\n" q r
  in

  (* bulk load 500 books through the loader API (faster than LOAD for
     generated event streams) *)
  let events = Sedna_workloads.Generators.library ~books:500 () in
  Database.with_txn db (fun _ st ->
      let _, n = Loader.load_events st ~doc_name:"catalog" events in
      Printf.printf "loaded %d nodes\n\n" n);

  (* the descriptive schema was built incrementally during the load *)
  let cat = Database.catalog db in
  let doc = Catalog.get_document cat "catalog" in
  let root = Catalog.snode_by_id cat doc.Catalog.schema_root_id in
  Printf.printf "descriptive schema has %d nodes for %d XML nodes\n\n"
    (Catalog.schema_size root)
    (List.fold_left
       (fun acc s -> acc + s.Catalog.node_count)
       root.Catalog.node_count
       (Catalog.schema_descendants root));

  (* a value index over titles *)
  run {|CREATE INDEX "title-idx" ON doc("catalog")/library/book BY title AS xs:string|};

  (* reporting *)
  run {|count(doc("catalog")/library/book)|};
  run {|avg(doc("catalog")//price)|};
  run
    {|for $b in doc("catalog")/library/book
      where $b/price > 95
      order by string($b/title)
      return <expensive title="{string($b/title)}" price="{string($b/price)}"/>|};
  run
    {|let $years := distinct-values(doc("catalog")/library/book/@year)
      return count($years)|};
  run
    {|for $p in doc("catalog")/library/paper
      return string($p/title)|};

  (* maintenance: price increase on old books, catalogue cleanup *)
  run {|UPDATE replace $p in doc("catalog")//book[@year < 1980]/price
        with <price>{xs:integer(string($p)) + 5}</price>|};
  run {|UPDATE delete doc("catalog")//book[price < 15]|};
  run {|count(doc("catalog")/library/book)|};

  (* the index keeps working after updates *)
  run {|index-scan("title-idx", string(doc("catalog")/library/book[1]/title))|};

  Database.close db;
  print_endline "library_catalog: done"
