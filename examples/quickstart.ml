(* Quickstart: create a database, load the paper's Figure-2 document,
   query it, update it, and read it back.

     dune exec examples/quickstart.exe *)

open Sedna_core

let figure2 =
  {|<library>
  <book><title>Foundations of Databases</title>
        <author>Abiteboul</author><author>Hull</author><author>Vianu</author></book>
  <book><title>An Introduction to Database Systems</title><author>Date</author>
        <issue><publisher>Addison-Wesley</publisher><year>2004</year></issue></book>
  <paper><title>A Relational Model for Large Shared Data Banks</title>
         <author>Codd</author></paper>
</library>|}

let () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "sedna-quickstart" in
  Sedna_util.Sysutil.rm_rf dir;

  (* 1. create a database and connect a session *)
  let db = Database.create dir in
  let session = Sedna_db.Session.connect db in
  let run q =
    Printf.printf "sedna> %s\n%s\n\n" q (Sedna_db.Session.execute_string session q)
  in

  (* 2. load a document (DDL statement) *)
  Printf.printf "%s\n\n"
    (Sedna_db.Session.execute_string session
       (Printf.sprintf "LOAD \"%s\" \"library\""
          (let f = Filename.temp_file "fig2" ".xml" in
           let oc = open_out f in
           output_string oc figure2;
           close_out oc;
           f)));

  (* 3. query it: XPath, FLWOR, aggregation, constructors *)
  run {|doc("library")/library/book/title|};
  run {|count(doc("library")//author)|};
  run {|for $b in doc("library")/library/book
        where count($b/author) > 1
        return string($b/title)|};
  run {|<authors>{for $a in doc("library")//author
                  order by string($a)
                  return <name>{string($a)}</name>}</authors>|};

  (* 4. update it: XUpdate statements *)
  run {|UPDATE insert <book><title>Sedna Internals</title><author>ISPRAS</author></book>
        into doc("library")/library|};
  run {|doc("library")/library/book[last()]|};
  run {|UPDATE delete doc("library")//paper|};
  run {|count(doc("library")/library/*)|};

  (* 5. everything is transactional: an explicit transaction *)
  Sedna_db.Session.begin_txn session;
  ignore
    (Sedna_db.Session.execute session
       {|UPDATE insert <author>Added In Txn</author> into doc("library")/library/book[1]|});
  Sedna_db.Session.rollback session;
  run {|count(doc("library")/library/book[1]/author)|};

  Database.close db;
  print_endline "quickstart: done"
