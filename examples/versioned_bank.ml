(* Transactions, snapshots and recovery (paper §6) on a small "bank"
   document: a read-only transaction keeps seeing its snapshot while an
   updater commits; an aborted transaction leaves no trace; a crash
   loses nothing committed; hot backup restores to a fresh directory.

     dune exec examples/versioned_bank.exe *)

open Sedna_core

let accounts = {|<bank><account id="a1"><owner>alice</owner><balance>100</balance></account><account id="a2"><owner>bob</owner><balance>50</balance></account></bank>|}

let balance_query = {|string(doc("bank")//account[@id="a1"]/balance)|}

let () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "sedna-bank" in
  let backup = dir ^ "-backup" in
  let restored = dir ^ "-restored" in
  List.iter Sedna_util.Sysutil.rm_rf [ dir; backup; restored ];

  let db = Database.create dir in
  let session = Sedna_db.Session.connect db in
  let exec q = Sedna_db.Session.execute_string session q in
  ignore (exec (Printf.sprintf "LOAD \"%s\" \"bank\""
                  (let f = Filename.temp_file "bank" ".xml" in
                   let oc = open_out f in
                   output_string oc accounts;
                   close_out oc;
                   f)));
  Printf.printf "initial balance of a1: %s\n" (exec balance_query);

  (* --- snapshot isolation: a reader does not see a later commit ---- *)
  let reader = Database.begin_txn ~read_only:true db in
  let read_balance () =
    Database.run db reader (fun () ->
        let st = Database.txn_store db reader in
        let ctx = Sedna_engine.Executor.initial_ctx st in
        let q, e = Sedna_xquery.Xq_parser.parse_query balance_query in
        ignore q;
        Sedna_engine.Xdm.serialize st
          (Sedna_engine.Executor.eval ctx (Sedna_xquery.Rewriter.optimize e)))
  in
  Printf.printf "reader snapshot sees: %s\n" (read_balance ());

  (* updater commits a withdrawal while the reader is open *)
  ignore
    (exec
       {|UPDATE replace $b in doc("bank")//account[@id="a1"]/balance
         with <balance>80</balance>|});
  Printf.printf "after commit, new sessions see: %s\n" (exec balance_query);
  Printf.printf "reader still sees its snapshot: %s\n" (read_balance ());
  Database.commit db reader;

  (* --- abort: an uncommitted update leaves no trace ------------------ *)
  Sedna_db.Session.begin_txn session;
  ignore
    (exec
       {|UPDATE replace $b in doc("bank")//account[@id="a1"]/balance
         with <balance>0</balance>|});
  Sedna_db.Session.rollback session;
  Printf.printf "after rollback: %s\n" (exec balance_query);

  (* --- hot backup while running -------------------------------------- *)
  ignore (Backup.full db ~dest:backup);

  (* --- crash and recover --------------------------------------------- *)
  ignore
    (exec
       {|UPDATE replace $b in doc("bank")//account[@id="a2"]/balance
         with <balance>999</balance>|});
  Database.crash db;
  let db2 = Database.open_existing dir in
  let s2 = Sedna_db.Session.connect db2 in
  Printf.printf "after crash+recovery, a2 = %s (expected 999)\n"
    (Sedna_db.Session.execute_string s2 {|string(doc("bank")//account[@id="a2"]/balance)|});
  Database.close db2;

  (* --- restore the hot backup into a fresh directory ------------------ *)
  let db3 = Backup.restore ~src:backup ~dest:restored () in
  let s3 = Sedna_db.Session.connect db3 in
  Printf.printf "restored backup, a1 = %s (expected 80), a2 = %s (expected 50)\n"
    (Sedna_db.Session.execute_string s3 balance_query)
    (Sedna_db.Session.execute_string s3
       {|string(doc("bank")//account[@id="a2"]/balance)|});
  Database.close db3;
  print_endline "versioned_bank: done"
