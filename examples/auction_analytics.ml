(* Analytics over an XMark-style auction document: value joins across
   subtrees through FLWOR, aggregation, and the descendant-axis
   queries that the schema-driven storage accelerates.

     dune exec examples/auction_analytics.exe *)

open Sedna_core

let () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "sedna-auction" in
  Sedna_util.Sysutil.rm_rf dir;
  let db = Database.create dir in
  let session = Sedna_db.Session.connect db in
  let run q =
    Printf.printf "sedna> %s\n%s\n\n" q (Sedna_db.Session.execute_string session q)
  in

  let events =
    Sedna_workloads.Generators.auction ~items:120 ~people:80 ~auctions:100 ()
  in
  Database.with_txn db (fun _ st ->
      let _, n = Loader.load_events st ~doc_name:"auction" events in
      Printf.printf "loaded %d nodes\n\n" n);

  (* Q1 (XMark flavour): how many items are listed *)
  run {|count(doc("auction")/site/regions/namerica/item)|};

  (* Q2: auctions with many bidders, ordered by activity *)
  run
    {|for $a in doc("auction")/site/open_auctions/open_auction
      let $n := count($a/bidder)
      where $n >= 5
      order by $n descending
      return <busy auction="{string($a/@id)}" bidders="{$n}"/>|};

  (* Q3: join auctions to the items they sell *)
  run
    {|for $a in doc("auction")/site/open_auctions/open_auction[current > 100]
      for $i in doc("auction")//item[@id = string($a/itemref)]
      return <sale item="{string($i/name)}" current="{string($a/current)}"/>|};

  (* Q4: people with an address, grouped output *)
  run
    {|<directory>{
        for $p in doc("auction")/site/people/person[address]
        return <entry name="{string($p/name)}" city="{string($p/address/city)}"/>
      }</directory>|};

  (* Q5: the '//' axis over a deep document — the rewriter turns this
     into a schema-resolved descendant scan *)
  run {|count(doc("auction")//listitem)|};
  run {|sum(doc("auction")//increase)|};

  (* Q6: quantified search *)
  run
    {|some $a in doc("auction")/site/open_auctions/open_auction
      satisfies count($a/bidder) >= 6|};

  (* Q7: positional access *)
  run {|string(doc("auction")/site/people/person[10]/name)|};

  Database.close db;
  print_endline "auction_analytics: done"
