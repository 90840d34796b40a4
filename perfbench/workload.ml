(* The benchmark's workloads: datasets, statement templates and the
   oracle each answer is checked against.

   Every expected answer is computed from the generator's parameters
   (Generators.auction fixes names, bid counts, quantities and cities
   by element index; only free text, phone numbers and references
   depend on the seed), never by asking the database. *)

module Gen = Sedna_workloads.Generators
module Session = Sedna_db.Session

type cls = Lookup | Scan | Write

let cls_name = function Lookup -> "lookup" | Scan -> "scan" | Write -> "write"

(* ---- datasets ---------------------------------------------------------- *)

type sizes = { items : int; people : int; auctions : int }

type dataset =
  | Auction of sizes
  | Buckets of { docs : int; buckets : int; per_bucket : int }

(* 2000 items, 1500 people and 1500 auctions per unit of scale *)
let auction scale =
  Auction { items = 2000 * scale; people = 1500 * scale; auctions = 1500 * scale }

(* one document per write connection, so S2PL document locks never
   serialize the two writers *)
let bucket_doc conn = Printf.sprintf "w%d" conn

let bucket_xml ~buckets ~per_bucket =
  let b = Buffer.create (buckets * (8 + (5 * per_bucket))) in
  Buffer.add_string b "<r>";
  for _ = 1 to buckets do
    Buffer.add_string b "<k>";
    for _ = 1 to per_bucket do
      Buffer.add_string b "<e/>"
    done;
    Buffer.add_string b "</k>"
  done;
  Buffer.add_string b "</r>";
  Buffer.contents b

let bidders_of_auction k = 1 + (k mod 6)

let initial_bidders s =
  let n = ref 0 in
  for k = 0 to s.auctions - 1 do
    n := !n + bidders_of_auction k
  done;
  !n

(* ---- statements ---------------------------------------------------------- *)

type stmt = {
  tpl : string;
  cls : cls;
  text : string;
  check : Session.result -> bool;
}

let items_is want = function Session.Items s -> s = want | _ -> false
let updated = function Session.Updated n -> n > 0 | _ -> false

let num_of = function
  | Session.Items s -> float_of_string_opt (String.trim s)
  | _ -> None

let person_name s rng =
  let k = Random.State.int rng s.people in
  {
    tpl = "person_name";
    cls = Lookup;
    text =
      Printf.sprintf {|string(doc("a")/site/people/person[@id="person%d"]/name)|} k;
    check = items_is (Printf.sprintf "Person %d" k);
  }

(* bidder b of auction k bids 1 + b mod 30, and k has 1 + k mod 6
   bidders: the sum is n(n+1)/2.  Concurrent bidder_inserts (mixed_rw)
   only add positive increases, so the base is a lower bound. *)
let auction_bids ~exact s rng =
  let k = Random.State.int rng s.auctions in
  let n = bidders_of_auction k in
  let base = float_of_int (n * (n + 1) / 2) in
  {
    tpl = "auction_bids";
    cls = Lookup;
    text =
      Printf.sprintf
        {|sum(doc("a")/site/open_auctions/open_auction[@id="auction%d"]/bidder/increase)|}
        k;
    check =
      (fun r ->
        match num_of r with
        | Some v -> if exact then v = base else v >= base
        | None -> false);
  }

(* item i has quantity 1 + i mod 5 *)
let item_quantity s rng =
  let q = Random.State.int rng 5 in
  let want = ref 0 in
  for i = 0 to s.items - 1 do
    if 1 + (i mod 5) > q then incr want
  done;
  {
    tpl = "item_quantity";
    cls = Scan;
    text =
      Printf.sprintf {|count(doc("a")/site/regions/namerica/item[quantity > %d])|} q;
    check = items_is (string_of_int !want);
  }

(* person i has an address iff i mod 3 = 0, in city i mod 29 *)
let city_people s rng =
  let c = Random.State.int rng 29 in
  let ids = ref [] in
  for i = s.people - 1 downto 0 do
    if i mod 3 = 0 && i mod 29 = c then ids := Printf.sprintf "person%d" i :: !ids
  done;
  {
    tpl = "city_people";
    cls = Scan;
    text =
      Printf.sprintf
        {|for $p in doc("a")/site/people/person[address/city = "City%d"] return string($p/@id)|}
        c;
    check = items_is (String.concat " " !ids);
  }

let bidder_insert s rng =
  let k = Random.State.int rng s.auctions in
  let p = Random.State.int rng s.people in
  {
    tpl = "bidder_insert";
    cls = Write;
    text =
      Printf.sprintf
        {|UPDATE insert <bidder><date>2026-10-16</date><personref>person%d</personref><increase>%d.00</increase></bidder> into doc("a")/site/open_auctions/open_auction[@id="auction%d"]|}
        p (1 + Random.State.int rng 30) k;
    check = updated;
  }

let e_insert ~conn ~buckets rng =
  {
    tpl = "e_insert";
    cls = Write;
    text =
      Printf.sprintf {|UPDATE insert <e v="%d"/> into doc("%s")/r/k[%d]|}
        (Random.State.bits rng) (bucket_doc conn)
        (1 + Random.State.int rng buckets);
    check = updated;
  }

(* ---- workloads ----------------------------------------------------------- *)

type t = {
  name : string;
  data : dataset;  (* what the benchmark measures *)
  small : dataset;  (* the same shape in miniature, for --check *)
  pool : int;  (* buffer frames of the serving database, 4 KiB each *)
  mix : dataset -> conn:int -> (int * (Random.State.t -> stmt)) list;
      (* weighted templates per connection *)
}

let sizes = function
  | Auction s -> s
  | Buckets _ -> invalid_arg "not an auction dataset"

let read_mix ~exact s =
  [ (4, person_name s); (4, auction_bids ~exact s); (1, item_quantity s); (1, city_people s) ]

let small_auction = Auction { items = 60; people = 90; auctions = 90 }

(* Why each workload exists is recorded in BENCHMARK.json. *)
let all =
  [
    (* all data resident: wire, compile, eval and engine-lock queueing
       behind scans; no faults, no WAL traffic *)
    {
      name = "read_hot";
      data = auction 1;
      small = small_auction;
      pool = 4096;
      mix = (fun d ~conn:_ -> read_mix ~exact:true (sizes d));
    };
    (* data about 35 times the pool: lookups fault pages through
       Buffer_mgr and File_store *)
    {
      name = "read_cold";
      data = auction 4;
      small = small_auction;
      pool = 256;
      mix =
        (fun d ~conn:_ ->
          let s = sizes d in
          [ (1, person_name s); (1, auction_bids ~exact:true s) ]);
    };
    (* small durable auto-commits: WAL append and the group-commit
       fsync dominate *)
    {
      name = "write_commit";
      data = Buckets { docs = 2; buckets = 256; per_bucket = 4 };
      small = Buckets { docs = 2; buckets = 8; per_bucket = 4 };
      pool = 4096;
      mix =
        (fun d ~conn ->
          match d with
          | Buckets { buckets; _ } -> [ (1, e_insert ~conn ~buckets) ]
          | Auction _ -> invalid_arg "not a bucket dataset");
    };
    (* read_hot's reads beside a writer on the same document *)
    {
      name = "mixed_rw";
      data = auction 1;
      small = small_auction;
      pool = 4096;
      mix =
        (fun d ~conn ->
          let s = sizes d in
          if conn = 0 then read_mix ~exact:false s else [ (1, bidder_insert s) ]);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* A seeded statement stream for one connection.  Templates are dealt
   from a shuffled deck holding each template as many times as its
   weight, so every deck has the mix's exact proportions: a seed picks
   the order and the ids, never a different share of expensive
   statements. *)
let stream w data ~seed ~conn =
  let rng = Random.State.make [| seed; conn |] in
  let deck =
    Array.of_list (List.concat_map (fun (wt, f) -> List.init wt (fun _ -> f)) (w.mix data ~conn))
  in
  let next = ref (Array.length deck) in
  fun () ->
    if !next = Array.length deck then begin
      for i = Array.length deck - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = deck.(i) in
        deck.(i) <- deck.(j);
        deck.(j) <- t
      done;
      next := 0
    end;
    incr next;
    deck.(!next - 1) rng

(* The statement counting the elements the workload's writes add to,
   and that count right after set-up: at the end of a run it must equal
   this plus every acknowledged write. *)
let written = function
  | Auction s ->
    ({|count(doc("a")/site/open_auctions/open_auction/bidder)|}, initial_bidders s)
  | Buckets { docs; buckets; per_bucket } ->
    ( Printf.sprintf "sum((%s))"
        (String.concat ", "
           (List.init docs (fun c -> Printf.sprintf {|count(doc("%s")/r/k/e)|} (bucket_doc c)))),
      docs * buckets * per_bucket )

(* ---- building a dataset ---------------------------------------------------- *)

let load db name f =
  Sedna_core.Database.with_txn db (fun txn st ->
      Sedna_core.Database.lock_exn db txn ~doc:name ~mode:Sedna_core.Lock_mgr.Exclusive;
      ignore (f st))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* Build the dataset in [dir] through the public load path, close it
   and reopen it with the workload's pool.  The reopen matters: a
   single-transaction load grows the pool to hold every page it pins,
   so without it a "cold" pool would hold the whole document.  Returns
   the open database and the bytes of XML generated. *)
let build w data ~seed ~dir =
  rm_rf dir;
  mkdir_p (Filename.dirname dir);
  let db = Sedna_core.Database.create dir in
  let xml_bytes =
    match data with
    | Auction s ->
      let events =
        Gen.auction ~seed ~items:s.items ~people:s.people ~auctions:s.auctions ()
      in
      let bytes = String.length (Gen.to_xml_string events) in
      load db "a" (fun st -> Sedna_core.Loader.load_events st ~doc_name:"a" events);
      let sess = Session.connect db in
      List.iter
        (fun ddl -> ignore (Session.execute sess ddl))
        [
          {|CREATE INDEX "person_id" ON doc("a")/site/people/person BY @id AS xs:string|};
          {|CREATE INDEX "auction_id" ON doc("a")/site/open_auctions/open_auction BY @id AS xs:string|};
        ];
      bytes
    | Buckets { docs; buckets; per_bucket } ->
      let xml = bucket_xml ~buckets ~per_bucket in
      for conn = 0 to docs - 1 do
        let doc_name = bucket_doc conn in
        load db doc_name (fun st -> Sedna_core.Loader.load_string st ~doc_name xml)
      done;
      docs * String.length xml
  in
  Sedna_core.Database.close db;
  let db = Sedna_core.Database.open_existing ~buffer_frames:w.pool dir in
  let frames = Sedna_core.Buffer_mgr.frame_count (Sedna_core.Database.buffer db) in
  if frames <> w.pool then
    failwith
      (Printf.sprintf "%s: reopened pool has %d frames, want %d" w.name frames w.pool);
  (db, xml_bytes)
