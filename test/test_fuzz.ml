(* Randomized structural-update fuzzing: a script of inserts, deletes
   and value updates runs both against the page store and against a
   trivial in-memory reference DOM; after every script the serialized
   documents must match and the storage invariants must hold.

   This is the deepest correctness net in the suite: it exercises block
   splits, widening relocations, sibling rewiring, label allocation and
   text-store churn in combinations no hand-written test covers. *)

open Sedna_core

(* ---- reference DOM ------------------------------------------------- *)

type rnode = {
  mutable rname : string;
  mutable rtext : string option; (* Some = text node *)
  mutable rkids : rnode list;
}

let rec rserialize (n : rnode) : string =
  match n.rtext with
  | Some t -> Sedna_xml.Escape.escape_text t
  | None ->
    Printf.sprintf "<%s>%s</%s>" n.rname
      (String.concat "" (List.map rserialize n.rkids))
      n.rname

(* ---- scripts --------------------------------------------------------- *)

type op =
  | Insert_elem of int * int * int (* parent pick, position pick, name pick *)
  | Insert_text of int * int * int (* parent pick, position pick, value pick *)
  | Delete of int (* node pick (never the root) *)
  | Set_text of int * int (* text-node pick, value pick *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map3 (fun a b c -> Insert_elem (a, b, c)) small_nat small_nat (int_range 0 5));
        (3, map3 (fun a b c -> Insert_text (a, b, c)) small_nat small_nat (int_range 0 7));
        (2, map (fun a -> Delete a) small_nat);
        (2, map2 (fun a b -> Set_text (a, b)) small_nat (int_range 0 7));
      ])

let arb_script =
  QCheck.make
    ~print:(fun ops -> Printf.sprintf "<script of %d ops>" (List.length ops))
    QCheck.Gen.(list_size (int_range 1 60) op_gen)

let names = [| "a"; "b"; "c"; "d"; "e"; "f" |]
let texts = [| "x"; "hello"; "42"; ""; "some longer text value"; "<&>"; "t"; "zz" |]

(* ---- applying a script to both stores --------------------------------- *)

(* enumerate reference element nodes in document order (root first) *)
let rec relements (n : rnode) : rnode list =
  if n.rtext <> None then []
  else n :: List.concat_map relements n.rkids

let rec rtexts (n : rnode) : rnode list =
  match n.rtext with
  | Some _ -> [ n ]
  | None -> List.concat_map rtexts n.rkids

(* find-and-remove a node from its reference parent *)
let rec rdelete (root : rnode) (target : rnode) : bool =
  if List.memq target root.rkids then begin
    root.rkids <- List.filter (fun k -> k != target) root.rkids;
    true
  end
  else List.exists (fun k -> rdelete k target) root.rkids

(* storage-side node enumeration in document order *)
let stored_elements st root_desc =
  root_desc :: List.of_seq (Traverse.descendants_walk st root_desc)
  |> List.filter (fun d -> Node.kind st d = Catalog.Element)

let stored_texts st root_desc =
  List.of_seq (Traverse.descendants_walk st root_desc)
  |> List.filter (fun d -> Node.kind st d = Catalog.Text)

let apply_op (st : Store.t) (rroot : rnode) (sroot : unit -> Node.desc)
    (op : op) : unit =
  match op with
  | Insert_elem (ppick, pos, npick) ->
    let relems = relements rroot in
    let parent_idx = ppick mod List.length relems in
    let rparent = List.nth relems parent_idx in
    let sparent = List.nth (stored_elements st (sroot ())) parent_idx in
    let kids = rparent.rkids in
    let pos = pos mod (List.length kids + 1) in
    let name = names.(npick mod Array.length names) in
    let fresh = { rname = name; rtext = None; rkids = [] } in
    rparent.rkids <-
      (let rec ins i = function
         | rest when i = 0 -> fresh :: rest
         | [] -> [ fresh ]
         | k :: rest -> k :: ins (i - 1) rest
       in
       ins pos kids);
    (* storage side: left = (pos-1)-th child, right = pos-th *)
    let skids = Node.children st sparent in
    let left = if pos = 0 then None else Some (Node.handle st (List.nth skids (pos - 1))) in
    let right =
      if pos < List.length skids then Some (Node.handle st (List.nth skids pos))
      else None
    in
    ignore
      (Update_ops.insert_child st ~parent_handle:(Node.handle st sparent)
         ~left ~right ~kind:Catalog.Element
         ~name:(Some (Sedna_util.Xname.make name))
         ~value:None)
  | Insert_text (ppick, pos, vpick) ->
    let relems = relements rroot in
    let parent_idx = ppick mod List.length relems in
    let rparent = List.nth relems parent_idx in
    let sparent = List.nth (stored_elements st (sroot ())) parent_idx in
    (* avoid adjacent text nodes: the storage does not merge them, and
       neither does the reference, but serialization would differ from
       a reparse; keep them — both sides serialize the same way *)
    let kids = rparent.rkids in
    let pos = pos mod (List.length kids + 1) in
    let value = texts.(vpick mod Array.length texts) in
    if value <> "" then begin
      let fresh = { rname = ""; rtext = Some value; rkids = [] } in
      rparent.rkids <-
        (let rec ins i = function
           | rest when i = 0 -> fresh :: rest
           | [] -> [ fresh ]
           | k :: rest -> k :: ins (i - 1) rest
         in
         ins pos kids);
      let skids = Node.children st sparent in
      let left =
        if pos = 0 then None else Some (Node.handle st (List.nth skids (pos - 1)))
      in
      let right =
        if pos < List.length skids then Some (Node.handle st (List.nth skids pos))
        else None
      in
      ignore
        (Update_ops.insert_child st ~parent_handle:(Node.handle st sparent)
           ~left ~right ~kind:Catalog.Text ~name:None ~value:(Some value))
    end
  | Delete pick ->
    let relems = relements rroot in
    if List.length relems > 1 then begin
      let idx = 1 + (pick mod (List.length relems - 1)) in
      let rtarget = List.nth relems idx in
      let starget = List.nth (stored_elements st (sroot ())) idx in
      ignore (rdelete rroot rtarget);
      Update_ops.delete_node st (Node.handle st starget)
    end
  | Set_text (pick, vpick) ->
    let rts = rtexts rroot in
    if rts <> [] then begin
      let idx = pick mod List.length rts in
      let rtarget = List.nth rts idx in
      let starget = List.nth (stored_texts st (sroot ())) idx in
      let value = texts.(vpick mod Array.length texts) in
      let value = if value = "" then "nonempty" else value in
      rtarget.rtext <- Some value;
      Update_ops.set_text_value st (Node.handle st starget) value
    end

(* expand "<a/>" to "<a></a>" so both serializations compare equal;
   the fuzz documents carry no attributes, so the tag body is a name *)
let normalize (s : string) : string =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '<' then
       match String.index_from_opt s !i '>' with
       | Some j when j > !i + 1 && s.[j - 1] = '/' ->
         let name = String.sub s (!i + 1) (j - !i - 2) in
         Buffer.add_string buf ("<" ^ name ^ "></" ^ name ^ ">");
         i := j + 1
       | _ ->
         Buffer.add_char buf s.[!i];
         incr i
     else begin
       Buffer.add_char buf s.[!i];
       incr i
     end)
  done;
  Buffer.contents buf

let prop_script_matches_reference (ops : op list) : bool =
  let result = ref true in
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "f" "<root></root>");
      Database.with_txn db (fun _ st ->
          let rroot = { rname = "root"; rtext = None; rkids = [] } in
          let sroot () =
            List.hd (Node.children st (Test_util.doc_desc st "f"))
          in
          List.iter (fun op -> apply_op st rroot sroot op) ops;
          Test_util.check_invariants st "f";
          let stored = normalize (Node_ser.to_string st (sroot ())) in
          let expected = normalize (rserialize rroot) in
          if stored <> expected then begin
            Printf.printf "MISMATCH\n  stored:   %s\n  expected: %s\n" stored
              expected;
            result := false
          end));
  !result

let suite =
  [
    Test_util.qcheck_case ~count:80 "random update scripts match reference DOM"
      arb_script prop_script_matches_reference;
  ]
