(* Qualified names.  The descriptive schema and the query compiler share
   this representation.  Prefix is kept for serialization fidelity; name
   equality is (uri, local). *)

type t = { prefix : string; uri : string; local : string }

let make ?(prefix = "") ?(uri = "") local = { prefix; uri; local }

let local t = t.local
let uri t = t.uri
let prefix t = t.prefix

let equal a b = String.equal a.uri b.uri && String.equal a.local b.local

let compare a b =
  let c = String.compare a.uri b.uri in
  if c <> 0 then c else String.compare a.local b.local

let hash t = Hashtbl.hash (t.uri, t.local)

(* Query-side name tests: queries usually carry unprefixed names, so an
   empty uri on the wanted name matches any namespace. *)
let matches ~want got =
  String.equal want.local got.local
  && (want.uri = "" || String.equal want.uri got.uri)

(* Display form: prefix:local when prefixed, else local. *)
let to_string t =
  if t.prefix = "" then t.local else t.prefix ^ ":" ^ t.local

(* Clark notation {uri}local, canonical for diagnostics. *)
let to_clark t = if t.uri = "" then t.local else "{" ^ t.uri ^ "}" ^ t.local

let of_string s =
  match String.index_opt s ':' with
  | None -> make s
  | Some i ->
    make
      ~prefix:(String.sub s 0 i)
      (String.sub s (i + 1) (String.length s - i - 1))

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* XML name validity: simplified NCName check over ASCII plus any byte
   >= 0x80 (we treat UTF-8 continuation bytes as name characters, which
   accepts all well-formed UTF-8 names and some ill-formed ones; full
   Unicode classification is out of scope). *)
let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  || Char.code c >= 0x80

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let is_ncname s =
  String.length s > 0
  && is_name_start s.[0]
  && (let ok = ref true in
      String.iter (fun c -> if not (is_name_char c) then ok := false) s;
      !ok)
