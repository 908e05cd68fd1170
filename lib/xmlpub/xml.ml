(* A minimal XML document model with a serializer and an order-insensitive
   comparison.

   The paper assumes an *unordered* model of XML (Section 2), so two
   documents are considered equal when they agree up to reordering of
   sibling elements; [canonicalize] sorts siblings recursively to give a
   normal form used by the tests and the pipeline-equivalence checks. *)

type t =
  | Element of string * (string * string) list * t list
      (** tag, attributes, children *)
  | Text of string

let element ?(attrs = []) tag children = Element (tag, attrs, children)
let text s = Text s

(* The escape kernel: one pass that matches the four special bytes
   inline.  Runs of plain bytes are blitted whole; only the special
   characters are written one at a time.  [Strpool.markup_free] tests
   for the same four bytes: a dictionary string it passes is written
   unescaped. *)

(* index of the first byte at or after [i] that needs an entity, or
   the length of [s] *)
let rec next_special s i =
  if i = String.length s then i
  else
    match String.unsafe_get s i with
    | '<' | '>' | '&' | '"' -> i
    | _ -> next_special s (i + 1)

(* [s] from [i] on, escaped *)
let rec escape_from buf s i =
  let j = next_special s i in
  Buffer.add_substring buf s i (j - i);
  if j < String.length s then begin
    Buffer.add_string buf
      (match String.unsafe_get s j with
      | '<' -> "&lt;"
      | '>' -> "&gt;"
      | '&' -> "&amp;"
      | _ -> "&quot;");
    escape_from buf s (j + 1)
  end

let escape_into buf s = escape_from buf s 0

let escape s =
  let i = next_special s 0 in
  if i = String.length s then s
  else begin
    let buf = Buffer.create (String.length s + 16) in
    Buffer.add_substring buf s 0 i;
    escape_from buf s i;
    Buffer.contents buf
  end

let rec serialize_into buf = function
  | Text s -> escape_into buf s
  | Element (tag, attrs, children) ->
      Buffer.add_char buf '<';
      Buffer.add_string buf tag;
      List.iter
        (fun (k, v) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          escape_into buf v;
          Buffer.add_char buf '"')
        attrs;
      if children = [] then Buffer.add_string buf "/>"
      else begin
        Buffer.add_char buf '>';
        List.iter (serialize_into buf) children;
        Buffer.add_string buf "</";
        Buffer.add_string buf tag;
        Buffer.add_char buf '>'
      end

let to_string doc =
  let buf = Buffer.create 256 in
  serialize_into buf doc;
  Buffer.contents buf

let rec pp_indented ppf ~indent = function
  | Text s -> Format.fprintf ppf "%s%s@\n" (String.make indent ' ') (escape s)
  | Element (tag, attrs, children) ->
      let attrs_str =
        String.concat ""
          (List.map (fun (k, v) -> Printf.sprintf " %s=%S" k v) attrs)
      in
      if children = [] then
        Format.fprintf ppf "%s<%s%s/>@\n" (String.make indent ' ') tag
          attrs_str
      else begin
        Format.fprintf ppf "%s<%s%s>@\n" (String.make indent ' ') tag
          attrs_str;
        List.iter (pp_indented ppf ~indent:(indent + 2)) children;
        Format.fprintf ppf "%s</%s>@\n" (String.make indent ' ') tag
      end

let pp ppf doc = pp_indented ppf ~indent:0 doc

(** Sort sibling elements recursively (by their serialized form) to get
    a normal form under the unordered XML model. *)
let rec canonicalize = function
  | Text s -> Text s
  | Element (tag, attrs, children) ->
      let children = List.map canonicalize children in
      let children =
        List.sort (fun a b -> String.compare (to_string a) (to_string b))
          children
      in
      Element (tag, List.sort compare attrs, children)

let equal_unordered a b =
  String.equal (to_string (canonicalize a)) (to_string (canonicalize b))
