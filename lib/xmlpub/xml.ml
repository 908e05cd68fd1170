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

(* [to_string] sizes the document first and writes it into one string of
   exactly that length, so its one allocation comes before the writing.
   A large document's string goes straight to the major heap, and the
   GC slice that allocation requests runs at the next poll point: with
   the writing still to do, that is here, not in the caller's next
   code. *)

(* length of [s] escaped *)
let escaped_length s =
  let n = ref (String.length s) in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '<' | '>' -> n := !n + 3
    | '&' -> n := !n + 4
    | '"' -> n := !n + 5
    | _ -> ()
  done;
  !n

let rec serialized_length = function
  | Text s -> escaped_length s
  | Element (tag, attrs, children) ->
      let t = String.length tag in
      (* ' ' k '="' v '"' *)
      let a =
        List.fold_left
          (fun n (k, v) -> n + String.length k + 4 + escaped_length v)
          0 attrs
      in
      if children = [] then 1 + t + a + 2 (* '<' tag attrs '/>' *)
      else
        (* '<' tag attrs '>' children '</' tag '>' *)
        List.fold_left
          (fun n c -> n + serialized_length c)
          (1 + t + a + 1 + 2 + t + 1)
          children

(* writers into [b] at [pos], returning the position after *)
let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let rec put_escaped b pos s i =
  let j = next_special s i in
  Bytes.blit_string s i b pos (j - i);
  let pos = pos + (j - i) in
  if j = String.length s then pos
  else
    put_escaped b
      (put_string b pos
         (match String.unsafe_get s j with
         | '<' -> "&lt;"
         | '>' -> "&gt;"
         | '&' -> "&amp;"
         | _ -> "&quot;"))
      s (j + 1)

let rec put_node b pos = function
  | Text s -> put_escaped b pos s 0
  | Element (tag, attrs, children) ->
      Bytes.set b pos '<';
      let pos = put_string b (pos + 1) tag in
      let pos =
        List.fold_left
          (fun pos (k, v) ->
            Bytes.set b pos ' ';
            let pos = put_string b (pos + 1) k in
            let pos = put_string b pos "=\"" in
            let pos = put_escaped b pos v 0 in
            Bytes.set b pos '"';
            pos + 1)
          pos attrs
      in
      if children = [] then put_string b pos "/>"
      else begin
        Bytes.set b pos '>';
        let pos = List.fold_left (put_node b) (pos + 1) children in
        let pos = put_string b pos "</" in
        let pos = put_string b pos tag in
        Bytes.set b pos '>';
        pos + 1
      end

let to_string doc =
  let n = serialized_length doc in
  let b = Bytes.create n in
  let written = put_node b 0 doc in
  assert (written = n);
  Bytes.unsafe_to_string b

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
