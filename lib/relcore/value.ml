(* Runtime values.

   Two comparison regimes coexist, as in SQL engines:
   - [sql_compare] implements expression-level comparison with NULL
     propagation (result is [None] when either side is NULL) and numeric
     int/float coercion;
   - [compare_total] is the total order used internally by sort, group-by
     and distinct, where NULL sorts first and compares equal to itself. *)

(* [Sym] is a dictionary-encoded string: a handle into an interned
   string pool (lib/storage's per-table dictionary shards).  It behaves
   exactly like the [Str] it decodes to — same type, ordering, hash and
   rendering — but equality against another handle of the same pool is
   an integer compare and its structural hash is precomputed, so the
   grouping / join hot paths never touch the bytes.  Dictionary ids are
   assigned in insertion order (NOT lexicographic), so ordering always
   falls back to comparing the decoded strings. *)
type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Sym of Strpool.t * int

let type_of = function
  | Null -> None
  | Int _ -> Some Datatype.Int
  | Float _ -> Some Datatype.Float
  | Str _ | Sym _ -> Some Datatype.Str
  | Bool _ -> Some Datatype.Bool

let is_null = function
  | Null -> true
  | Int _ | Float _ | Str _ | Bool _ | Sym _ -> false

(* The primitive behind [Printf]'s [%g]: same bytes, without
   interpreting a format string per call. *)
external format_float : string -> float -> string = "caml_format_float"

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f ->
      (* Keep a trailing ".0" so floats round-trip through the parser. *)
      let s = format_float "%.12g" f in
      if String.contains s '.' || String.contains s 'e' ||
         String.contains s 'n' (* nan, inf *)
      then s
      else s ^ ".0"
  | Str s -> s
  | Sym (pool, id) -> Strpool.get pool id  (* the decode boundary *)
  | Bool b -> if b then "TRUE" else "FALSE"

(* uncounted decode for internal comparison fallbacks *)
let str_view = function
  | Str s -> s
  | Sym (pool, id) -> Strpool.unsafe_get pool id
  | _ -> invalid_arg "Value.str_view"

(** [Sym] values decoded back to plain [Str]; everything else
    unchanged.  For code that must feed values to polymorphic
    hash/equality (statistics, DISTINCT accumulators) — a [Sym]'s pool
    must never be structurally traversed. *)
let canonical = function
  | Sym (pool, id) -> Str (Strpool.unsafe_get pool id)
  | v -> v

(** Like [to_string] but quotes strings, for SQL literal rendering. *)
let to_literal = function
  | (Str _ | Sym _) as v ->
      let s = to_string v in
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '\'';
      String.iter
        (fun c ->
          if c = '\'' then Buffer.add_string buf "''"
          else Buffer.add_char buf c)
        s;
      Buffer.add_char buf '\'';
      Buffer.contents buf
  | v -> to_string v

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* ---------- numeric views ---------- *)

let as_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Str _ | Bool _ | Sym _ -> None

let numeric_exn ctx = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> Errors.type_errorf "%s: expected numeric value, got %s" ctx
           (to_string v)

(* ---------- total order (sorting / grouping / distinct) ---------- *)

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ | Sym _ -> 3

let compare_total a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> compare x y
  | Float x, Float y -> compare x y
  | Int x, Float y -> compare (float_of_int x) y
  | Float x, Int y -> compare x (float_of_int y)
  | Str x, Str y -> compare x y
  | Sym (p1, i1), Sym (p2, i2) ->
      (* one pool interns each string once, so equal ids are the whole
         equality check; ids are insertion-ordered, so anything else
         falls back to the decoded bytes *)
      if p1 == p2 && i1 = i2 then 0
      else compare (Strpool.unsafe_get p1 i1) (Strpool.unsafe_get p2 i2)
  | (Str _ | Sym _), (Str _ | Sym _) -> compare (str_view a) (str_view b)
  | Bool x, Bool y -> compare x y
  | _ -> compare (rank a) (rank b)

let equal_total a b = compare_total a b = 0

(** Hash compatible with [equal_total]: ints and equal-valued floats hash
    alike so hash partitioning groups them together. *)
let hash = function
  | Null -> 17
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s
  | Sym (pool, id) -> Strpool.hash pool id  (* = Hashtbl.hash of the string *)
  | Bool b -> if b then 3 else 5

(* ---------- SQL (null-propagating) comparison ---------- *)

let sql_compare a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | Int x, Int y -> Some (compare x y)
  | Float x, Float y -> Some (compare x y)
  | Int x, Float y -> Some (compare (float_of_int x) y)
  | Float x, Int y -> Some (compare x (float_of_int y))
  | Str x, Str y -> Some (compare x y)
  | Sym (p1, i1), Sym (p2, i2) when p1 == p2 && i1 = i2 -> Some 0
  | (Str _ | Sym _), (Str _ | Sym _) ->
      Some (compare (str_view a) (str_view b))
  | Bool x, Bool y -> Some (compare x y)
  | _ ->
      Errors.type_errorf "cannot compare %s with %s" (to_string a)
        (to_string b)

let cmp_truth op a b =
  match sql_compare a b with
  | None -> Truth.Unknown
  | Some c -> Truth.of_bool (op c 0)

let eq = cmp_truth ( = )
let neq = cmp_truth ( <> )
let lt = cmp_truth ( < )
let lte = cmp_truth ( <= )
let gt = cmp_truth ( > )
let gte = cmp_truth ( >= )

(* ---------- arithmetic ---------- *)

let arith name int_op float_op a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (int_op x y)
  | (Int _ | Float _), (Int _ | Float _) ->
      Float (float_op (numeric_exn name a) (numeric_exn name b))
  | _ ->
      Errors.type_errorf "%s: non-numeric operands %s, %s" name (to_string a)
        (to_string b)

let add = arith "+" ( + ) ( +. )
let sub = arith "-" ( - ) ( -. )
let mul = arith "*" ( * ) ( *. )

(* SQL raises on division by zero; we map it to NULL so generated
   parameter sweeps never abort a whole benchmark run.  This is the only
   deliberate deviation from strict SQL semantics. *)
let div a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int _, Int 0 -> Null
  | Int x, Int y -> Int (x / y)
  | (Int _ | Float _), (Int _ | Float _) ->
      let d = numeric_exn "/" b in
      if d = 0. then Null else Float (numeric_exn "/" a /. d)
  | _ ->
      Errors.type_errorf "/: non-numeric operands %s, %s" (to_string a)
        (to_string b)

let neg = function
  | Null -> Null
  | Int i -> Int (-i)
  | Float f -> Float (-.f)
  | v -> Errors.type_errorf "-: non-numeric operand %s" (to_string v)

let concat a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | x, y -> Str (to_string x ^ to_string y)

(** Hash table keyed on single values under the total order — the
    batched hash join's single-key fast path ([Sym] keys hash and
    compare without decoding). *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal_total
  let hash = hash
end)
