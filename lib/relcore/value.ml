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

(* ---------- exact number rendering ----------

   Numbers are written digit by digit, with the same bytes as
   [string_of_int] and as [%.12g] plus the ".0" rule, by one writer
   ([write_decimal]): [to_string] points it at an exact-size [Bytes],
   [add_to_buffer] at the caller's scratch, which goes into the buffer
   in one blit.  Only the floats that are not short decimals go through
   the C formatter. *)

(* decimal digits of [n >= 0]: [d] when below [p = 10^d], by
   comparisons only *)
let rec digits_from n d p =
  if n < p then d else if d = 18 then 19 else digits_from n (d + 1) (p * 10)

let num_digits n = digits_from n 1 10

(* The C formatter, for the floats the exact path does not cover.  Keep
   a trailing ".0" so floats round-trip through the parser. *)
let format_float_slow f =
  let s = format_float "%.12g" f in
  if String.contains s '.' || String.contains s 'e' ||
     String.contains s 'n' (* nan, inf *)
  then s
  else s ^ ".0"

let pow10_f = [| 1.; 10.; 100.; 1e3; 1e4; 1e5; 1e6 |]
let pow10_i = [| 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000 |]

(* The one digit writer: the decimal [-?m] (when [k < 0]) or
   [-?q.r] for [m / 10^k], with the fraction [r] written in [k] digits
   (one when [k = 0]: [q.0]), written into [b] so that it ends just
   before [stop]; returns where it starts.  Digits go last to first,
   each off its number by a constant division. *)
let rec write_digits b stop n w =
  if w = 0 then stop
  else begin
    Bytes.unsafe_set b (stop - 1) (Char.unsafe_chr (48 + (n mod 10)));
    write_digits b (stop - 1) (n / 10) (w - 1)
  end

(* all the digits of [n >= 0] *)
let rec write_int b stop n =
  Bytes.unsafe_set b (stop - 1) (Char.unsafe_chr (48 + (n mod 10)));
  if n < 10 then stop - 1 else write_int b (stop - 1) (n / 10)

(* the integer part of [m / 10^k]; [m] itself when [k < 0] *)
let[@inline] quotient m k = if k < 0 then m else m / Array.unsafe_get pow10_i k

let write_decimal b stop neg m k =
  let q = quotient m k in
  let stop =
    if k < 0 then stop
    else begin
      let r = m - (q * Array.unsafe_get pow10_i k) in
      let at = write_digits b stop r (if k > 1 then k else 1) - 1 in
      Bytes.unsafe_set b at '.';
      at
    end
  in
  let at = write_int b stop q in
  if neg then begin
    Bytes.unsafe_set b (at - 1) '-';
    at - 1
  end
  else at

let decimal_length neg m k =
  (if neg then 1 else 0) + num_digits (quotient m k)
  + if k < 0 then 0 else if k > 1 then k + 1 else 2

(* The exact path for [a = |f|] in [1e-4, 1e12): [8 m + k] for the
   smallest [k <= 6] with [m = round (a * 10^k) < 1e12] and
   [m /. 10^k = a], or -1 when [f] needs the C formatter.  [f] is then
   the double nearest to the decimal [d = m / 10^k]: [m] and [10^k] are
   exact doubles and IEEE division is correctly rounded.  [d] has at
   most 12 significant digits and lies within [2^-53 * a] of [f], far
   below half a unit in its 12th digit, so [%.12g] prints exactly [d],
   in fixed notation (its exponent is in [-4, 11]), with trailing zeros
   stripped — which the smallest [k] never writes. *)
let rec exact_decimal f k =
  if k > 6 then -1
  else
    (* [a] is recomputed here, not passed: a float argument is boxed *)
    let a = Float.abs f and p = Array.unsafe_get pow10_f k in
    let m = Float.round (a *. p) in
    if m < 1e12 && m /. p = a then (int_of_float m * 8) + k
    else exact_decimal f (k + 1)

let float_decimal f =
  let a = Float.abs f in
  (* false for NaN, infinities and zeros *)
  if a >= 1e-4 && a < 1e12 then exact_decimal f 0 else -1

(* A number's rendering, written by [write_decimal] into an exact-size
   string, or into a scratch and appended to a buffer in one blit. *)
let exact neg m k =
  let len = decimal_length neg m k in
  let b = Bytes.create len in
  ignore (write_decimal b len neg m k);
  Bytes.unsafe_to_string b

let append scratch buf neg m k =
  let stop = Bytes.length scratch in
  let at = write_decimal scratch stop neg m k in
  Buffer.add_subbytes buf scratch at (stop - at)

let to_string = function
  | Null -> "NULL"
  | Int i when i <> min_int (* [-i] overflows *) -> exact (i < 0) (abs i) (-1)
  | Int i -> string_of_int i
  | Float f ->
      let d = float_decimal f in
      if d < 0 then format_float_slow f else exact (f < 0.) (d lsr 3) (d land 7)
  | Str s -> s
  | Sym (pool, id) -> Strpool.get pool id  (* the decode boundary *)
  | Bool b -> if b then "TRUE" else "FALSE"

(* room for any exact rendering: 20 bytes of an int, or a sign, 12
   digits and a point *)
type writer = Bytes.t

let writer () = Bytes.create 24

let add_to_buffer scratch buf = function
  | Int i when i <> min_int -> append scratch buf (i < 0) (abs i) (-1)
  | Float f as v ->
      let d = float_decimal f in
      if d < 0 then Buffer.add_string buf (to_string v)
      else append scratch buf (f < 0.) (d lsr 3) (d land 7)
  | v -> Buffer.add_string buf (to_string v)

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

(* The int inside +-2^53 a number equals, or [Keytbl.no_int]: an
   integral float there is equal to an int, and no int outside it can
   equal one inside, so [equal_total] keys with the same view are equal
   and keys with a view equal no key without one. *)
let two_53 = 9007199254740992 (* 2^53 *)

let int_view = function
  | Int i when i > -two_53 && i < two_53 -> i
  | Float f when Float.is_integer f && Float.abs f < 0x1p53 -> int_of_float f
  | Null | Int _ | Float _ | Str _ | Bool _ | Sym _ -> Keytbl.no_int

(** Hash compatible with [equal_total]: ints and equal-valued floats hash
    alike so hash partitioning groups them together.  A number with an
    int view hashes as that int through the key table's multiplicative
    mix; every other number (where [float_of_int] may round, so distinct
    ints can equal one float) hashes as its float. *)
let hash = function
  | Null -> 17
  | Int i when i > -two_53 && i < two_53 -> Keytbl.mix i
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f when Float.is_integer f && Float.abs f < 0x1p53 ->
      Keytbl.mix (int_of_float f)
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

(** Key table on single values under the total order — join builds
    and probes and partitions on one column ([Sym] keys hash and compare
    without decoding, numbers take the unboxed int path). *)
module Tbl = Keytbl.Make (struct
  type nonrec t = t

  let equal = equal_total
  let hash = hash
  let int_view = int_view
end)
