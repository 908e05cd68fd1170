(* Unit tests: values, datatypes, three-valued logic. *)

open Support

let check_v = Alcotest.check value_testable
let check_t = Alcotest.check truth_testable

let test_compare_total_numeric () =
  Alcotest.(check int) "int vs float equal" 0
    (Value.compare_total (vi 3) (vf 3.));
  Alcotest.(check bool) "int < float" true
    (Value.compare_total (vi 3) (vf 3.5) < 0);
  Alcotest.(check bool) "null sorts first" true
    (Value.compare_total vnull (vi (-1000)) < 0)

let test_hash_consistent_with_equality () =
  Alcotest.(check int) "hash int = hash float when equal"
    (Value.hash (vi 7)) (Value.hash (vf 7.));
  Alcotest.(check bool) "equal_total 7 = 7.0" true
    (Value.equal_total (vi 7) (vf 7.))

(* Mixed Int/Float cells around the edges of the unboxed int hash:
   +-2^53 and +-(2^53+1) (which round onto 2^53 as floats), the int
   extremes, signed zeros and nan. *)
let gen_hash_cell =
  let two_53 = 1 lsl 53 in
  QCheck.Gen.(
    let edge_ints =
      [ two_53; -two_53; two_53 + 1; -two_53 - 1; two_53 - 1; 1 - two_53;
        min_int; max_int; 0; 1; -1 ]
    in
    let around_int =
      map2 (fun i d -> i + d) (oneofl edge_ints) (int_range (-2) 2)
    in
    let as_float = map float_of_int (oneof [ around_int; small_signed_int ]) in
    oneof
      [
        map vi (oneof [ around_int; small_signed_int; int ]);
        map vf
          (oneof
             [ as_float; float;
               oneofl [ 0.; -0.; nan; infinity; neg_infinity; 0.5; -2.5;
                        0x1p53; -0x1p53; 0x1p62; -0x1p62; 0x1p63 ] ]);
      ])

let prop_hash_compatible =
  QCheck.Test.make ~count:5000
    ~name:"Value.equal_total a b => Value.hash a = Value.hash b (Int/Float)"
    (QCheck.make
       ~print:(fun (a, b) -> Value.to_string a ^ " " ^ Value.to_string b)
       QCheck.Gen.(
         (* half the pairs are numerically equal by construction *)
         oneof
           [
             pair gen_hash_cell gen_hash_cell;
             map
               (fun v ->
                 match v with
                 | Value.Int i -> (v, vf (float_of_int i))
                 | Value.Float f
                   when Float.is_integer f && Float.abs f < 0x1p62 ->
                     (v, vi (int_of_float f))
                 | _ -> (v, v))
               gen_hash_cell;
           ]))
    (fun (a, b) ->
      (not (Value.equal_total a b)) || Value.hash a = Value.hash b)

let test_concat_shares_empty_side () =
  let row = Tuple.of_list [ vi 1; vs "x" ] in
  Alcotest.(check bool) "empty ++ row is row" true
    (Tuple.concat Tuple.empty row == row);
  Alcotest.(check bool) "row ++ empty is row" true
    (Tuple.concat row Tuple.empty == row);
  let both = Tuple.concat row row in
  Alcotest.(check bool) "row ++ row is fresh" true
    (both != row
    && Tuple.equal both (Tuple.of_list [ vi 1; vs "x"; vi 1; vs "x" ]))

let test_sql_compare_null () =
  Alcotest.(check bool) "null = 1 is unknown" true
    (Value.sql_compare vnull (vi 1) = None);
  check_t "eq null" Truth.Unknown (Value.eq vnull (vi 1));
  check_t "lt null" Truth.Unknown (Value.lt (vi 1) vnull)

let test_sql_compare_values () =
  check_t "3 < 4" Truth.True (Value.lt (vi 3) (vi 4));
  check_t "3 >= 4" Truth.False (Value.gte (vi 3) (vi 4));
  check_t "3 = 3.0" Truth.True (Value.eq (vi 3) (vf 3.));
  check_t "'a' < 'b'" Truth.True (Value.lt (vs "a") (vs "b"))

let test_incomparable_types_raise () =
  Alcotest.check_raises "int vs string"
    (Errors.Type_error "cannot compare 1 with a") (fun () ->
      ignore (Value.eq (vi 1) (vs "a")))

let test_arithmetic () =
  check_v "int add" (vi 7) (Value.add (vi 3) (vi 4));
  check_v "mixed add" (vf 7.5) (Value.add (vi 3) (vf 4.5));
  check_v "null propagates" vnull (Value.add vnull (vi 4));
  check_v "int div truncates" (vi 2) (Value.div (vi 7) (vi 3));
  check_v "float div" (vf 3.5) (Value.div (vf 7.) (vi 2));
  check_v "div by zero is null" vnull (Value.div (vi 7) (vi 0));
  check_v "float div by zero is null" vnull (Value.div (vf 7.) (vf 0.));
  check_v "neg" (vi (-3)) (Value.neg (vi 3))

let test_truth_tables () =
  let u = Truth.Unknown and t = Truth.True and f = Truth.False in
  check_t "t and u" u (Truth.and_ t u);
  check_t "f and u" f (Truth.and_ f u);
  check_t "u and u" u (Truth.and_ u u);
  check_t "t or u" t (Truth.or_ t u);
  check_t "f or u" u (Truth.or_ f u);
  check_t "not u" u (Truth.not_ u);
  Alcotest.(check bool) "unknown rejected by where" false (Truth.to_bool u)

let test_literal_rendering () =
  Alcotest.(check string) "string quoted" "'it''s'"
    (Value.to_literal (vs "it's"));
  Alcotest.(check string) "float keeps point" "3.0" (Value.to_string (vf 3.));
  Alcotest.(check string) "null" "NULL" (Value.to_string vnull)

(* The rendering rule before floats went straight to the formatting
   primitive: [Printf]'s %.12g, plus ".0" when that reads as an int. *)
let printf_float_rule f =
  let s = Printf.sprintf "%.12g" f in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
  then s
  else s ^ ".0"

let prop_float_rendering =
  QCheck.Test.make ~count:2000 ~name:"Value.to_string (Float f) = the Printf rule"
    (QCheck.make ~print:(Printf.sprintf "%h")
       QCheck.Gen.(
         oneof
           [
             float;
             map Int64.float_of_bits ui64;
             map float_of_int int;
             oneofl [ nan; infinity; neg_infinity; -0.; 1e-300; 1e300; 5e-324 ];
           ]))
    (fun f -> String.equal (Value.to_string (vf f)) (printf_float_rule f))

(* The exact path's domain: short decimals [m / 10^k] across the 12-digit
   and [k <= 6] limits, the TPC-H prices, products and sums the
   benchmarks publish, and the edges of [1e-4, 1e12). *)
let rec pow10 k = if k = 0 then 1 else 10 * pow10 (k - 1)

let gen_short_decimal =
  QCheck.Gen.(
    let decimal =
      map3
        (fun e m k ->
          float_of_int (m mod (1 + pow10 e)) /. float_of_int (pow10 k))
        (int_range 0 13) int (int_range 0 8)
    in
    let price = map Tpch_gen.retail_price (int_range 1 200_000) in
    let product = map2 (fun p q -> p *. float_of_int q) price (int_range 1 50) in
    let sum =
      map (List.fold_left ( +. ) 0.) (list_size (int_range 1 7) product)
    in
    let edges =
      oneofl
        [ 1e-4; Float.pred 1e-4; Float.succ 1e-4; 1e12; Float.pred 1e12;
          Float.succ 1e12; 999999999999.5; 99999999999.95; 0.; -0.; 5e-324;
          Float.pred Float.min_float; nan; infinity; neg_infinity ]
    in
    let signed g = map2 (fun neg f -> if neg then -.f else f) bool g in
    oneof [ signed decimal; price; product; sum; signed edges ])

let prop_short_decimal_rendering =
  QCheck.Test.make ~count:5000
    ~name:"Value.to_string on short decimals = the Printf rule"
    (QCheck.make ~print:(Printf.sprintf "%h") gen_short_decimal)
    (fun f -> String.equal (Value.to_string (vf f)) (printf_float_rule f))

let prop_int_rendering =
  QCheck.Test.make ~count:2000 ~name:"Value.to_string (Int i) = string_of_int"
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(
         let p = map pow10 (int_range 0 18) in
         oneof
           [
             int;
             small_signed_int;
             map2 (fun p neg -> if neg then -p else p) p bool;
             map2 (fun p neg -> if neg then 1 - p else p - 1) p bool;
             oneofl [ min_int; max_int; min_int + 1; 0; -1 ];
           ]))
    (fun i -> String.equal (Value.to_string (vi i)) (string_of_int i))

let test_datatype_unify () =
  Alcotest.(check bool) "null unifies" true
    (Datatype.unify Datatype.Null Datatype.Float = Some Datatype.Float);
  Alcotest.(check bool) "int/float unify to float" true
    (Datatype.unify Datatype.Int Datatype.Float = Some Datatype.Float);
  Alcotest.(check bool) "str/int do not unify" true
    (Datatype.unify Datatype.Str Datatype.Int = None)

let suite =
  [
    Alcotest.test_case "compare_total numeric coercion" `Quick
      test_compare_total_numeric;
    Alcotest.test_case "hash consistent with equal_total" `Quick
      test_hash_consistent_with_equality;
    QCheck_alcotest.to_alcotest prop_hash_compatible;
    Alcotest.test_case "Tuple.concat shares an empty side's partner" `Quick
      test_concat_shares_empty_side;
    Alcotest.test_case "sql_compare with nulls" `Quick test_sql_compare_null;
    Alcotest.test_case "sql_compare values" `Quick test_sql_compare_values;
    Alcotest.test_case "incomparable types raise" `Quick
      test_incomparable_types_raise;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "3VL truth tables" `Quick test_truth_tables;
    Alcotest.test_case "literal rendering" `Quick test_literal_rendering;
    QCheck_alcotest.to_alcotest prop_float_rendering;
    QCheck_alcotest.to_alcotest prop_short_decimal_rendering;
    QCheck_alcotest.to_alcotest prop_int_rendering;
    Alcotest.test_case "datatype unification" `Quick test_datatype_unify;
  ]
