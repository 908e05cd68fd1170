(* Tests for hash indexes and the index nested-loop join path, plus the
   tuple-keyed hash tables (total value order) they rely on. *)

open Support
open Expr

let test_catalog_index_api () =
  let cat = mini_catalog () in
  Catalog.create_index cat ~name:"part_pk" ~table:"part"
    ~columns:[ "p_partkey" ];
  Alcotest.(check (list string)) "listed" [ "part_pk" ]
    (Catalog.index_names cat);
  Alcotest.(check bool) "found by column set" true
    (Catalog.find_index_on cat ~table:"part" ~cols:[ "p_partkey" ] <> None);
  Alcotest.(check bool) "not found for other columns" true
    (Catalog.find_index_on cat ~table:"part" ~cols:[ "p_size" ] = None);
  Alcotest.(check bool) "duplicate name rejected" true
    (try
       Catalog.create_index cat ~name:"part_pk" ~table:"supplier"
         ~columns:[ "s_suppkey" ];
       false
     with Errors.Name_error _ -> true);
  Catalog.drop_index cat "part_pk";
  Alcotest.(check (list string)) "dropped" [] (Catalog.index_names cat)

let test_index_lookup () =
  let cat = mini_catalog () in
  let part = Catalog.find_table cat "part" in
  let index = Index.create ~name:"i" ~table:part ~columns:[ "p_size" ] in
  Index.refresh index part;
  Alcotest.(check int) "2 distinct sizes" 2 (Index.cardinality index);
  Alcotest.(check int) "size 1 has 2 parts" 2
    (List.length (Index.lookup index (row [ vi 1 ])));
  Alcotest.(check int) "size 9 has none" 0
    (List.length (Index.lookup index (row [ vi 9 ])))

let join_query cat =
  Executor.run cat
    (Sql_binder.bind_query cat
       (Sql_parser.parse_query_string
          "select ps_suppkey, p_name from partsupp, part where ps_partkey \
           = p_partkey and p_retailprice > 15"))

let test_index_join_matches_hash_join () =
  let cat = mini_catalog () in
  let without = join_query cat in
  Catalog.create_index cat ~name:"part_pk" ~table:"part"
    ~columns:[ "p_partkey" ];
  let with_index = join_query cat in
  check_rel "index join = hash join" without with_index;
  Alcotest.(check int) "expected rows" 4 (Relation.cardinality with_index)

let test_index_sees_new_rows () =
  let cat = mini_catalog () in
  Catalog.create_index cat ~name:"part_pk" ~table:"part"
    ~columns:[ "p_partkey" ];
  ignore (join_query cat);
  (* grow the table after the index was built and used *)
  Table.insert (Catalog.find_table cat "part")
    (row [ vi 9; vs "widget"; vf 99.; vi 3; vs "Brand#C" ]);
  Table.insert (Catalog.find_table cat "partsupp") (row [ vi 3; vi 9 ]);
  Catalog.invalidate_stats cat "part";
  let r = join_query cat in
  Alcotest.(check int) "new row visible through the index" 5
    (Relation.cardinality r)

let test_create_index_sql () =
  let cat = mini_catalog () in
  (match
     Sql_binder.bind_statement cat
       (Sql_parser.parse_statement
          "create index part_pk on part (p_partkey)")
   with
  | Sql_binder.Bound_ddl msg ->
      Alcotest.(check string) "confirmation" "created index part_pk on part"
        msg
  | _ -> Alcotest.fail "expected DDL");
  Alcotest.(check bool) "index exists" true
    (Catalog.find_index_on cat ~table:"part" ~cols:[ "p_partkey" ] <> None);
  match
    Sql_binder.bind_statement cat
      (Sql_parser.parse_statement "drop index part_pk")
  with
  | Sql_binder.Bound_ddl _ -> ()
  | _ -> Alcotest.fail "expected DDL"

let test_numeric_coercion_in_hash_paths () =
  (* Int and Float keys with the same numeric value must join in every
     physical path, as they do under SQL equality *)
  let cat = Catalog.create () in
  let t1 = Table.create "t1" [ ("a", Datatype.Float) ] in
  Table.insert_all t1 [ row [ vf 1. ]; row [ vf 2.5 ] ];
  let t2 = Table.create "t2" [ ("b", Datatype.Int) ] in
  Table.insert_all t2 [ row [ vi 1 ]; row [ vi 2 ] ];
  Catalog.add_table cat t1;
  Catalog.add_table cat t2;
  let p = Plan.join (column "a" ==^ column "b") (scan cat "t1") (scan cat "t2") in
  let r = run_checked cat p in
  Alcotest.(check int) "1.0 joins 1" 1 (Relation.cardinality r);
  (* and through an index *)
  Catalog.create_index cat ~name:"i2" ~table:"t2" ~columns:[ "b" ];
  let r' = Executor.run cat p in
  check_rel "index probe coerces too" r r'

let test_mixed_type_distinct () =
  let cat = Catalog.create () in
  let t = Table.create "t" [ ("a", Datatype.Float) ] in
  Table.insert_all t [ row [ vi 1 ]; row [ vf 1. ]; row [ vf 2. ] ];
  Catalog.add_table cat t;
  let p = Plan.distinct (scan cat "t") in
  let r = run_checked cat p in
  Alcotest.(check int) "Int 1 and Float 1.0 collapse" 2
    (Relation.cardinality r)

let suite =
  [
    Alcotest.test_case "catalog index API" `Quick test_catalog_index_api;
    Alcotest.test_case "index lookup" `Quick test_index_lookup;
    Alcotest.test_case "index join = hash join" `Quick
      test_index_join_matches_hash_join;
    Alcotest.test_case "index refresh on growth" `Quick
      test_index_sees_new_rows;
    Alcotest.test_case "CREATE/DROP INDEX" `Quick test_create_index_sql;
    Alcotest.test_case "numeric coercion in hash paths" `Quick
      test_numeric_coercion_in_hash_paths;
    Alcotest.test_case "mixed-type distinct" `Quick test_mixed_type_distinct;
  ]
