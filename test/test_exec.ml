(* Integration tests: physical operators cross-checked against the
   reference evaluator on the mini TPC-H fixture. *)

open Support
open Expr

let cat = lazy (mini_catalog ())

let partsupp_part cat =
  Plan.join
    (column "ps_partkey" ==^ column "p_partkey")
    (scan cat "partsupp") (scan cat "part")

let test_scan () =
  let cat = Lazy.force cat in
  let r = run_checked cat (scan cat "part") in
  Alcotest.(check int) "4 parts" 4 (Relation.cardinality r)

let test_select () =
  let cat = Lazy.force cat in
  let p =
    Plan.select (column "p_retailprice" >^ float 15.) (scan cat "part")
  in
  let r = run_checked cat p in
  Alcotest.(check int) "3 parts above 15" 3 (Relation.cardinality r)

let test_project_computed () =
  let cat = Lazy.force cat in
  let p =
    Plan.project
      [ (column "p_name", "p_name");
        (column "p_retailprice" *^ float 2., "double_price") ]
      (scan cat "part")
  in
  let r = run_checked cat p in
  Alcotest.(check int) "arity 2" 2 (Schema.arity (Relation.schema r));
  Alcotest.(check string) "computed column name" "double_price"
    (Schema.get (Relation.schema r) 1).Schema.cname

(* A projection that only renames (item i is input column i) passes the
   input rows through; one that reorders or computes builds new rows.
   EXPLAIN ANALYZE still shows the renaming project with its rows. *)
let test_rename_only_project () =
  let input =
    rel [ ("a", Datatype.Int); ("b", Datatype.Str) ]
      [ [ vi 1; vs "one" ]; [ vi 2; vs "two" ]; [ vi 3; vs "three" ] ]
  in
  let env = Env.bind_group "g" input (Env.make (Catalog.create ())) in
  let run items =
    Cursor.to_array
      ((Compile.plan
          (Plan.project items
             (Plan.group_scan ~var:"g" (Relation.schema input))))
         .Compile.run env)
  in
  let shared items =
    List.for_all2 ( == ) (Relation.rows input) (Array.to_list (run items))
  in
  Alcotest.(check bool) "rename-only: the input rows themselves" true
    (shared [ (column "a", "x"); (column "b", "y") ]);
  Alcotest.(check bool) "reordering: new rows" false
    (List.exists2 ( == ) (Relation.rows input)
       (Array.to_list (run [ (column "b", "b"); (column "a", "a") ])));
  Alcotest.(check bool) "computed: new rows" false
    (shared [ (column "a" +^ int 0, "a"); (column "b", "b") ]);
  let db = Engine.create () in
  ignore (Engine.exec db "create table t (a int, b varchar)");
  ignore
    (Engine.exec db "insert into t values (1, 'one'), (2, 'two'), (3, 'x')");
  let _, report = Engine.analyze db "select a as x, b as y from t" in
  Alcotest.(check bool) "EXPLAIN ANALYZE lists the project and its rows" true
    (List.exists
       (fun line ->
         String.starts_with ~prefix:"project[" line
         && List.exists
              (String.starts_with ~prefix:"rows=3 ")
              (String.split_on_char '(' line))
       (String.split_on_char '\n' report))

let test_equijoin () =
  let cat = Lazy.force cat in
  let r = run_checked cat (partsupp_part cat) in
  Alcotest.(check int) "5 partsupp-part rows" 5 (Relation.cardinality r)

let test_nonequi_join () =
  let cat = Lazy.force cat in
  (* parts strictly cheaper than another part: theta join *)
  let left = scan cat "part" in
  let right =
    Plan.project
      [ (column "p_partkey", "k2"); (column "p_retailprice", "price2") ]
      (scan cat "part")
  in
  let p = Plan.join (column "p_retailprice" <^ column "price2") left right in
  let r = run_checked cat p in
  (* prices 10,20,30,40: pairs with strictly increasing price = 6 *)
  Alcotest.(check int) "6 theta pairs" 6 (Relation.cardinality r)

let test_join_null_keys_do_not_match () =
  let cat = Catalog.create () in
  let t1 = Table.create "t1" [ ("a", Datatype.Int) ] in
  Table.insert_all t1 [ row [ vi 1 ]; row [ vnull ] ];
  let t2 = Table.create "t2" [ ("b", Datatype.Int) ] in
  Table.insert_all t2 [ row [ vi 1 ]; row [ vnull ] ];
  Catalog.add_table cat t1;
  Catalog.add_table cat t2;
  let p = Plan.join (column "a" ==^ column "b") (scan cat "t1") (scan cat "t2") in
  let r = run_checked cat p in
  Alcotest.(check int) "only non-null keys join" 1 (Relation.cardinality r)

let test_self_join_aliases () =
  let cat = Lazy.force cat in
  let ps1 =
    Plan.table_scan ~table:"partsupp" ~alias:"ps1"
      (Table.schema (Catalog.find_table cat "partsupp"))
  in
  let ps2 =
    Plan.table_scan ~table:"partsupp" ~alias:"ps2"
      (Table.schema (Catalog.find_table cat "partsupp"))
  in
  let p =
    Plan.join
      (column ~qual:"ps1" "ps_partkey" ==^ column ~qual:"ps2" "ps_partkey")
      ps1 ps2
  in
  let r = run_checked cat p in
  (* part 2 is supplied by suppliers 1 and 2: partkey matches = 1+4+1+1 = 7 *)
  Alcotest.(check int) "self join on partkey" 7 (Relation.cardinality r)

let test_group_by () =
  let cat = Lazy.force cat in
  let p =
    Plan.group_by
      [ Expr.col "ps_suppkey" ]
      [ (count_star, "n"); (avg (column "p_retailprice"), "avg_price") ]
      (partsupp_part cat)
  in
  let r = run_checked cat p in
  check_rows "per-supplier aggregates"
    [ [ vi 1; vi 3; vf 20. ]; [ vi 2; vi 2; vf 30. ] ]
    r

let test_group_by_empty_input () =
  let cat = Lazy.force cat in
  let p =
    Plan.group_by
      [ Expr.col "p_size" ]
      [ (count_star, "n") ]
      (Plan.select (column "p_retailprice" >^ float 1000.) (scan cat "part"))
  in
  let r = run_checked cat p in
  Alcotest.(check int) "groupby on empty is empty" 0 (Relation.cardinality r)

let test_scalar_aggregate_empty_input () =
  let cat = Lazy.force cat in
  let p =
    Plan.aggregate
      [ (count_star, "n"); (sum (column "p_retailprice"), "total") ]
      (Plan.select (column "p_retailprice" >^ float 1000.) (scan cat "part"))
  in
  let r = run_checked cat p in
  check_rows "aggregate on empty yields one row" [ [ vi 0; vnull ] ] r

let test_distinct () =
  let cat = Lazy.force cat in
  let p =
    Plan.distinct
      (Plan.project [ (column "p_brand", "p_brand") ] (scan cat "part"))
  in
  let r = run_checked cat p in
  Alcotest.(check int) "2 brands" 2 (Relation.cardinality r)

let test_order_by () =
  let cat = Lazy.force cat in
  let p =
    Plan.order_by
      [ (column "p_retailprice", Plan.Desc) ]
      (scan cat "part")
  in
  let r =
    Executor.run cat p
  in
  let first = List.hd (Relation.rows r) in
  Alcotest.check value_testable "most expensive first" (vf 40.)
    (Tuple.get first 2);
  ignore (run_checked cat p)

let test_union_all_keeps_duplicates () =
  let cat = Lazy.force cat in
  let b = Plan.project [ (column "s_suppkey", "k") ] (scan cat "supplier") in
  let p = Plan.union_all [ b; b ] in
  let r = run_checked cat p in
  Alcotest.(check int) "6 rows with duplicates" 6 (Relation.cardinality r)

let test_apply_cross () =
  let cat = Lazy.force cat in
  (* for each supplier, its parts via a correlated inner query *)
  let inner =
    Plan.select
      (column "ps_suppkey" ==^ outer "s_suppkey")
      (scan cat "partsupp")
  in
  let p = Plan.apply (scan cat "supplier") inner in
  let r = run_checked cat p in
  Alcotest.(check int) "5 supplier-partsupp pairs" 5 (Relation.cardinality r)

let test_apply_exists () =
  let cat = Lazy.force cat in
  (* suppliers supplying some part priced above 25 *)
  let inner =
    Plan.exists
      (Plan.select
         ((column "ps_suppkey" ==^ outer "s_suppkey")
         &&& (column "p_retailprice" >^ float 25.))
         (partsupp_part cat))
  in
  let p = Plan.apply (scan cat "supplier") inner in
  let r = run_checked cat p in
  check_rows "suppliers with expensive part"
    [ [ vi 1; vs "Acme" ]; [ vi 2; vs "Globex" ] ]
    r

let test_apply_not_exists () =
  let cat = Lazy.force cat in
  let inner =
    Plan.exists ~negated:true
      (Plan.select
         (column "ps_suppkey" ==^ outer "s_suppkey")
         (scan cat "partsupp"))
  in
  let p = Plan.apply (scan cat "supplier") inner in
  let r = run_checked cat p in
  check_rows "supplier with no parts" [ [ vi 3; vs "Initech" ] ] r

let test_apply_scalar_subquery () =
  let cat = Lazy.force cat in
  (* for each part, pair it with the overall average price, then filter *)
  let inner = Plan.aggregate [ (avg (column "p_retailprice"), "avg_all") ]
      (scan cat "part")
  in
  let p =
    Plan.select
      (column "p_retailprice" >^ column "avg_all")
      (Plan.apply (scan cat "part") inner)
  in
  let r = run_checked cat p in
  (* avg = 25; parts above: 30, 40 *)
  Alcotest.(check int) "2 parts above average" 2 (Relation.cardinality r)

let test_props_schema_inference () =
  let cat = Lazy.force cat in
  let p =
    Plan.group_by
      [ Expr.col "ps_suppkey" ]
      [ (avg (column "p_retailprice"), "avg_price") ]
      (partsupp_part cat)
  in
  let s = Props.schema_of p in
  Alcotest.(check (list string)) "output columns"
    [ "ps_suppkey"; "avg_price" ] (Schema.names s);
  Alcotest.(check string) "avg type" "FLOAT"
    (Datatype.to_string (Schema.get s 1).Schema.ctype)

let suite =
  [
    Alcotest.test_case "table scan" `Quick test_scan;
    Alcotest.test_case "select" `Quick test_select;
    Alcotest.test_case "project with computed columns" `Quick
      test_project_computed;
    Alcotest.test_case "rename-only project passes rows through" `Quick
      test_rename_only_project;
    Alcotest.test_case "equi hash join" `Quick test_equijoin;
    Alcotest.test_case "theta (nested-loop) join" `Quick test_nonequi_join;
    Alcotest.test_case "null join keys" `Quick test_join_null_keys_do_not_match;
    Alcotest.test_case "self join with aliases" `Quick test_self_join_aliases;
    Alcotest.test_case "group by" `Quick test_group_by;
    Alcotest.test_case "group by on empty input" `Quick
      test_group_by_empty_input;
    Alcotest.test_case "scalar aggregate on empty input" `Quick
      test_scalar_aggregate_empty_input;
    Alcotest.test_case "distinct" `Quick test_distinct;
    Alcotest.test_case "order by desc" `Quick test_order_by;
    Alcotest.test_case "union all duplicates" `Quick
      test_union_all_keeps_duplicates;
    Alcotest.test_case "apply (cross)" `Quick test_apply_cross;
    Alcotest.test_case "apply exists" `Quick test_apply_exists;
    Alcotest.test_case "apply not exists" `Quick test_apply_not_exists;
    Alcotest.test_case "apply scalar subquery" `Quick
      test_apply_scalar_subquery;
    Alcotest.test_case "schema inference" `Quick test_props_schema_inference;
  ]
