(* Vectorized execution and dictionary encoding.

   The batch executor is the only executor, so it is checked against
   the reference evaluator (the paper's denotational semantics, sharing
   no machinery with the compiler): for any plan, any batch size
   (including degenerate ones that split every operator boundary) and
   any parallelism, the result is the reference result.  The property
   tests reuse the random plan generators from [Test_properties]; the
   operator cases pin the nested-loop join, both Apply forms and EXISTS
   at batch boundaries; the TPC-H checks pin the paper's Q1-Q4 workload
   in both formulations.

   The dictionary must likewise be invisible: interning at insert time
   and decoding at the output boundary round-trips every string, equal
   strings receive equal handles even when interned from concurrent
   domains, and an engine with encoding disabled digests identically. *)

open Support
open Expr

module Gen = QCheck2.Gen

let qtest = QCheck_alcotest.to_alcotest

(* ---------- executor = reference on random plans ---------- *)

let run_with ?governor ~batch_size ?(parallelism = 1) cat plan =
  Executor.run ?governor
    ~config:(Compile.config_with ~batch_size ~parallelism ())
    cat plan

(* Degenerate (1), prime (7), and default (128) batch sizes: the first
   two force every operator through its partial-batch and
   carry-over-between-pulls paths. *)
let batch_sizes = [ 1; 7; Batch.default_size ]
let gen_batch_size = Gen.oneofl batch_sizes

let prop_executor_matches_reference =
  QCheck2.Test.make ~count:150
    ~name:"executor = Reference on random plans, sizes 1/7/128"
    (Gen.quad
       (Test_properties.gen_relation Test_properties.g_schema)
       Test_properties.gen_pgq gen_batch_size (Gen.oneofl [ 1; 2 ]))
    (fun (rel, pgq, batch_size, parallelism) ->
      let cat = Test_properties.catalog_with_r rel in
      let plan =
        Test_properties.substitute_group pgq
          Test_properties.unqualified_scan_r
      in
      Relation.equal_as_multiset (Reference.run cat plan)
        (run_with ~batch_size ~parallelism cat plan))

let prop_gapply_matches_reference =
  QCheck2.Test.make ~count:150
    ~name:"GApply = Reference on random groupings, sizes 1/7/128"
    (Gen.quad
       (Test_properties.gen_relation Test_properties.g_schema)
       (Gen.pair Test_properties.gen_gcols Test_properties.gen_pgq)
       gen_batch_size (Gen.oneofl [ 1; 2 ]))
    (fun (rel, (gcols, pgq), batch_size, parallelism) ->
      let cat = Test_properties.catalog_with_r rel in
      let plan =
        Plan.g_apply ~gcols ~var:"g"
          ~outer:Test_properties.unqualified_scan_r ~pgq
      in
      Relation.equal_as_multiset (Reference.run cat plan)
        (run_with ~batch_size ~parallelism cat plan))

(* ---------- exact row order ---------- *)

(* Rows equal cell for cell, representation included: [Int 1] and
   [Float 1.], or a [Str] and the [Sym] of the same text, tie in the
   sort order but are different cells, so an unstable sort shows. *)
let same_rows a b =
  let same_value x y =
    match (x, y) with
    | Value.Sym (p, i), Value.Sym (q, j) -> p == q && i = j
    | Value.Sym _, _ | _, Value.Sym _ -> false
    | x, y -> x = y
  in
  let a = Relation.rows_array a and b = Relation.rows_array b in
  Array.length a = Array.length b
  && Array.for_all2
       (fun r s ->
         Array.length r = Array.length s && Array.for_all2 same_value r s)
       a b

let mixed_pool = Strpool.create ()

(* few distinct values, several of them equal across representations *)
let gen_mixed_value : Value.t Gen.t =
  let sym s = Value.Sym (mixed_pool, Strpool.intern mixed_pool s) in
  Gen.oneofl
    [
      Value.Null; Value.Int 0; Value.Int 1; Value.Int 2; Value.Float 0.5;
      Value.Float 1.; Value.Float 2.; Value.Str "a"; Value.Str "b"; sym "a";
      sym "b";
    ]

let mixed_schema =
  schema
    [ ("a", Datatype.Int); ("b", Datatype.Int); ("c", Datatype.Int);
      ("s", Datatype.Int) ]

(* small relations, and ones past the parallel sort's 4096-row cutoff;
   column [s] numbers the rows so every reordering is visible *)
let gen_mixed_relation : Relation.t Gen.t =
  Gen.map
    (fun rows ->
      Relation.make mixed_schema
        (List.mapi
           (fun i cells -> Tuple.of_list (cells @ [ Value.Int i ]))
           rows))
    (Gen.list_size
       (Gen.oneof [ Gen.int_range 0 40; Gen.int_range 4096 4400 ])
       (Gen.list_repeat 3 gen_mixed_value))

(* 1-3 keys over the columns and one expression, each Asc or Desc *)
let gen_order_keys : (Expr.t * Plan.sort_dir) list Gen.t =
  let coalesce_a_c =
    Expr.Case
      ( [ (Expr.Unary (Expr.Is_null, column "a"), column "c") ],
        Some (column "a") )
  in
  Gen.list_size (Gen.int_range 1 3)
    (Gen.pair
       (Gen.oneofl [ column "a"; column "b"; column "c"; coalesce_a_c ])
       (Gen.oneofl [ Plan.Asc; Plan.Desc ]))

let order_by_group keys =
  Plan.order_by keys (Plan.group_scan ~var:"g" mixed_schema)

let bind_g rel = Env.bind_group "g" rel (Env.make (Catalog.create ()))

(* [rel] cut into [k] contiguous pieces, each sorted on [keys] by the
   reference evaluator: a presorted input (k = 1) or k sorted runs *)
let sorted_runs k keys rel =
  let rows = Relation.rows_array rel in
  let n = Array.length rows in
  let piece i =
    let lo = i * n / k and hi = (i + 1) * n / k in
    Relation.rows_array
      (Reference.eval
         (bind_g (Relation.of_array mixed_schema (Array.sub rows lo (hi - lo))))
         (order_by_group keys))
  in
  Relation.of_array mixed_schema (Array.concat (List.init k piece))

(* Inputs past 4096 rows make shrinking take minutes, so the
   properties below report their failing case unshrunk. *)
let prop_order_by_exact_order =
  QCheck2.Test.make ~count:120
    ~name:"ORDER BY = Reference row for row, sizes 1/7/128, parallelism 1/4"
    (Gen.no_shrink
       (Gen.quad
          (Gen.pair gen_mixed_relation
             (Gen.oneofl [ None; Some 1; Some 2; Some 3; Some 50 ]))
          gen_order_keys gen_batch_size
          (Gen.oneofl [ 1; 4 ])))
    (fun ((rel, runs), keys, batch_size, parallelism) ->
      (* random, presorted or k-run input *)
      let rel =
        match runs with None -> rel | Some k -> sorted_runs k keys rel
      in
      let env = bind_g rel in
      let plan = order_by_group keys in
      same_rows (Reference.eval env plan)
        (Executor.run_in
           ~config:(Compile.config_with ~batch_size ~parallelism ())
           env plan))

(* (key, seq) rows for the row sort itself: keys from a small range, so
   rows tie within and across runs.  Shapes: one sorted run, k sorted
   runs, reverse-sorted, all equal, random; sizes 0 and 1, small, and
   past the parallel sort's 4096-row cutoff. *)
let gen_sort_input : (int * int) array Gen.t =
  let open Gen in
  let* n = oneof [ int_range 0 1; int_range 2 300; int_range 4096 4300 ] in
  let* keys = array_size (return n) (int_range 0 9) in
  let+ shape =
    oneofl [ `Runs 1; `Runs 2; `Runs 3; `Runs 50; `Reverse; `Equal; `Random ]
  in
  let sorted_pieces k =
    Array.concat
      (List.init k (fun i ->
           let lo = i * n / k and hi = (i + 1) * n / k in
           let piece = Array.sub keys lo (hi - lo) in
           Array.sort compare piece;
           piece))
  in
  let keys =
    match shape with
    | `Runs k -> sorted_pieces k
    | `Reverse -> Array.map (fun k -> -k) (sorted_pieces 1)
    | `Equal -> Array.make n 0
    | `Random -> keys
  in
  Array.mapi (fun seq k -> (k, seq)) keys

let sort_pool = lazy (Domain_pool.create ~num_domains:2 ())

let prop_sort_rows_stable =
  QCheck2.Test.make ~count:300
    ~name:"sort_rows = Array.stable_sort on runs, ties, reverse, random input"
    (Gen.no_shrink (Gen.pair gen_sort_input Gen.bool))
    (fun (input, pooled) ->
      let on_key (a, _) (b, _) = compare a b in
      let expected = Array.copy input in
      Array.stable_sort on_key expected;
      let rows = Array.copy input in
      let pool = if pooled then Some (Lazy.force sort_pool) else None in
      Compile.sort_rows ?pool on_key rows;
      rows = expected)

let prop_sort_partition_equals_hash =
  QCheck2.Test.make ~count:60
    ~name:"clustered GApply: sort partitioning = hash partitioning row for row"
    (Gen.no_shrink @@ Gen.quad
       (Gen.oneof
          [
            Test_properties.gen_relation ~max_rows:40 Test_properties.g_schema;
            Gen.map
              (Relation.make Test_properties.g_schema)
              (Gen.list_size (Gen.int_range 4096 4300)
                 (Test_properties.gen_row Test_properties.g_schema));
          ])
       (Gen.pair Test_properties.gen_gcols Test_properties.gen_pgq)
       gen_batch_size (Gen.oneofl [ 1; 4 ]))
    (fun (rel, (gcols, pgq), batch_size, parallelism) ->
      let cat = Test_properties.catalog_with_r rel in
      let plan =
        Plan.g_apply_clustered ~gcols ~var:"g"
          ~outer:Test_properties.unqualified_scan_r ~pgq
      in
      let run partition =
        Executor.run
          ~config:(Compile.config_with ~partition ~batch_size ~parallelism ())
          cat plan
      in
      same_rows (run Compile.Sort_partition) (run Compile.Hash_partition))

(* ---------- batch plumbing ---------- *)

(* of_array / to_cursor round-trip at an adversarial size, preserving
   order — [to_cursor] is the row-at-a-time boundary the tagger reads. *)
let test_batch_roundtrip () =
  let rows = List.init 23 (fun i -> row [ vi i ]) in
  let out =
    Cursor.to_list
      (Batch.to_cursor (Batch.of_array ~size:7 (Array.of_list rows)))
  in
  Alcotest.(check (list tuple_testable)) "order and rows preserved" rows out

let test_batch_to_array_exact_fit () =
  let rows = List.init 100 (fun i -> row [ vi i ]) in
  let arr = Batch.to_array (Batch.of_array ~size:32 (Array.of_list rows)) in
  Alcotest.(check int) "length" 100 (Array.length arr);
  List.iteri
    (fun i r -> Alcotest.check tuple_testable "row" r arr.(i))
    rows

let test_batch_size_validated () =
  Alcotest.check_raises "batch_size 0 is rejected"
    (Invalid_argument "Compile.config_with: batch_size 0 < 1") (fun () ->
      ignore (Compile.config_with ~batch_size:0 ()))

(* ---------- operators at batch boundaries ---------- *)

(* l(a) = 0..19, r(b) = 0..14, big(v) = 0..299, e(a) empty *)
let ops_catalog () =
  let cat = Catalog.create () in
  let table name col n =
    let t = Table.create name [ (col, Datatype.Int) ] in
    Table.insert_all t (List.init n (fun i -> row [ vi i ]));
    Catalog.add_table cat t
  in
  table "l" "a" 20;
  table "r" "b" 15;
  table "big" "v" 300;
  table "e" "a" 0;
  cat

(* run [plan] at every batch size and require the reference result *)
let check_sizes ?(min_rows = 0) cat name plan =
  let reference = Reference.run cat plan in
  Alcotest.(check bool)
    (name ^ ": reference has enough rows")
    true
    (Relation.cardinality reference >= min_rows);
  List.iter
    (fun batch_size ->
      check_rel
        (Printf.sprintf "%s at batch size %d" name batch_size)
        reference
        (run_with ~batch_size cat plan))
    batch_sizes

let test_nested_loop_join () =
  let cat = ops_catalog () in
  (* no equi-pair: nested loops over the materialized right side, with
     one left row expanding past a 7-row batch *)
  check_sizes ~min_rows:100 cat "a < b"
    (Plan.join (column "a" <^ column "b") (scan cat "l") (scan cat "r"));
  check_sizes cat "a + 3 <= b and a <> 5"
    (Plan.join
       ((column "a" +^ int 3 <=^ column "b") &&& not_ (column "a" ==^ int 5))
       (scan cat "l") (scan cat "r"))

let test_correlated_apply_grows_buffer () =
  let cat = ops_catalog () in
  (* every outer row pairs with 300 - a inner rows: past 128, so one
     outer row's expansion outgrows the output buffer *)
  let inner = Plan.select (column "v" >=^ outer "a") (scan cat "big") in
  check_sizes ~min_rows:(20 * 281) cat "correlated apply"
    (Plan.apply (scan cat "l") inner)

let test_cached_apply_runs_inner_lazily () =
  let cat = ops_catalog () in
  (* uncorrelated inner: evaluated at most once per run, and never when
     the outer is empty *)
  List.iter
    (fun (outer_table, inner_runs) ->
      let plan =
        Plan.apply (scan cat outer_table)
          (Plan.aggregate [ (count_star, "n") ] (scan cat "big"))
      in
      List.iter
        (fun batch_size ->
          let sink = Obs.make () in
          let c =
            Compile.plan
              ~config:(Compile.config_with ~batch_size ~observe:sink ())
              plan
          in
          check_rel
            (Printf.sprintf "apply over %s at batch size %d" outer_table
               batch_size)
            (Reference.run cat plan)
            (Executor.run_compiled cat c);
          match Obs.snapshot sink with
          | Some { Obs.children = [ _; inner ]; _ } ->
              Alcotest.(check int)
                (Printf.sprintf "inner invocations over %s" outer_table)
                inner_runs inner.Obs.invocations
          | _ -> Alcotest.fail "expected an apply node with two children")
        batch_sizes)
    [ ("e", 0); ("l", 1) ]

let test_exists_and_not_exists () =
  let cat = ops_catalog () in
  List.iter
    (fun negated ->
      let name = if negated then "not exists" else "exists" in
      (* correlated: rows of l with some r row above them (a < 14) *)
      check_sizes ~min_rows:5 cat (name ^ " (correlated)")
        (Plan.apply (scan cat "l")
           (Plan.exists ~negated
              (Plan.select (column "b" >^ outer "a") (scan cat "r"))));
      (* uncorrelated, cached: all rows of l or none *)
      check_sizes cat (name ^ " (cached)")
        (Plan.apply (scan cat "l")
           (Plan.exists ~negated
              (Plan.select (column "b" >^ int 10) (scan cat "r")))))
    [ false; true ]

let test_governed_correlated_apply () =
  let cat = ops_catalog () in
  let plan =
    Plan.apply (scan cat "l")
      (Plan.select (column "v" >=^ outer "a") (scan cat "big"))
  in
  let expect_violation name kind budget =
    List.iter
      (fun batch_size ->
        match
          run_with ~governor:(Governor.start budget) ~batch_size cat plan
        with
        | _ ->
            Alcotest.failf "%s at batch size %d: expected a typed failure"
              name batch_size
        | exception Errors.Resource_error v ->
            Alcotest.(check string)
              (Printf.sprintf "%s at batch size %d" name batch_size)
              (Errors.resource_kind_to_string kind)
              (Errors.resource_kind_to_string v.Errors.kind))
      batch_sizes
  in
  expect_violation "row limit" Errors.Row_limit
    { Governor.unlimited with Governor.row_limit = Some 100 };
  (* a 1 ns deadline has passed by the first pull *)
  expect_violation "timeout" Errors.Timeout
    { Governor.unlimited with Governor.timeout_ns = Some 1 }

(* ---------- the batch size is no longer a session knob ---------- *)

let test_set_batch_size_unknown () =
  let db = Engine.create () in
  ignore (Engine.exec db "create table t (a int)");
  ignore (Engine.exec db "insert into t values (1), (2)");
  (match Engine.exec db "set batch_size = 64" with
  | Engine.Failed (Errors.Name_error m) ->
      Alcotest.(check string) "typed error" "unknown SET knob batch_size" m
  | _ -> Alcotest.fail "expected a typed Name_error");
  check_rows "engine still usable" [ [ vi 2 ] ]
    (Engine.query db "select count(*) from t")

(* ---------- dictionary round-trip ---------- *)

let dict_fixture_strings =
  [ "bolt"; "nut"; "gear"; "bolt"; ""; "a very much longer part name" ]

let test_dict_roundtrip () =
  let t = Table.create "d" [ ("k", Datatype.Int); ("s", Datatype.Str) ] in
  List.iteri (fun i s -> Table.insert t (row [ vi i; vs s ])) dict_fixture_strings;
  let stored = Table.rows t in
  (* handles in the store ... *)
  List.iter
    (fun r ->
      match Tuple.get r 1 with
      | Value.Sym _ -> ()
      | v ->
          Alcotest.failf "expected interned handle, got %s" (Value.to_string v))
    stored;
  (* ... and the original strings at the decode boundary *)
  List.iteri
    (fun i s ->
      let r = List.nth stored i in
      Alcotest.(check string) "decoded" s (Value.to_string (Tuple.get r 1));
      Alcotest.check value_testable "canonical"
        (vs s) (Value.canonical (Tuple.get r 1)))
    dict_fixture_strings;
  (* equal strings share one handle *)
  Alcotest.check value_testable "equal strings, equal handles"
    (Tuple.get (List.nth stored 0) 1)
    (Tuple.get (List.nth stored 3) 1)

(* Interning the same strings from several domains concurrently must
   produce consistent handles: the shard choice is a pure function of
   the string, and each pool's intern is mutex-guarded. *)
let test_dict_concurrent_shards () =
  let schema = Schema.of_list [ Schema.column "s" Datatype.Str ] in
  match Dict.create schema with
  | None -> Alcotest.fail "a string column gets a dictionary"
  | Some dict ->
      let n = 500 in
      let strings = Array.init n (fun i -> Printf.sprintf "str-%d" (i mod 97)) in
      let encode_all offset =
        Array.init n (fun i ->
            let s = strings.((i + offset) mod n) in
            Tuple.get (Dict.encode_row dict (row [ vs s ])) 0)
      in
      let domains =
        List.init 4 (fun d -> Domain.spawn (fun () -> encode_all (d * 131)))
      in
      let results = List.map Domain.join domains in
      (* every domain decoded back to the right string, and equal
         strings got identical handles across domains *)
      List.iteri
        (fun d encoded ->
          let offset = d * 131 in
          Array.iteri
            (fun i v ->
              Alcotest.(check string)
                (Printf.sprintf "domain %d decode %d" d i)
                strings.((i + offset) mod n)
                (Value.to_string v))
            encoded)
        results;
      let serial = encode_all 0 in
      List.iteri
        (fun d encoded ->
          let offset = d * 131 in
          Array.iteri
            (fun i v ->
              Alcotest.check value_testable
                (Printf.sprintf "domain %d handle %d" d i)
                serial.((i + offset) mod n) v)
            encoded)
        results;
      Alcotest.(check int) "distinct entries" 97 (Dict.total Strpool.length dict)

(* Two domains intern into one pool past several growths while asking
   for markup flags, of their own new ids and of ids the other domain
   published: a flag lost to a growth is scanned again, so every answer
   must equal a direct scan of the string. *)
let test_markup_flags_concurrent () =
  let pool = Strpool.create () in
  let n = 2000 in
  let strings =
    Array.init n (fun i ->
        match i mod 6 with
        | 0 -> Printf.sprintf "a<%d" i
        | 1 -> Printf.sprintf "%d>b" i
        | 2 -> Printf.sprintf "c&%d\"" i
        | _ -> Printf.sprintf "plain-%d" i)
  in
  let scan s =
    not (String.exists (function '<' | '>' | '&' | '"' -> true | _ -> false) s)
  in
  let work offset () =
    let wrong = ref 0 in
    let rng = Random.State.make [| offset |] in
    for k = 0 to n - 1 do
      let s = strings.((k + offset) mod n) in
      let id = Strpool.intern pool s in
      if Strpool.markup_free pool id <> scan s then incr wrong;
      let other = Random.State.int rng (Strpool.length pool) in
      if Strpool.markup_free pool other <> scan (Strpool.unsafe_get pool other)
      then incr wrong
    done;
    !wrong
  in
  let domains = [ Domain.spawn (work 0); Domain.spawn (work (n / 2)) ] in
  let wrong = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  Alcotest.(check int) "answers that differ from a scan" 0 wrong;
  Alcotest.(check int) "every string interned once" n (Strpool.length pool);
  (* cached or scanned again, every flag still equals a scan *)
  for id = 0 to n - 1 do
    if Strpool.markup_free pool id <> scan (Strpool.unsafe_get pool id) then
      Alcotest.failf "flag of id %d differs from a scan" id
  done

(* ---------- TPC-H Q1-Q4: executor = reference, encoded = plain ---------- *)

let tpch_engine () =
  let db = Engine.create () in
  Engine.load_tpch db ~msf:0.1;
  db

let test_tpch_matches_reference () =
  let db = tpch_engine () in
  let cat = Engine.catalog db in
  List.iter
    (fun (name, gapply, baseline) ->
      List.iter
        (fun (form, sql) ->
          let plan = Engine.effective_plan db sql in
          let reference = Reference.run cat plan in
          List.iter
            (fun batch_size ->
              check_rel
                (Printf.sprintf "%s (%s) at batch size %d" name form
                   batch_size)
                reference
                (run_with ~batch_size cat plan))
            [ 7; Batch.default_size ])
        [ ("gapply", gapply); ("baseline", baseline) ])
    Workloads.figure8_queries

(* With and without dictionary encoding the logical database state is
   identical: the durability digest decodes handles before hashing. *)
let test_tpch_dict_digest () =
  let was = Dict.enabled () in
  Fun.protect
    ~finally:(fun () -> Dict.set_enabled was)
    (fun () ->
      Dict.set_enabled true;
      let encoded = tpch_engine () in
      Dict.set_enabled false;
      let plain = tpch_engine () in
      Alcotest.(check string) "db digest, encoded vs plain"
        (Recovery.db_digest (Engine.catalog plain))
        (Recovery.db_digest (Engine.catalog encoded));
      List.iter
        (fun (name, gapply, _) ->
          Alcotest.check relation_ordered_testable name
            (Engine.query plain gapply) (Engine.query encoded gapply))
        Workloads.figure8_queries)

let suite =
  [
    qtest prop_executor_matches_reference;
    qtest prop_gapply_matches_reference;
    Alcotest.test_case "batch adapters round-trip at size 7" `Quick
      test_batch_roundtrip;
    Alcotest.test_case "Batch.to_array is exact-fit" `Quick
      test_batch_to_array_exact_fit;
    Alcotest.test_case "batch size below 1 is rejected" `Quick
      test_batch_size_validated;
    Alcotest.test_case "nested-loop join = Reference at 1/7/128" `Quick
      test_nested_loop_join;
    Alcotest.test_case "correlated Apply past one batch = Reference" `Quick
      test_correlated_apply_grows_buffer;
    Alcotest.test_case "cached Apply: empty outer never runs inner" `Quick
      test_cached_apply_runs_inner_lazily;
    Alcotest.test_case "EXISTS / NOT EXISTS = Reference at 1/7/128" `Quick
      test_exists_and_not_exists;
    Alcotest.test_case "governed correlated Apply fails typed" `Quick
      test_governed_correlated_apply;
    Alcotest.test_case "SET batch_size is an unknown knob" `Quick
      test_set_batch_size_unknown;
    Alcotest.test_case "dictionary round-trips strings" `Quick
      test_dict_roundtrip;
    Alcotest.test_case "concurrent interning agrees across domains" `Quick
      test_dict_concurrent_shards;
    Alcotest.test_case "markup flags under concurrent interning" `Quick
      test_markup_flags_concurrent;
    Alcotest.test_case "TPC-H Q1-Q4 = Reference at sizes 7/128" `Quick
      test_tpch_matches_reference;
    Alcotest.test_case "TPC-H digest: encoded = plain" `Quick
      test_tpch_dict_digest;
    qtest prop_order_by_exact_order;
    qtest prop_sort_rows_stable;
    qtest prop_sort_partition_equals_hash;
  ]
