(* Property tests for the engine extensions: index nested-loop joins,
   scalar-aggregate decorrelation, and null-safe equality. *)

open Support

module Gen = QCheck2.Gen

let gen_value_int =
  Gen.frequency
    [
      (8, Gen.map (fun i -> Value.Int i) (Gen.int_range (-4) 4));
      (1, Gen.return Value.Null);
    ]

let gen_value_float =
  Gen.frequency
    [
      (8, Gen.map (fun i -> Value.Float (float_of_int i /. 2.)) (Gen.int_range (-6) 6));
      (1, Gen.return Value.Null);
    ]

let t1_schema = schema [ ("a", Datatype.Int); ("c", Datatype.Float) ]
let t2_schema = schema [ ("k", Datatype.Int); ("v", Datatype.Float) ]

let gen_rows schema gens =
  Gen.list_size (Gen.int_range 0 12)
    (Gen.map Tuple.of_list (Gen.flatten_l gens))
  |> Gen.map (Relation.make schema)

let gen_t1 = gen_rows t1_schema [ gen_value_int; gen_value_float ]
let gen_t2 = gen_rows t2_schema [ gen_value_int; gen_value_float ]

let catalog_with rel1 rel2 =
  let cat = Catalog.create () in
  let t1 = Table.create "t1" [ ("a", Datatype.Int); ("c", Datatype.Float) ] in
  Relation.iter (Table.insert t1) rel1;
  let t2 = Table.create "t2" [ ("k", Datatype.Int); ("v", Datatype.Float) ] in
  Relation.iter (Table.insert t2) rel2;
  Catalog.add_table cat t1;
  Catalog.add_table cat t2;
  cat

(* How a property's join is wrapped: half the plans put it under a
   bare-column Project that drops, reorders and repeats columns (the
   join then writes only the kept cells), some add a residual conjunct,
   some carry an FK hint although [t2.k] repeats, and the batch size
   forces batch boundaries. *)
type join_shape = {
  keep : string list option;
  residual : bool;
  fk : bool;
  batch_size : int;
}

let gen_join_shape =
  Gen.map4
    (fun keep residual fk batch_size -> { keep; residual; fk; batch_size })
    (Gen.option ~ratio:0.5
       (Gen.list_size (Gen.int_range 1 6)
          (Gen.oneofl [ "a"; "c"; "k"; "v" ])))
    (Gen.frequency [ (2, Gen.return false); (1, Gen.return true) ])
    Gen.bool
    (Gen.oneofl [ 1; 7; 128 ])

let shaped_join shape pred =
  let pred =
    if shape.residual then Expr.(pred &&& (column "c" <=^ column "v"))
    else pred
  in
  let join =
    Plan.join
      ?fk:(if shape.fk then Some Plan.Left_to_right else None)
      pred
      (Plan.table_scan ~table:"t1" ~alias:"t1" t1_schema)
      (Plan.table_scan ~table:"t2" ~alias:"t2" t2_schema)
  in
  match shape.keep with
  | None -> join
  | Some cols ->
      Plan.project
        (List.mapi (fun i c -> (Expr.column c, Printf.sprintf "o%d" i)) cols)
        join

(* The join equals [Reference] through the hash build, and again through
   an index on [t2]'s [columns] created afterwards over the same rows. *)
let index_join_agrees ~columns pred (r1, r2, shape) =
  let cat = catalog_with r1 r2 in
  let p = shaped_join shape pred in
  let run () =
    Executor.run
      ~config:(Compile.config_with ~batch_size:shape.batch_size ())
      cat p
  in
  let reference = Reference.run cat p in
  let hashed = run () in
  Catalog.create_index cat ~name:"i" ~table:"t2" ~columns;
  Relation.equal_as_multiset reference hashed
  && Relation.equal_as_multiset reference (run ())

let prop_index_join_equals_hash_join =
  QCheck2.Test.make ~count:300
    ~name:"index nested-loop join = hash join = reference"
    (Gen.triple gen_t1 gen_t2 gen_join_shape)
    (index_join_agrees ~columns:[ "k" ] Expr.(column "a" ==^ column "k"))

(* A two-column index declared in the opposite order of the join's equi
   pairs, each pair '=' or '<=>': the probe must reorder both its key
   and its NULL rejection. *)
let prop_two_column_index_join =
  QCheck2.Test.make ~count:300
    ~name:"two-column index probe (reversed, = and <=>) = hash join"
    (Gen.pair
       (Gen.triple gen_t1 gen_t2 gen_join_shape)
       (Gen.pair Gen.bool Gen.bool))
    (fun (case, (ns_a, ns_c)) ->
      let eq nullsafe l r =
        if nullsafe then Expr.Binary (Expr.Nulleq, Expr.column l, Expr.column r)
        else Expr.(column l ==^ column r)
      in
      index_join_agrees ~columns:[ "v"; "k" ]
        Expr.(eq ns_a "a" "k" &&& eq ns_c "c" "v")
        case)

let prop_nullsafe_join_matches_reference =
  QCheck2.Test.make ~count:300
    ~name:"null-safe equi-join = reference (NULL keys match)"
    (Gen.triple gen_t1 gen_t2 gen_join_shape)
    (fun (r1, r2, shape) ->
      let cat = catalog_with r1 r2 in
      let p =
        shaped_join shape
          (Expr.Binary (Expr.Nulleq, Expr.column "a", Expr.column "k"))
      in
      Relation.equal_as_multiset (Reference.run cat p)
        (Executor.run
           ~config:(Compile.config_with ~batch_size:shape.batch_size ())
           cat p))

let prop_nulleq_semantics =
  QCheck2.Test.make ~count:500
    ~name:"a <=> b evaluates to equal_total"
    (Gen.pair gen_value_int gen_value_float)
    (fun (a, b) ->
      let s = schema [ ("x", Datatype.Int); ("y", Datatype.Float) ] in
      let result =
        Eval.eval ~frames:[] s (row [ a; b ])
          (Expr.Binary (Expr.Nulleq, Expr.column "x", Expr.column "y"))
      in
      Value.equal_total result (Value.Bool (Value.equal_total a b))
      && not (Value.is_null result))

let prop_decorrelation_preserves =
  QCheck2.Test.make ~count:200
    ~name:"decorrelate-scalar-agg preserves results on random data"
    (Gen.triple gen_t1 gen_t2 (Gen.int_range (-3) 3))
    (fun (r1, r2, bound) ->
      let cat = catalog_with r1 r2 in
      (* for each t1 row: c > avg(v) over t2 rows with k = a *)
      let outer = Plan.table_scan ~table:"t1" ~alias:"t1" t1_schema in
      let inner_scan = Plan.table_scan ~table:"t2" ~alias:"t2" t2_schema in
      let plan =
        Plan.select
          Expr.(
            column "c" >^ column "sq"
            &&& (column "sq" >^ float (float_of_int bound)))
          (Plan.apply outer
             (Plan.aggregate
                [ (Expr.avg (Expr.column "v"), "sq") ]
                (Plan.select
                   (Expr.Binary (Expr.Eq, Expr.outer "a", Expr.column "k"))
                   inner_scan)))
      in
      match Optimizer.force_rule "decorrelate-scalar-agg" cat plan with
      | None -> false (* must fire on this canonical shape *)
      | Some plan' ->
          Relation.equal_as_multiset (Reference.run cat plan)
            (Executor.run cat plan'))

let prop_plan_rewrite_exprs_identity =
  QCheck2.Test.make ~count:200
    ~name:"rewrite_exprs with identity leaves plans unchanged"
    (Gen.pair Test_properties.gen_gcols Test_properties.gen_pgq)
    (fun (gcols, pgq) ->
      let plan =
        Plan.g_apply ~gcols ~var:"g"
          ~outer:(Plan.group_scan ~var:"g" Test_properties.g_schema)
          ~pgq
      in
      Plan.equal plan
        (Plan.rewrite_exprs ~f_expr:(fun e -> e) ~f_ref:(fun r -> r) plan))

(* ---------- plan-cache differential property ----------

   Random queries interleaved with random DDL/DML, applied identically
   to a cache-enabled engine and a cache-disabled twin.  Every query
   runs warm-twice plus through a prepared handle on the cached engine:
   all three must be byte-identical to each other, to the cold twin,
   and multiset-equal to the reference evaluator — whatever inserts and
   index creations happened in between. *)

type diff_op = DQ of string | DI of string | DX of bool  (* index on t1? *)

let gen_diff_op =
  let gen_query =
    Gen.oneof
      [
        Gen.map
          (fun n -> Printf.sprintf "select a, c from t1 where a >= %d" n)
          (Gen.int_range (-3) 3);
        Gen.return "select a, v from t1, t2 where a = k";
        Gen.return "select distinct k from t2";
        Gen.return "select k, avg(v) from t2 group by k";
        Gen.map
          (fun n -> Printf.sprintf "select k, v from t2 where k = %d" n)
          (Gen.int_range (-3) 3);
        Gen.return
          "select a, c from t1 where c > (select avg(v) from t2 where k = a)";
      ]
  in
  let gen_insert =
    Gen.map3
      (fun into_t1 x y ->
        if into_t1 then Printf.sprintf "insert into t1 values (%d, %d.5)" x y
        else Printf.sprintf "insert into t2 values (%d, %d.5)" x y)
      Gen.bool
      (Gen.int_range (-4) 4)
      (Gen.int_range (-4) 4)
  in
  Gen.frequency
    [
      (6, Gen.map (fun q -> DQ q) gen_query);
      (2, Gen.map (fun i -> DI i) gen_insert);
      (1, Gen.map (fun b -> DX b) Gen.bool);
    ]

let gen_diff_ops = Gen.list_size (Gen.int_range 1 12) gen_diff_op

let prop_cache_differential =
  QCheck2.Test.make ~count:100
    ~name:"cached/prepared execution = cold path = reference across DDL/DML"
    gen_diff_ops
    (fun ops ->
      let warm = Engine.create () in
      let cold = Engine.create ~plan_cache:false () in
      List.iter
        (fun src ->
          ignore (Engine.exec warm src);
          ignore (Engine.exec cold src))
        [
          "create table t1 (a int, c float)";
          "insert into t1 values (1, 1.5), (2, 0.5), (3, 2.5)";
          "create table t2 (k int, v float)";
          "insert into t2 values (1, 4.5), (1, 0.5), (2, 2.5)";
        ];
      let executions = ref 0 and fresh = ref 0 in
      let ok =
        List.for_all
          (function
            | DQ q ->
                (* four warm-engine executions: cold-or-warm, warm,
                   prepare (a cache lookup itself), handle replay *)
                executions := !executions + 4;
                let w1 = Engine.query warm q in
                let w2 = Engine.query warm q in
                let h = Engine.prepare warm q in
                let w3 = Engine.exec_prepared warm h in
                let c1 = Engine.query cold q in
                let reference =
                  Reference.run (Engine.catalog cold)
                    (Engine.plan_of_sql cold q)
                in
                Relation.equal_as_list w1 w2
                && Relation.equal_as_list w1 w3
                && Relation.equal_as_list w1 c1
                && Relation.equal_as_multiset reference w1
            | DI ins ->
                ignore (Engine.exec warm ins);
                ignore (Engine.exec cold ins);
                true
            | DX on_t1 ->
                incr fresh;
                let ddl =
                  if on_t1 then
                    Printf.sprintf "create index d%d on t1 (a)" !fresh
                  else Printf.sprintf "create index d%d on t2 (k)" !fresh
                in
                ignore (Engine.exec warm ddl);
                ignore (Engine.exec cold ddl);
                true)
          ops
      in
      (* counter conservation: with the cache live, every query-path
         execution is accounted as exactly one hit or miss; the cold
         twin accounts nothing *)
      ok
      && Support.conservation_failures ~executions:!executions warm = []
      && Support.conservation_failures ~executions:0 cold = [])

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_index_join_equals_hash_join;
      prop_two_column_index_join;
      prop_nullsafe_join_matches_reference;
      prop_nulleq_semantics;
      prop_decorrelation_preserves;
      prop_plan_rewrite_exprs_identity;
      prop_cache_differential;
    ]
