(* The group-local GApply loop.

   A per-group query that is a UNION ALL of Project/Aggregate/Select
   chains over the group runs as one loop per group instead of a cursor
   chain.  The loop must be invisible: on random such PGQs it returns
   the reference evaluator's rows (as multisets) and exactly the rows,
   in exactly the order, of the same PGQ forced through the cursor chain
   (wrapped in an Alias, which the shape test rejects) — at every batch
   size, parallelism, partitioning and clustering.  The governor still
   reaches it: a cancellation or a deadline that trips while the loop
   runs aborts at the next group with a typed error. *)

open Support
open Expr

module Gen = QCheck2.Gen

(* [k] mixes NULL, Int and Float keys (Int 1 and Float 1. are one
   group); [s] numbers the rows so every reordering shows *)
let src_schema =
  schema
    [ ("k", Datatype.Int); ("a", Datatype.Int); ("b", Datatype.Int);
      ("s", Datatype.Int) ]

let g = Plan.group_scan ~var:"g" src_schema
let src = Plan.group_scan ~var:"src" src_schema

let gen_row =
  Gen.map3
    (fun k a b -> [ k; a; b ])
    (Gen.oneofl
       [ vnull; vi 0; vi 1; vf 1.; vi 2; vf 2.; vf 0.5 ])
    (Gen.oneof
       [ Gen.map vi (Gen.int_range (-2) 3); Gen.oneofl [ vnull; vf 1.5 ] ])
    (Gen.map vi (Gen.int_range 0 3))

(* small inputs, and ones whose few groups are larger than a batch *)
let gen_relation : Relation.t Gen.t =
  Gen.map
    (fun rows ->
      Relation.make src_schema
        (List.mapi (fun i cells -> Tuple.of_list (cells @ [ vi i ])) rows))
    (Gen.list_size
       (Gen.oneof [ Gen.int_range 0 30; Gen.int_range 150 400 ])
       gen_row)

(* [s < 3] empties every group but the first rows' *)
let gen_pred =
  Gen.oneofl
    [ column "a" >^ int 1; column "b" ==^ int 0; column "s" <^ int 3;
      column "b" <=^ int 2; Unary (Is_null, column "a") ]

let gen_agg =
  Gen.oneofl
    [ count_star; count (column "a"); sum (column "a"); avg (column "a");
      min_ (column "a"); max_ (column "b"); sum (column "k") ]

let gen_item =
  Gen.oneofl
    [ column "a"; column "s"; column "b" +^ int 1; null; column "k" ]

(* one branch, two output columns *)
let gen_branch : Plan.t Gen.t =
  let open Gen in
  let* preds = list_size (int_range 0 2) gen_pred in
  let base = List.fold_left (fun p pred -> Plan.select pred p) g preds in
  let* a1 = gen_agg and* a2 = gen_agg in
  let* e1 = gen_item and* e2 = gen_item in
  oneofl
    [
      Plan.project [ (e1, "x"); (e2, "y") ] base;
      Plan.aggregate [ (a1, "x"); (a2, "y") ] base;
      Plan.project
        [ (column "y", "x"); (column "x", "y") ]
        (Plan.aggregate [ (a1, "x"); (a2, "y") ] base);
    ]

(* 1-3 branches, or a bare Select chain *)
let gen_pgq : Plan.t Gen.t =
  let open Gen in
  oneof
    [
      map Plan.union_all (list_size (int_range 1 3) gen_branch);
      map
        (List.fold_left (fun p pred -> Plan.select pred p) g)
        (list_size (int_range 0 2) gen_pred);
    ]

let gen_gcols =
  Gen.oneofl
    [ [ Expr.col "k" ]; [ Expr.col "k"; Expr.col "b" ]; [ Expr.col "b" ] ]

type setup = {
  batch_size : int;
  parallelism : int;
  partition : Compile.partition_strategy;
  cluster : bool;
}

let gen_setup =
  Gen.map
    (fun (batch_size, parallelism, partition, cluster) ->
      { batch_size; parallelism; partition; cluster })
    (Gen.quad (Gen.oneofl [ 1; 7; 128 ]) (Gen.oneofl [ 1; 4 ])
       (Gen.oneofl [ Compile.Hash_partition; Compile.Sort_partition ])
       Gen.bool)

let print_case (rel, gcols, pgq, st) =
  Printf.sprintf "rows=%d gcols=%s size=%d par=%d %s cluster=%b\n%s"
    (Relation.cardinality rel)
    (String.concat "," (List.map (fun (r : Expr.col_ref) -> r.Expr.name) gcols))
    st.batch_size st.parallelism
    (match st.partition with
    | Compile.Hash_partition -> "hash"
    | Compile.Sort_partition -> "sort")
    st.cluster (Plan.to_string pgq)

let gapply ~cluster ~gcols pgq =
  (if cluster then Plan.g_apply_clustered else Plan.g_apply)
    ~gcols ~var:"g" ~outer:src ~pgq

let bind rel = Env.bind_group "src" rel (Env.make (Catalog.create ()))

let run st env plan =
  Executor.run_in
    ~config:
      (Compile.config_with ~batch_size:st.batch_size
         ~parallelism:st.parallelism ~partition:st.partition ())
    env plan

(* cell for cell, representation included (Int 1 and Float 1. differ) *)
let same_rows a b =
  let a = Relation.rows_array a and b = Relation.rows_array b in
  Array.length a = Array.length b
  && Array.for_all2
       (fun r s -> Array.length r = Array.length s && Array.for_all2 ( = ) r s)
       a b

let prop_loop_matches_reference_and_chain =
  QCheck2.Test.make ~count:300
    ~name:
      "group-local loop = Reference (multiset) = cursor chain (in order), \
       sizes 1/7/128, parallelism 1/4, hash/sort, clustered or not"
    ~print:print_case
    (Gen.no_shrink (Gen.quad gen_relation gen_gcols gen_pgq gen_setup))
    (fun (rel, gcols, pgq, st) ->
      let chained = Plan.alias "chain" pgq in
      if not (Compile.group_local ~var:"g" pgq) then
        QCheck2.Test.fail_report "generated PGQ is not group-local";
      if Compile.group_local ~var:"g" chained then
        QCheck2.Test.fail_report "an Alias-wrapped PGQ must take the chain";
      let env = bind rel in
      let loop = run st env (gapply ~cluster:st.cluster ~gcols pgq) in
      let chain = run st env (gapply ~cluster:st.cluster ~gcols chained) in
      Relation.equal_as_multiset
        (Reference.eval env (gapply ~cluster:false ~gcols pgq))
        loop
      && same_rows loop chain)

(* ---------- shape test ---------- *)

let test_shape () =
  let agg = Plan.aggregate [ (count_star, "n") ] g in
  let local =
    [
      g;
      Plan.select (column "a" >^ int 1) g;
      agg;
      Plan.project [ (column "n", "n") ] agg;
      Plan.union_all
        [ Plan.project [ (column "a", "x") ] g;
          Plan.project [ (column "n", "x") ] agg ];
    ]
  and chained =
    [
      Plan.alias "t" g;
      Plan.distinct g;
      Plan.order_by [ (column "a", Plan.Asc) ] g;
      Plan.apply (Plan.exists (Plan.select (column "a" >^ int 1) g)) g;
      Plan.group_scan ~var:"other" src_schema;
      Plan.project [ (column "a", "a") ] (Plan.project [ (column "a", "a") ] g);
      Plan.aggregate [ (count_star, "n") ]
        (Plan.aggregate [ (count_star, "m") ] g);
      Plan.union_all [ g; Plan.alias "t" g ];
    ]
  in
  let check expected p =
    Alcotest.(check bool) (Plan.to_string p) expected
      (Compile.group_local ~var:"g" p)
  in
  List.iter (check true) local;
  List.iter (check false) chained

(* ---------- the governor inside the loop ---------- *)

(* 40 rows in 8 groups through a two-branch group-local PGQ *)
let governed_case () =
  let rel =
    Relation.make src_schema
      (List.init 40 (fun i -> Tuple.of_list [ vi (i mod 8); vi i; vi 0; vi i ]))
  in
  let pgq =
    Plan.union_all
      [
        Plan.project [ (column "a", "x") ] g;
        Plan.aggregate [ (sum (column "a"), "x") ] g;
      ]
  in
  (rel, gapply ~cluster:true ~gcols:[ Expr.col "k" ] pgq)

(* Run [plan] under [gov]; [on_first_group] fires from the trace hook
   when the loop records its first group (on the PGQ's group scan). *)
let trip_inside_loop ~gov ~on_first_group =
  let rel, plan = governed_case () in
  Alcotest.(check bool) "case is group-local" true
    (match plan with
    | Plan.G_apply { var; pgq; _ } -> Compile.group_local ~var pgq
    | _ -> false);
  let fired = ref false in
  let hook (e : Obs.event) =
    if (not !fired) && e.Obs.op = "group_scan($g)" && e.Obs.kind = Obs.Open
    then begin
      fired := true;
      on_first_group ()
    end
  in
  let env =
    Env.bind_group "src" rel (Env.make ~governor:gov (Catalog.create ()))
  in
  match
    Executor.run_in
      ~config:(Compile.config_with ~observe:(Obs.make ~hook ()) ())
      env plan
  with
  | _ -> Alcotest.fail "expected the loop to abort"
  | exception Errors.Resource_error v ->
      Alcotest.(check bool) "tripped after the first group" true !fired;
      v

let test_cancel_inside_loop () =
  let gov = Governor.start Governor.unlimited in
  let v =
    trip_inside_loop ~gov ~on_first_group:(fun () -> Governor.cancel gov)
  in
  Alcotest.(check string) "kind" "cancelled"
    (Errors.resource_kind_to_string v.Errors.kind);
  Alcotest.(check (option string)) "checked per group" (Some "gapply.exec")
    v.Errors.operator

let test_deadline_inside_loop () =
  let gov =
    Governor.start
      { Governor.unlimited with Governor.timeout_ns = Some 50_000_000 }
  in
  let v =
    trip_inside_loop ~gov ~on_first_group:(fun () -> Unix.sleepf 0.1)
  in
  Alcotest.(check string) "kind" "timeout"
    (Errors.resource_kind_to_string v.Errors.kind);
  Alcotest.(check (option string)) "checked per group" (Some "gapply.exec")
    v.Errors.operator

let suite =
  [
    Alcotest.test_case "shape test: which PGQs take the loop" `Quick test_shape;
    QCheck_alcotest.to_alcotest prop_loop_matches_reference_and_chain;
    Alcotest.test_case "cancellation trips inside the loop" `Quick
      test_cancel_inside_loop;
    Alcotest.test_case "deadline trips inside the loop" `Quick
      test_deadline_inside_loop;
  ]
