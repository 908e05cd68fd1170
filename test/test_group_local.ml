(* The group-local GApply loop.

   A per-group query that is a UNION ALL of Project/Aggregate/Select
   chains over the group — over its members, the first-seen rows of a
   Distinct projection of them, or an Apply pairing them with an
   uncorrelated aggregate or EXISTS over the group — possibly kept or
   dropped as a whole by an EXISTS guard on an Apply's outer side, runs
   as one loop per group instead of a cursor chain.  The loop must be
   invisible: on random such PGQs it returns the reference evaluator's
   rows (as multisets) and exactly the rows, in exactly the order, and
   the EXPLAIN ANALYZE counts of the same PGQ forced through the cursor
   chain (wrapped in an Alias, which the shape test rejects), and the
   same rows again when it counts them for EXPLAIN ANALYZE — at every
   batch size, parallelism, partitioning and clustering.  The governor
   still reaches it: a cancellation or a deadline that trips while the
   loop runs aborts at the next group with a typed error.  The
   gapply_groups_total counters say which path each group took. *)

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

(* [s < 3] empties every group but the first rows'; [b > 3] empties
   every group *)
let gen_pred =
  Gen.oneofl
    [ column "a" >^ int 1; column "b" ==^ int 0; column "s" <^ int 3;
      column "b" <=^ int 2; Unary (Is_null, column "a"); column "b" >^ int 3 ]

let gen_agg =
  Gen.oneofl
    [ count_star; count (column "a"); sum (column "a"); avg (column "a");
      min_ (column "a"); max_ (column "b"); sum (column "k") ]

let gen_item =
  Gen.oneofl
    [ column "a"; column "s"; column "b" +^ int 1; null; column "k" ]

let selects preds input =
  List.fold_left (fun p pred -> Plan.select pred p) input preds

(* An EXISTS probe over the group: 0-2 Selects over the members, or
   0-2 HAVING-style Selects over an aggregate [q] of them. *)
let gen_probe : Plan.t Gen.t =
  let open Gen in
  let* preds = list_size (int_range 0 2) gen_pred in
  let* agg = gen_agg in
  let* having =
    list_size (int_range 0 2)
      (oneofl
         [
           column "q" >^ Expr.int 1; column "q" <=^ Expr.int 2;
           column "q" ==^ Expr.int 0; Unary (Is_null, column "q");
         ])
  in
  oneofl
    [ selects preds g;
      selects having (Plan.aggregate [ (agg, "q") ] (selects preds g)) ]

(* A Distinct over a projection of the members (0-1 Selects) onto the
   group's own column names.  No column is [s] and [k] is never the
   member's own, so rows repeat within a group and, when the grouping
   columns are not projected, across groups: a seen-set that outlived
   its group would drop rows.  Any column may be the only one in which
   two rows differ. *)
let gen_distinct : Plan.t Gen.t =
  let open Gen in
  let* preds = list_size (int_range 0 1) gen_pred in
  let* k = oneofl [ Expr.int 0; column "a"; column "b" ]
  and* b = oneofl [ Expr.int 1; column "a" +^ Expr.int 1; column "b" ]
  and* s = oneofl [ column "a"; Expr.int 0; null; column "b" ] in
  return
    (Plan.distinct
       (Plan.project
          [ (k, "k"); (column "a", "a"); (b, "b"); (s, "s") ]
          (selects preds g)))

(* A branch's source, and the inner value columns it adds to each
   member: the group itself, a Distinct projection of it, or an Apply
   pairing the members passing 0-2 Selects with an inner over the group
   (0-2 Selects of its own) — 1-2 aggregates ([m1], [m2]; an empty
   selection folds to NULL or 0) or an [EXISTS] / [NOT EXISTS] probe. *)
let gen_source : (Plan.t * Expr.t list) Gen.t =
  let open Gen in
  let* outer_preds = list_size (int_range 0 2) gen_pred in
  let* inner_preds = list_size (int_range 0 2) gen_pred in
  let* aggs = list_size (int_range 1 2) gen_agg in
  let* negated = bool in
  let* probe = gen_probe in
  let* distinct = gen_distinct in
  let outer = selects outer_preds g and inner = selects inner_preds g in
  let names = List.mapi (fun i a -> (a, Printf.sprintf "m%d" (i + 1))) aggs in
  oneofl
    [
      (g, []);
      (distinct, []);
      ( Plan.apply outer (Plan.aggregate names inner),
        List.map (fun (_, m) -> column m) names );
      (Plan.apply outer (Plan.exists ~negated probe), []);
    ]

(* a Select over a source: a member test, or one comparing the member
   with an inner value *)
let gen_source_pred values =
  match values with
  | [] -> gen_pred
  | _ ->
      Gen.oneof
        [
          gen_pred;
          Gen.map2
            (fun m f -> f m)
            (Gen.oneofl values)
            (Gen.oneofl
               [
                 (fun m -> column "a" >=^ m); (fun m -> column "s" <^ m);
                 (fun m -> m >^ int 1); (fun m -> Unary (Is_null, m));
               ]);
        ]

(* one branch, two output columns *)
let gen_branch : Plan.t Gen.t =
  let open Gen in
  let* source, values = gen_source in
  let* preds = list_size (int_range 0 2) (gen_source_pred values) in
  let base = selects preds source in
  let* a1 = gen_agg and* a2 = gen_agg in
  let* e1 = if values = [] then gen_item else oneof [ gen_item; oneofl values ]
  and* e2 = gen_item in
  oneofl
    [
      Plan.project [ (e1, "x"); (e2, "y") ] base;
      Plan.aggregate [ (a1, "x"); (a2, "y") ] base;
      Plan.project
        [ (column "y", "x"); (column "x", "y") ]
        (Plan.aggregate [ (a1, "x"); (a2, "y") ] base);
    ]

(* 1-3 branches, or a bare Select chain over a source; either one
   possibly under an EXISTS / NOT EXISTS guard that keeps or drops the
   whole group (publishing's group selection) *)
let gen_pgq : Plan.t Gen.t =
  let open Gen in
  let* body =
    oneof
      [
        map Plan.union_all (list_size (int_range 1 3) gen_branch);
        (let* source, values = gen_source in
         map
           (fun preds -> selects preds source)
           (list_size (int_range 0 2) (gen_source_pred values)));
      ]
  in
  let* negated = bool in
  let* probe = gen_probe in
  oneofl [ body; Plan.apply (Plan.exists ~negated probe) body ]

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
    (Gen.quad (Gen.oneofl [ 1; 7; 128 ]) (Gen.oneofl [ 1; 2; 4 ])
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

let run ?observe st env plan =
  Executor.run_in
    ~config:
      (Compile.config_with ~batch_size:st.batch_size
         ~parallelism:st.parallelism ~partition:st.partition ?observe ())
    env plan

(* the rows and metric tree of an observed run *)
let analyze st env plan =
  let sink = Obs.make () in
  let rows = run ~observe:sink st env plan in
  match Obs.snapshot sink with
  | Some stat -> (rows, stat)
  | None -> Alcotest.fail "no metric tree"

(* Every counter EXPLAIN ANALYZE prints but time, node for node. *)
let rec same_counts (a : Obs.stat) (b : Obs.stat) =
  a.Obs.op = b.Obs.op
  && a.Obs.invocations = b.Obs.invocations
  && a.Obs.rows = b.Obs.rows
  && a.Obs.batches = b.Obs.batches
  && a.Obs.partitions = b.Obs.partitions
  && List.length a.Obs.children = List.length b.Obs.children
  && List.for_all2 same_counts a.Obs.children b.Obs.children

(* The loop's operator lines count what the chain's do: the GApply's
   groups and rows, its outer input, and the PGQ below the chain's
   Alias.  Only the GApply's own batches (packed output) may differ. *)
let same_analyze (loop : Obs.stat) (chain : Obs.stat) =
  match (loop.Obs.children, chain.Obs.children) with
  | [ lo; lp ], [ co; { Obs.children = [ cp ]; _ } ] ->
      loop.Obs.rows = chain.Obs.rows
      && loop.Obs.partitions = chain.Obs.partitions
      && same_counts lo co && same_counts lp cp
  | _ -> false

(* cell for cell, representation included (Int 1 and Float 1. differ) *)
let same_rows a b =
  let a = Relation.rows_array a and b = Relation.rows_array b in
  Array.length a = Array.length b
  && Array.for_all2
       (fun r s -> Array.length r = Array.length s && Array.for_all2 ( = ) r s)
       a b

let prop_loop_matches_reference_and_chain =
  QCheck2.Test.make ~count:500 ~long_factor:10
    ~name:
      "group-local loop = Reference (multiset) = cursor chain (in order, \
       same EXPLAIN ANALYZE counts), sizes 1/7/128, parallelism 1/2/4, \
       hash/sort, clustered or not"
    ~print:print_case
    (Gen.no_shrink (Gen.quad gen_relation gen_gcols gen_pgq gen_setup))
    (fun (rel, gcols, pgq, st) ->
      let chained = Plan.alias "chain" pgq in
      if not (Compile.group_local ~var:"g" pgq) then
        QCheck2.Test.fail_report "generated PGQ is not group-local";
      if Compile.group_local ~var:"g" chained then
        QCheck2.Test.fail_report "an Alias-wrapped PGQ must take the chain";
      let env = bind rel in
      let loop = gapply ~cluster:st.cluster ~gcols pgq
      and chain = gapply ~cluster:st.cluster ~gcols chained in
      let rows = run st env loop in
      let observed_rows, observed = analyze st env loop in
      Relation.equal_as_multiset
        (Reference.eval env (gapply ~cluster:false ~gcols pgq))
        rows
      && same_rows rows (run st env chain)
      (* counting the loop changes none of its rows *)
      && same_rows rows observed_rows
      && same_analyze observed (snd (analyze st env chain)))

(* ---------- shape test ---------- *)

let test_shape () =
  let agg = Plan.aggregate [ (count_star, "n") ] g in
  let above_avg inner =
    Plan.select (column "a" >=^ column "m") (Plan.apply g inner)
  in
  let avg_of input = Plan.aggregate [ (avg (column "a"), "m") ] input in
  let having_count input =
    Plan.select (column "n" >^ int 1) (Plan.aggregate [ (count_star, "n") ] input)
  in
  let distinct_a input =
    Plan.distinct (Plan.project [ (column "a", "a") ] input)
  in
  let local =
    [
      g;
      Plan.select (column "a" >^ int 1) g;
      agg;
      Plan.project [ (column "n", "n") ] agg;
      Plan.union_all
        [ Plan.project [ (column "a", "x") ] g;
          Plan.project [ (column "n", "x") ] agg ];
      (* Q2-Q4 and the Table 1 families *)
      Plan.project [ (column "s", "s") ] (above_avg (avg_of g));
      Plan.aggregate [ (count_star, "n") ]
        (above_avg (avg_of (Plan.select (column "b" >^ int 0) g)));
      Plan.select (column "m" >^ int 1)
        (Plan.apply (Plan.select (column "a" <^ int 2) g) (avg_of g));
      Plan.apply g (Plan.exists (Plan.select (column "a" >^ int 1) g));
      Plan.apply g (Plan.exists ~negated:true g);
      Plan.apply g (Plan.exists (having_count g));
      (* a Distinct projection of the members *)
      Plan.distinct g;
      Plan.project [ (column "a", "x") ]
        (Plan.select (column "a" >^ int 1) (distinct_a g));
      Plan.aggregate [ (count_star, "n") ]
        (distinct_a (Plan.select (column "b" >^ int 0) g));
      (* publishing's group selection: an EXISTS guard on the Apply's
         outer side keeps or drops the whole group *)
      Plan.apply (Plan.exists (Plan.select (column "a" >^ int 1) g)) g;
      Plan.apply (Plan.exists ~negated:true (having_count g)) (distinct_a g);
      Plan.apply
        (Plan.exists (Plan.select (column "a" >^ int 1) g))
        (Plan.union_all
           [ Plan.project [ (column "a", "x") ] (distinct_a g);
             Plan.project [ (column "a", "x") ] g;
             Plan.project [ (column "n", "x") ] agg ]);
    ]
  and chained =
    [
      Plan.alias "t" g;
      Plan.order_by [ (column "a", Plan.Asc) ] g;
      (* a Distinct over anything but a projection of the members *)
      Plan.distinct agg;
      Plan.distinct (distinct_a g);
      Plan.distinct (Plan.apply g (avg_of g));
      (* a guard over another variable, over a projection, with a
         body that takes the chain, or itself guarded *)
      Plan.apply
        (Plan.exists (Plan.group_scan ~var:"other" src_schema)) g;
      Plan.apply (Plan.exists (Plan.project [ (column "a", "a") ] g)) g;
      Plan.apply (Plan.exists g) (Plan.alias "t" g);
      Plan.apply (Plan.exists g) (Plan.apply (Plan.exists g) g);
      (* a union branch that tests its aggregate *)
      Plan.select (column "n" >^ int 1) agg;
      Plan.group_scan ~var:"other" src_schema;
      Plan.project [ (column "a", "a") ] (Plan.project [ (column "a", "a") ] g);
      Plan.aggregate [ (count_star, "n") ]
        (Plan.aggregate [ (count_star, "m") ] g);
      Plan.union_all [ g; Plan.alias "t" g ];
      (* an inner that references the Apply's row *)
      above_avg (avg_of (Plan.select (column "b" ==^ outer "b") g));
      Plan.apply g (Plan.exists (Plan.select (column "s" >^ outer "s") g));
      (* an inner over another variable *)
      above_avg (avg_of (Plan.group_scan ~var:"other" src_schema));
      (* an inner Aggregate over a join *)
      above_avg
        (avg_of (Plan.join (column "b" ==^ column "k") g (Plan.alias "h" g)));
      (* an inner that is not an Aggregate or Exists over the group *)
      above_avg (Plan.project [ (column "m", "m") ] (avg_of g));
      Plan.apply g g;
      (* an Apply whose outer input is not the group *)
      Plan.apply (Plan.alias "t" g) (avg_of g);
    ]
  in
  let check expected p =
    Alcotest.(check bool) (Plan.to_string p) expected
      (Compile.group_local ~var:"g" p)
  in
  List.iter (check true) local;
  List.iter (check false) chained

(* ---------- the governor inside the loop ---------- *)

(* Group-local PGQs the governor must reach: two branches over the
   group, and Q2-Q4's shape (members above their group's average). *)
let governed_pgqs =
  [
    Plan.union_all
      [
        Plan.project [ (column "a", "x") ] g;
        Plan.aggregate [ (sum (column "a"), "x") ] g;
      ];
    Plan.project
      [ (column "a", "x") ]
      (Plan.select
         (column "a" >=^ column "m")
         (Plan.apply g (Plan.aggregate [ (avg (column "a"), "m") ] g)));
  ]

(* Run [pgq] over 40 rows in 8 groups under [gov]; [on_first_group]
   fires from the trace hook when the loop records its first group (on
   the PGQ's group scan): with a hook installed, the loop records each
   group as soon as it ran. *)
let trip_inside_loop ~gov ~on_first_group pgq =
  let rel =
    Relation.make src_schema
      (List.init 40 (fun i -> Tuple.of_list [ vi (i mod 8); vi i; vi 0; vi i ]))
  in
  let plan = gapply ~cluster:true ~gcols:[ Expr.col "k" ] pgq in
  Alcotest.(check bool) "case is group-local" true
    (Compile.group_local ~var:"g" pgq);
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

let check_tripped kind (v : Errors.resource_violation) =
  Alcotest.(check string) "kind" kind
    (Errors.resource_kind_to_string v.Errors.kind);
  Alcotest.(check (option string)) "checked per group" (Some "gapply.exec")
    v.Errors.operator

let test_cancel_inside_loop () =
  List.iter
    (fun pgq ->
      let gov = Governor.start Governor.unlimited in
      check_tripped "cancelled"
        (trip_inside_loop ~gov ~on_first_group:(fun () -> Governor.cancel gov) pgq))
    governed_pgqs

let test_deadline_inside_loop () =
  List.iter
    (fun pgq ->
      let gov =
        Governor.start
          { Governor.unlimited with Governor.timeout_ns = Some 50_000_000 }
      in
      check_tripped "timeout"
        (trip_inside_loop ~gov ~on_first_group:(fun () -> Unix.sleepf 0.1) pgq))
    governed_pgqs

(* ---------- the loop / chain group counters ---------- *)

let path_count db path =
  Metrics.read (Engine.metrics db) ~label:path "gapply_groups_total"

(* (loop, chain) groups of [plan]'s GApplies, from its metric tree *)
let rec path_groups (p : Plan.t) (s : Obs.stat) =
  let here =
    match p with
    | Plan.G_apply { var; pgq; _ } when Compile.group_local ~var pgq ->
        (s.Obs.partitions, 0)
    | Plan.G_apply _ -> (0, s.Obs.partitions)
    | _ -> (0, 0)
  in
  List.fold_left2
    (fun (l, c) p s ->
      let l', c' = path_groups p s in
      (l + l', c + c'))
    here (Plan.children p) s.Obs.children

(* Counter deltas of [f ()], as (loop, chain). *)
let deltas db f =
  let l0 = path_count db "loop" and c0 = path_count db "chain" in
  f ();
  (path_count db "loop" - l0, path_count db "chain" - c0)

let test_group_counters () =
  let db = Engine.create () in
  Engine.load_tpch db ~msf:0.05;
  let counts = Alcotest.(pair int int) in
  (* Q1-Q4 and the Table 1 invariant family run every group through
     the loop *)
  let loop, chain =
    deltas db (fun () ->
        List.iter
          (fun src -> ignore (Engine.query db src))
          (List.map (fun (_, src, _) -> src) Workloads.figure8_queries
          @ List.map
              (fun b -> Workloads.rule_invariant_query ~price_bound:b)
              [ 1000.; 1500.; 2200. ]))
  in
  Alcotest.(check int) "Q1-Q4, invariant family: no chain groups" 0 chain;
  Alcotest.(check bool) "Q1-Q4, invariant family: loop groups" true (loop > 0);
  let exported = Metrics.prometheus (Engine.metrics db) in
  List.iter
    (fun sample ->
      Alcotest.(check bool) ("/metrics has " ^ sample) true
        (contains exported sample))
    [
      "gapply_groups_total{path=\"chain\"} 0";
      Printf.sprintf "gapply_groups_total{path=\"loop\"} %d" loop;
    ];
  (* an Alias-wrapped PGQ runs, and counts, its groups on the chain *)
  let q4 = Engine.effective_plan db Workloads.q4_gapply in
  let chained =
    match q4 with
    | Plan.G_apply r -> Plan.G_apply { r with pgq = Plan.alias "chain" r.pgq }
    | _ -> Alcotest.fail "Q4 is a GApply"
  in
  let groups, _ = deltas db (fun () -> ignore (Engine.run_plan db q4)) in
  Alcotest.check counts "Alias-wrapped Q4: chain groups" (0, groups)
    (deltas db (fun () -> ignore (Engine.run_plan db chained)));
  (* every Figure-1 document, the group selections' selecting GApplies
     included, runs every group through the loop *)
  let cat = Engine.catalog db in
  List.iter
    (fun (label, spec) ->
      let plan = fst (Publish.gapply_plan cat spec) in
      let sink = Obs.make () in
      ignore
        (Executor.run ~config:(Compile.config_with ~observe:sink ()) cat plan);
      let expected =
        match Obs.snapshot sink with
        | Some stat -> path_groups plan stat
        | None -> Alcotest.fail "no metric tree"
      in
      Alcotest.(check int) (label ^ ": no chain groups") 0 (snd expected);
      Alcotest.(check bool) (label ^ ": loop groups") true (fst expected > 0);
      Alcotest.check counts (label ^ ": (loop, chain) groups") expected
        (deltas db (fun () -> ignore (Engine.run_plan db plan))))
    [
      ("view", Publish.of_view Xml_view.figure1);
      ("q1", Flwr.compile Flwr.q1);
      ("q1_extended", Flwr.compile Flwr.q1_extended);
      ("exists", Flwr.compile (Flwr.expensive_part_suppliers 930.));
      ("avg", Flwr.compile (Flwr.high_average_suppliers 920.5));
    ]

(* ---------- the Figure-1 group selections ---------- *)

(* [s] with every [alias(chain)] node replaced by its input *)
let rec unchained (s : Obs.stat) =
  match (s.Obs.op, s.Obs.children) with
  | "alias(chain)", [ c ] -> unchained c
  | _, children -> { s with Obs.children = List.map unchained children }

(* the GApply nodes of a metric tree, in preorder *)
let rec gapply_stats (s : Obs.stat) =
  (if String.starts_with ~prefix:"gapply" s.Obs.op then [ s ] else [])
  @ List.concat_map gapply_stats s.Obs.children

(* The selecting GApply of publishing's two group selections runs as the
   loop, and its EXPLAIN ANALYZE tree — the Apply, the EXISTS guard, the
   guard's Select and Aggregate, the Distinct top row and the union —
   counts what the same plans count with every PGQ forced through the
   chain, at batch sizes that split groups and that do not. *)
let test_selection_analyze () =
  let cat = Tpch_gen.catalog ~msf:0.05 () in
  let force_chain =
    Plan.rewrite_bottom_up (function
      | Plan.G_apply r -> Plan.G_apply { r with pgq = Plan.alias "chain" r.pgq }
      | p -> p)
  in
  let observed batch_size plan =
    let sink = Obs.make () in
    let rel =
      Executor.run
        ~config:(Compile.config_with ~batch_size ~observe:sink ())
        cat plan
    in
    match Obs.snapshot sink with
    | Some stat -> (rel, unchained stat)
    | None -> Alcotest.fail "no metric tree"
  in
  List.iter
    (fun (label, spec) ->
      let plan = fst (Publish.gapply_plan cat spec) in
      let selecting =
        Plan.fold
          (fun n -> function
            | Plan.G_apply { var; pgq = Plan.Apply _ as pgq; _ }
              when Compile.group_local ~var pgq ->
                n + 1
            | _ -> n)
          0 plan
      in
      Alcotest.(check int) (label ^ ": a guarded GApply on the loop") 1
        selecting;
      List.iter
        (fun size ->
          let rows, loop = observed size plan
          and chain_rows, chain = observed size (force_chain plan) in
          let name = Printf.sprintf "%s, batch %d" label size in
          Alcotest.(check bool) (name ^ ": rows = chain") true
            (same_rows rows chain_rows);
          (* each GApply's groups, rows, outer input and PGQ; its own
             batches and what reads them follow the packed output *)
          let gl = gapply_stats loop and gc = gapply_stats chain in
          Alcotest.(check bool) (name ^ ": counts = chain") true
            (List.length gl = List.length gc
            && List.for_all2
                 (fun (l : Obs.stat) (c : Obs.stat) ->
                   l.Obs.rows = c.Obs.rows
                   && l.Obs.partitions = c.Obs.partitions
                   && List.length l.Obs.children = List.length c.Obs.children
                   && List.for_all2 same_counts l.Obs.children c.Obs.children)
                 gl gc))
        [ 1; 7; 128 ])
    [
      ("exists", Flwr.compile (Flwr.expensive_part_suppliers 930.));
      ("avg", Flwr.compile (Flwr.high_average_suppliers 920.5));
      ("exists_1890", Flwr.compile (Flwr.expensive_part_suppliers 1890.));
      ("avg_1400", Flwr.compile (Flwr.high_average_suppliers 1400.));
    ]

let suite =
  [
    Alcotest.test_case "shape test: which PGQs take the loop" `Quick test_shape;
    QCheck_alcotest.to_alcotest prop_loop_matches_reference_and_chain;
    Alcotest.test_case "cancellation trips inside the loop" `Quick
      test_cancel_inside_loop;
    Alcotest.test_case "deadline trips inside the loop" `Quick
      test_deadline_inside_loop;
    Alcotest.test_case "gapply_groups_total counts loop and chain groups"
      `Quick test_group_counters;
    Alcotest.test_case "group selections: EXPLAIN ANALYZE counts = chain"
      `Quick test_selection_analyze;
  ]
