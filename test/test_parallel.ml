(* Tests for the domain-pool parallel execution phase.

   Two layers: unit tests of Domain_pool itself (order preservation,
   exception capture/re-raise, pool reuse, parallel sort), and
   properties that parallel GApply / Group_by execution is
   tuple-for-tuple identical to sequential execution — including the
   clustering guarantee — across random plans and parallelism levels. *)

open Support
module Gen = QCheck2.Gen

let parallelism_levels = [ 1; 2; 4; 7 ]

(* ---------- Domain_pool unit tests ---------- *)

let test_map_preserves_order () =
  let pool = Domain_pool.create ~num_domains:2 () in
  let input = Array.init 1000 (fun i -> i) in
  let out = Domain_pool.parallel_map_array pool (fun i -> i * i) input in
  Alcotest.(check (array int))
    "squares in input order"
    (Array.map (fun i -> i * i) input)
    out

exception Boom

let test_exception_propagates () =
  let pool = Domain_pool.create ~num_domains:2 () in
  let input = Array.init 64 (fun i -> i) in
  Alcotest.check_raises "exception crosses domains" Boom (fun () ->
      ignore
        (Domain_pool.parallel_map_array pool
           (fun i -> if i = 17 then raise Boom else i)
           input));
  (* the pool survives a user exception and is reusable *)
  let out = Domain_pool.parallel_map_array pool (fun i -> i + 1) input in
  Alcotest.(check int) "pool reusable after exception" 64 out.(63)

let test_sequential_handle () =
  let pool = Domain_pool.create ~num_domains:0 () in
  let out =
    Domain_pool.parallel_map_array pool (fun i -> i * 2)
      (Array.init 10 (fun i -> i))
  in
  Alcotest.(check int) "num_domains 0 = sequential fallback" 18 out.(9);
  Alcotest.(check bool)
    "parallelism <= 1 resolves to no pool" true
    (Domain_pool.for_parallelism 1 = None)

let test_parallel_sort () =
  let pool = Domain_pool.create ~num_domains:3 () in
  (* deterministic pseudo-random input, big enough to beat the
     sequential-sort cutoff *)
  let n = 10_000 in
  let state = ref 42 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  let arr = Array.init n (fun _ -> next ()) in
  let expected = Array.copy arr in
  Array.sort compare expected;
  Domain_pool.parallel_sort pool compare arr;
  Alcotest.(check (array int)) "sorted like Array.sort" expected arr;
  (* stability: (key, seq) pairs sorted on a heavily duplicated key
     alone must keep each key's pairs in seq order, with an even (4)
     and an odd (3) number of runs *)
  let on_key (a, _) (b, _) = compare a b in
  List.iter
    (fun pool ->
      let pairs = Array.init n (fun seq -> (next () mod 23, seq)) in
      let expected = List.stable_sort on_key (Array.to_list pairs) in
      Domain_pool.parallel_sort pool on_key pairs;
      Alcotest.(check (list (pair int int)))
        "stable like List.stable_sort" expected (Array.to_list pairs))
    [ pool; Domain_pool.create ~num_domains:2 () ]

(* ---------- parallel execution = sequential execution ---------- *)

let run_with ~partition ~parallelism cat plan =
  Executor.run
    ~config:(Compile.config_with ~partition ~parallelism ())
    cat plan

(* tuple-for-tuple (order included) agreement across parallelism levels,
   for both partition strategies *)
let check_levels cat plan =
  List.for_all
    (fun partition ->
      let seq = run_with ~partition ~parallelism:1 cat plan in
      List.for_all
        (fun parallelism ->
          Relation.equal_as_list seq
            (run_with ~partition ~parallelism cat plan))
        parallelism_levels)
    [ Compile.Hash_partition; Compile.Sort_partition ]

let prop_parallel_gapply_equals_sequential =
  QCheck2.Test.make ~count:50
    ~name:"parallel GApply = sequential, tuple-for-tuple"
    (Gen.triple
       (Test_properties.gen_relation Test_properties.g_schema)
       Test_properties.gen_gcols Test_properties.gen_pgq)
    (fun (rel, gcols, pgq) ->
      let cat = Test_properties.catalog_with_r rel in
      let plan =
        Plan.g_apply ~gcols ~var:"g"
          ~outer:Test_properties.unqualified_scan_r ~pgq
      in
      check_levels cat plan)

let prop_parallel_clustered_gapply_equals_sequential =
  QCheck2.Test.make ~count:50
    ~name:"parallel clustered GApply keeps the Section 3.1 order"
    (Gen.triple
       (Test_properties.gen_relation Test_properties.g_schema)
       Test_properties.gen_gcols Test_properties.gen_pgq)
    (fun (rel, gcols, pgq) ->
      let cat = Test_properties.catalog_with_r rel in
      let plan =
        Plan.g_apply_clustered ~gcols ~var:"g"
          ~outer:Test_properties.unqualified_scan_r ~pgq
      in
      check_levels cat plan)

let prop_parallel_group_by_equals_sequential =
  QCheck2.Test.make ~count:50
    ~name:"parallel Group_by = sequential, tuple-for-tuple"
    (Gen.pair
       (Test_properties.gen_relation Test_properties.g_schema)
       Test_properties.gen_pred)
    (fun (rel, pred) ->
      let cat = Test_properties.catalog_with_r rel in
      let plan =
        Plan.group_by
          [ Expr.col "d" ]
          [
            (Expr.count_star, "n");
            (Expr.avg (Expr.column "c"), "avg_c");
            (Expr.sum (Expr.column "a"), "sum_a");
          ]
          (Plan.select pred Test_properties.unqualified_scan_r)
      in
      check_levels cat plan)

(* ---------- metrics agree across parallelism levels ---------- *)

(* The Obs counters are shared atomics updated from pool domains; the
   totals a run reports must not depend on how many domains ran it:
   same rows emitted at the root, same number of groups partitioned,
   same per-group PGQ invocation count. *)
let prop_parallel_metrics_agree =
  QCheck2.Test.make ~count:40
    ~name:"observed metrics agree across parallelism 1/2/4"
    (Gen.triple
       (Test_properties.gen_relation Test_properties.g_schema)
       Test_properties.gen_gcols Test_properties.gen_pgq)
    (fun (rel, gcols, pgq) ->
      let cat = Test_properties.catalog_with_r rel in
      let plan =
        Plan.g_apply ~gcols ~var:"g"
          ~outer:Test_properties.unqualified_scan_r ~pgq
      in
      let stats_at parallelism =
        let sink = Obs.make () in
        let c =
          Compile.plan
            ~config:(Compile.config_with ~observe:sink ~parallelism ())
            plan
        in
        ignore (Cursor.length (c.Compile.run (Env.make cat)));
        match Obs.snapshot sink with
        | Some s -> s
        | None -> QCheck2.Test.fail_report "no metric tree"
      in
      let seq = stats_at 1 in
      List.for_all
        (fun parallelism ->
          let s = stats_at parallelism in
          s.Obs.rows = seq.Obs.rows
          && s.Obs.partitions = seq.Obs.partitions
          &&
          match (s.Obs.children, seq.Obs.children) with
          | [ _; pgq_par ], [ _; pgq_seq ] ->
              pgq_par.Obs.invocations = pgq_seq.Obs.invocations
              && pgq_par.Obs.rows = pgq_seq.Obs.rows
          | _ -> false)
        [ 2; 4 ])

(* A large deterministic input so the *partition phase* itself takes the
   parallel path (per-domain partial tables / parallel merge sort), not
   just the execution phase. *)
let test_large_input_partition_phase () =
  let cat = Catalog.create () in
  let t =
    Table.create "big"
      [ ("k", Datatype.Int); ("v", Datatype.Int) ]
  in
  let state = ref 7 in
  let next m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  for _ = 1 to 6000 do
    Table.insert t (row [ vi (next 37); vi (next 1000) ])
  done;
  Catalog.add_table cat t;
  let g_schema = Table.schema t in
  let pgq =
    Plan.aggregate
      [ (Expr.count_star, "n"); (Expr.max_ (Expr.column "v"), "max_v") ]
      (Plan.group_scan ~var:"g" g_schema)
  in
  let gcols = [ Expr.col "k" ] in
  (* clustered re-sorts groups, so also cover the plain GApply and
     Group_by nodes, whose group order must match sequential byte-for-
     byte even when the parallel partial-table merge produced it *)
  let plans =
    [
      ( "clustered",
        Plan.g_apply_clustered ~gcols ~var:"g" ~outer:(scan cat "big") ~pgq );
      ("plain", Plan.g_apply ~gcols ~var:"g" ~outer:(scan cat "big") ~pgq);
      ( "group_by",
        Plan.group_by gcols
          [ (Expr.count_star, "n"); (Expr.max_ (Expr.column "v"), "max_v") ]
          (scan cat "big") );
    ]
  in
  List.iter
    (fun (label, plan) ->
      List.iter
        (fun partition ->
          let seq = run_with ~partition ~parallelism:1 cat plan in
          List.iter
            (fun parallelism ->
              Alcotest.check relation_ordered_testable
                (Printf.sprintf "6000-row %s (parallelism %d)" label
                   parallelism)
                seq
                (run_with ~partition ~parallelism cat plan))
            [ 2; 4 ])
        [ Compile.Hash_partition; Compile.Sort_partition ])
    plans

(* Figure 8's Q1-Q4, optimized, at msf 0.05: parallel output is
   tuple-identical (order included) to sequential output at every level
   (the differential harness checks each against the reference as a
   multiset, under both partitionings). *)
let test_figure8_parallel_equals_sequential () =
  let db = Engine.create () in
  Engine.load_tpch db ~msf:0.05;
  let cat = Engine.catalog db in
  List.iter
    (fun (name, sql, _) ->
      let plan = Engine.effective_plan db sql in
      let at parallelism =
        run_with ~partition:Compile.Hash_partition ~parallelism cat plan
      in
      let sequential = at 1 in
      List.iter
        (fun p ->
          Alcotest.check relation_ordered_testable
            (Printf.sprintf "%s at parallelism %d" name p)
            sequential (at p))
        [ 2; 4; 8 ])
    Workloads.figure8_queries

(* ---------- governed execution on pool domains ---------- *)

(* A resource violation raised by the governor from inside a pool
   domain must surface as one typed statement failure (not a hang, not
   a crash), and the pool must stay usable: clearing the budget and
   re-running the same statement on the same engine yields the
   reference rows.  The ceiling is small enough that the automatic
   sort-partition downgrade also trips, so the failure is genuine. *)
let test_governed_parallel_abort () =
  let db = Engine.create ~parallelism:4 () in
  Engine.load_tpch db ~msf:0.3;
  let reference = Engine.query db Workloads.q1_gapply in
  Engine.set_mem_limit db (Some 512);
  (match Engine.exec db Workloads.q1_gapply with
  | Engine.Failed (Errors.Resource_error v) ->
      Alcotest.(check string) "typed memory violation crossed domains"
        "memory limit exceeded"
        (Errors.resource_kind_to_string v.Errors.kind)
  | _ -> Alcotest.fail "expected a typed memory violation");
  Engine.set_mem_limit db None;
  Alcotest.check relation_ordered_testable
    "pool reusable after governed abort" reference
    (Engine.query db Workloads.q1_gapply)

(* ---------- concurrent sessions over the shared plan cache ---------- *)

(* N sessions x M iterations of the paper queries with interleaved
   inserts.  Shared TPC-H tables stay read-only; each session writes a
   private table created sequentially up front, so a sequential replay
   of the identical traces must produce identical per-session results
   (digests cover rows *and* DML confirmations).  The atomics behind the
   cache counters must balance exactly — no tears under domains. *)
let sessions = 4
let iterations = 3

let stress_db () =
  let db = Engine.create () in
  Engine.load_tpch db ~msf:0.05;
  for i = 0 to sessions - 1 do
    ignore
      (Engine.exec db (Printf.sprintf "create table priv%d (x int, y int)" i));
    ignore
      (Engine.exec db (Printf.sprintf "insert into priv%d values (0, %d)" i i))
  done;
  db

(* 4 query statements + 1 insert per iteration *)
let stress_script i =
  List.concat
    (List.init iterations (fun j ->
         [
           Printf.sprintf "insert into priv%d values (%d, %d)" i (j + 1)
             ((i * 10) + j);
           Workloads.q1_gapply;
           Workloads.q2_gapply;
           Printf.sprintf "select x, y from priv%d where x >= 1" i;
           Workloads.q4_gapply;
         ]))

let test_concurrent_sessions_stress () =
  let db = stress_db () in
  let concurrent =
    Session.run ~concurrent:true db ~sessions ~script:stress_script
  in
  let sequential =
    Session.run ~concurrent:false (stress_db ()) ~sessions
      ~script:stress_script
  in
  Alcotest.(check bool)
    "per-session results match sequential replay" true
    (Session.equal_results concurrent.Session.results
       sequential.Session.results);
  Alcotest.(check int) "all statements ran"
    (sessions * iterations * 5)
    concurrent.Session.statements;
  Support.check_conservation ~executions:(sessions * iterations * 4)
    "no counter tears: the registry balances" db;
  let s = concurrent.Session.cache in
  Alcotest.(check bool) "concurrent sessions shared warm plans" true
    (s.Cache_stats.hits > 0);
  Alcotest.(check bool) "interleaved DML invalidated dependents" true
    (s.Cache_stats.invalidations > 0)

let suite =
  [
    Alcotest.test_case "map preserves input order" `Quick
      test_map_preserves_order;
    Alcotest.test_case "exception propagates without hanging" `Quick
      test_exception_propagates;
    Alcotest.test_case "sequential fallback" `Quick test_sequential_handle;
    Alcotest.test_case "parallel merge sort" `Quick test_parallel_sort;
    Alcotest.test_case "parallel partition phase on large input" `Quick
      test_large_input_partition_phase;
    QCheck_alcotest.to_alcotest prop_parallel_gapply_equals_sequential;
    QCheck_alcotest.to_alcotest prop_parallel_clustered_gapply_equals_sequential;
    QCheck_alcotest.to_alcotest prop_parallel_group_by_equals_sequential;
    QCheck_alcotest.to_alcotest prop_parallel_metrics_agree;
    Alcotest.test_case "Q1-Q4: parallel = sequential, row for row" `Quick
      test_figure8_parallel_equals_sequential;
    Alcotest.test_case "governed abort on pool domains, pool reusable" `Quick
      test_governed_parallel_abort;
    Alcotest.test_case "concurrent sessions = sequential replay" `Quick
      test_concurrent_sessions_stress;
  ]
