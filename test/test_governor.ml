(* Resource governor: per-statement budgets (timeout, row limit, memory
   ceiling), the typed error taxonomy they raise through Engine.exec,
   SQL-level SET knobs, graceful degradation from hash to sort
   partitioning, and the prepared-statement failure paths.

   Budget trips are asserted three ways: the outcome is [Failed] with
   the right [Errors.resource_kind], the engine's gapply_governor_* counters
   record it, and an immediate re-run (with the budget lifted) produces
   the reference rows — an aborted statement never poisons the engine. *)

let check_rel = Alcotest.testable Relation.pp Relation.equal_as_list

let violations db kind =
  Metrics.read (Engine.metrics db) ~label:kind "gapply_governor_violations_total"

let gov db name = Metrics.read (Engine.metrics db) ("gapply_governor_" ^ name)
let cache_snap db = Cache_stats.snapshot (Plan_cache.stats (Engine.plan_cache db))

let tpch_db ?(partition = Compile.Hash_partition) ?(parallelism = 1)
    ?(msf = 0.2) () =
  let db = Engine.create ~partition ~parallelism () in
  Engine.load_tpch db ~msf;
  db

let failed_kind = function
  | Engine.Failed (Errors.Resource_error v) -> Some v.Errors.kind
  | _ -> None

(* ---------- governor unit level ---------- *)

let test_unit_budgets () =
  (* memory: the first charge over the ceiling trips with kind + op *)
  let gov =
    Governor.start
      { Governor.timeout_ns = None; row_limit = None;
        mem_limit_bytes = Some 100 }
  in
  Governor.charge (Some gov) ~op:"x" 60;
  (try
     Governor.charge (Some gov) ~op:"trip.site" 60;
     Alcotest.fail "expected a memory trip"
   with Errors.Resource_error v ->
     Alcotest.(check string) "kind" "memory limit exceeded"
       (Errors.resource_kind_to_string v.Errors.kind);
     Alcotest.(check (option string)) "operator" (Some "trip.site")
       v.Errors.operator);
  Alcotest.(check int) "bytes accounted" 120 (Governor.mem_bytes gov);
  (* after a trip the token is flipped: every later check re-raises the
     *same* violation, not a knock-on Cancelled *)
  (try
     Governor.check (Some gov) ~op:"sibling";
     Alcotest.fail "expected the tripped violation to re-raise"
   with Errors.Resource_error v ->
     Alcotest.(check string) "siblings see the winner" "memory limit exceeded"
       (Errors.resource_kind_to_string v.Errors.kind))

let test_unit_cancellation () =
  let gov = Governor.start Governor.unlimited in
  Governor.check (Some gov) ~op:"fine";
  Governor.cancel gov;
  try
    Governor.check (Some gov) ~op:"after-cancel";
    Alcotest.fail "expected cancellation"
  with Errors.Resource_error v ->
    Alcotest.(check string) "kind" "cancelled"
      (Errors.resource_kind_to_string v.Errors.kind)

(* ---------- timeout ---------- *)

let test_timeout_aborts_and_recovers () =
  let db = tpch_db ~msf:0.4 () in
  let slow = Workloads.q2_correlated in
  let reference = Engine.query db slow in
  Engine.set_timeout_ms db (Some 1);
  (match failed_kind (Engine.exec db slow) with
  | Some Errors.Timeout -> ()
  | _ -> Alcotest.fail "expected a typed timeout failure");
  Alcotest.(check bool) "timeout counted" true (violations db "timeout" >= 1);
  (* budget off again: immediate clean re-run, warm from the same cache
     entry the aborted execution used *)
  Engine.set_timeout_ms db None;
  let before = cache_snap db in
  Alcotest.check check_rel "re-run reference-identical" reference
    (Engine.query db slow);
  let after = cache_snap db in
  Alcotest.(check int) "re-run is a warm hit" 1
    (after.Cache_stats.hits - before.Cache_stats.hits);
  Alcotest.(check int) "no recompile after abort" 0
    (after.Cache_stats.misses - before.Cache_stats.misses)

(* ---------- row limit (via SQL SET) ---------- *)

let test_row_limit_set_knob () =
  let db = tpch_db () in
  let q = "select ps_suppkey, ps_partkey from partsupp" in
  (match Engine.exec db "set statement_row_limit = 10" with
  | Engine.Message m ->
      Alcotest.(check string) "set confirmation" "statement_row_limit = 10" m
  | _ -> Alcotest.fail "expected a confirmation");
  (match failed_kind (Engine.exec db q) with
  | Some Errors.Row_limit -> ()
  | _ -> Alcotest.fail "expected a typed row-limit failure");
  Alcotest.(check int) "row limit counted" 1 (violations db "row_limit");
  (* under the limit passes untouched *)
  (match Engine.exec db "select s_suppkey from supplier where s_suppkey < 5"
   with
  | Engine.Rows _ -> ()
  | _ -> Alcotest.fail "expected rows under the limit");
  (match Engine.exec db "set statement_row_limit = default" with
  | Engine.Message _ -> ()
  | _ -> Alcotest.fail "expected a confirmation");
  match Engine.exec db q with
  | Engine.Rows _ -> ()
  | _ -> Alcotest.fail "expected rows after reset"

let test_set_unknown_knob_fails_typed () =
  let db = Engine.create () in
  (match Engine.exec db "set wibble = 3" with
  | Engine.Failed (Errors.Name_error m) ->
      Alcotest.(check string) "unknown knob" "unknown SET knob wibble" m
  | _ -> Alcotest.fail "expected a typed failure");
  (* a script mixing SET and queries keeps going after the bad knob *)
  let outcomes =
    Engine.exec_script db
      "create table t (a int); insert into t values (1); \
       set wibble = 3; set statement_row_limit = 10; select a from t"
  in
  match outcomes with
  | [ _; _; Engine.Failed _; Engine.Message _; Engine.Rows _ ] -> ()
  | _ -> Alcotest.fail "script should survive a bad SET"

(* ---------- memory ceiling ---------- *)

(* Peak accounted bytes of one statement on a fresh engine (the peak
   gauge is engine-wide, so a dedicated engine isolates the statement;
   max_int ceiling keeps the governor live without ever tripping). *)
let measured_peak ~partition q =
  let db = tpch_db ~partition () in
  Engine.set_mem_limit db (Some max_int);
  (match Engine.exec db q with
  | Engine.Rows _ -> ()
  | _ -> Alcotest.fail "measurement run should succeed");
  gov db "peak_bytes"

let test_memory_trip_without_headroom () =
  (* already at sort partitioning, parallelism 1: nothing to degrade to,
     the trip surfaces as a typed failure *)
  let db = tpch_db ~partition:Compile.Sort_partition () in
  Engine.set_mem_limit db (Some 4096);
  (match failed_kind (Engine.exec db Workloads.q1_gapply) with
  | Some Errors.Memory_exceeded -> ()
  | _ -> Alcotest.fail "expected a typed memory failure");
  Alcotest.(check bool) "trip counted" true (violations db "memory" >= 1);
  Alcotest.(check int) "no downgrade recorded" 0 (gov db "downgrades_total")

let test_memory_downgrade_completes () =
  let q = Workloads.q1_gapply in
  let hash_peak = measured_peak ~partition:Compile.Hash_partition q in
  let sort_peak = measured_peak ~partition:Compile.Sort_partition q in
  Alcotest.(check bool)
    (Printf.sprintf "hash materializes more (%d vs %d)" hash_peak sort_peak)
    true (hash_peak > sort_peak);
  let limit = sort_peak + ((hash_peak - sort_peak) / 2) in
  let reference =
    let db = tpch_db ~partition:Compile.Sort_partition () in
    Engine.query db q
  in
  let db = tpch_db ~partition:Compile.Hash_partition () in
  Engine.set_mem_limit db (Some limit);
  (* hash partitioning trips the ceiling; the engine retries once under
     sort partitioning / parallelism 1 and the statement completes *)
  (match Engine.exec db q with
  | Engine.Rows rel ->
      Alcotest.check check_rel "degraded run reference-identical" reference rel
  | _ -> Alcotest.fail "expected the degraded retry to complete");
  Alcotest.(check int) "one downgrade" 1 (gov db "downgrades_total");
  Alcotest.(check bool) "the trip is recorded too" true
    (violations db "memory" >= 1);
  (* the degraded plan is cached under its own key: a repeat downgrades
     again but hits the warm degraded entry *)
  let before = cache_snap db in
  (match Engine.exec db q with
  | Engine.Rows _ -> ()
  | _ -> Alcotest.fail "expected the repeat to complete");
  let after = cache_snap db in
  Alcotest.(check int) "degraded entry warm on repeat" 0
    (after.Cache_stats.misses - before.Cache_stats.misses)

let test_memory_downgrade_visible_in_analyze () =
  let q = Workloads.q1_gapply in
  let hash_peak = measured_peak ~partition:Compile.Hash_partition q in
  let sort_peak = measured_peak ~partition:Compile.Sort_partition q in
  let limit = sort_peak + ((hash_peak - sort_peak) / 2) in
  let db = tpch_db ~partition:Compile.Hash_partition () in
  Engine.set_mem_limit db (Some limit);
  let _rel, report = Engine.analyze db q in
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "EXPLAIN ANALYZE records the downgrade" true
    (contains ~needle:"== degraded:" report);
  Alcotest.(check bool) "downgrade counted" true
    (gov db "downgrades_total" >= 1)

(* ---------- prepared-statement failure paths ---------- *)

let test_prepare_failure_paths () =
  let db = Engine.create () in
  ignore (Engine.exec db "create table t (a int)");
  ignore (Engine.exec db "insert into t values (1), (2)");
  (* PREPARE over an unknown table fails typed, engine unharmed *)
  (match Engine.exec db "prepare p as select a from nope" with
  | Engine.Failed e ->
      Alcotest.(check bool) "typed error" true (Errors.is_engine_error e)
  | _ -> Alcotest.fail "expected a typed failure");
  (* EXECUTE of a never-prepared name *)
  (match Engine.exec db "execute ghost" with
  | Engine.Failed (Errors.Name_error m) ->
      Alcotest.(check string) "unknown handle"
        "unknown prepared statement ghost" m
  | _ -> Alcotest.fail "expected a typed failure");
  (* DEALLOCATE of a never-prepared name *)
  (match Engine.exec db "deallocate ghost" with
  | Engine.Failed (Errors.Name_error _) -> ()
  | _ -> Alcotest.fail "expected a typed failure");
  (* re-preparing a valid handle over a dropped table fails typed *)
  (match Engine.exec db "prepare p as select a from t" with
  | Engine.Message _ -> ()
  | _ -> Alcotest.fail "expected prepare to succeed");
  ignore (Engine.exec db "drop table t");
  (match Engine.exec db "execute p" with
  | Engine.Failed e ->
      Alcotest.(check bool) "stale re-prepare fails typed" true
        (Errors.is_engine_error e)
  | _ -> Alcotest.fail "expected a typed failure");
  (* and the engine still runs statements afterwards *)
  ignore (Engine.exec db "create table t2 (b int)");
  match Engine.exec db "select b from t2" with
  | Engine.Rows _ -> ()
  | _ -> Alcotest.fail "engine must survive the failure parade"

(* ---------- aborted DDL ---------- *)

let test_failed_insert_is_atomic () =
  let db = Engine.create () in
  ignore (Engine.exec db "create table t (a int)");
  ignore (Engine.exec db "insert into t values (1)");
  let cat = Engine.catalog db in
  let gen_before = Catalog.generation cat in
  let version_before = Table.version (Catalog.find_table cat "t") in
  (* row 2 has a non-literal value: the whole INSERT must fail without
     inserting row 1 of the statement or bumping any version *)
  (try
     ignore (Engine.exec db "insert into t values (7), (a)");
     Alcotest.fail "expected the insert to fail"
   with e -> Alcotest.(check bool) "typed" true (Errors.is_engine_error e));
  Alcotest.(check int) "no rows leaked" 1
    (Table.cardinality (Catalog.find_table cat "t"));
  Alcotest.(check int) "table version unchanged" version_before
    (Table.version (Catalog.find_table cat "t"));
  Alcotest.(check int) "catalog generation unchanged" gen_before
    (Catalog.generation cat)

(* ---------- ORDER BY accounting ---------- *)

(* An ORDER BY charges only what it copies: rows that stream through as
   views of its input's batches cost nothing; a branch it materializes,
   and a segment that fails its run check, are charged under
   orderby.input (the rows) and orderby.sort (the sort's overhead). *)
let order_base =
  Relation.make Test_order_merge.base_schema
    (List.init 300 (fun i ->
         Tuple.of_list
           [ Value.Int (i mod 7); Value.Int (i * 37 mod 11);
             Value.Int (if i mod 7 < 3 then 0 else i mod 3); Value.Int i ]))

(* The rows of [p] and the bytes its run charged, under [limit]. *)
let charged ?limit p =
  let gov =
    Governor.start
      { Governor.unlimited with
        Governor.mem_limit_bytes = Some (Option.value limit ~default:max_int) }
  in
  let env =
    Env.bind_group "g" order_base (Env.make ~governor:gov (Catalog.create ()))
  in
  let rows = Batch.to_array ((Compile.plan p).Compile.brun env) in
  (rows, Governor.mem_bytes gov)

(* What copying [rows] costs. *)
let copy_bytes rows =
  Array.fold_left (fun n r -> n + Governor.tuple_bytes r) 0 rows
  + (Array.length rows * Governor.sort_partition_overhead_per_row)

let by names =
  List.map (fun n -> (Expr.column n, Plan.Asc)) names

let test_orderby_charges_copies () =
  let ga =
    Test_order_merge.build 0
      (Test_order_merge.Gapply
         { gcols = [ "a" ]; pgq = Test_order_merge.Members; perm = [| 0; 1; 2 |] })
  in
  let plain = Test_order_merge.build 1 Test_order_merge.Plain in
  let input, input_bytes = charged ga in
  (* grouped on x0, the GApply's segments are runs on x0; on x0, x2
     only those of groups 0-2 are *)
  let _, streamed = charged (Plan.order_by (by [ "x0" ]) ga) in
  Alcotest.(check int) "streamed rows are not charged" input_bytes streamed;
  (* the input's segments, rows tying on x0, in order *)
  let segments =
    let out = ref [] and cur = ref [] in
    Array.iteri
      (fun i r ->
        if i > 0 && Value.compare_total input.(i - 1).(0) r.(0) <> 0 then begin
          out := Array.of_list (List.rev !cur) :: !out;
          cur := []
        end;
        cur := r :: !cur)
      input;
    List.rev (Array.of_list (List.rev !cur) :: !out)
  in
  let runs seg =
    let ok = ref true in
    Array.iteri
      (fun i r ->
        if i > 0 && Value.compare_total seg.(i - 1).(2) r.(2) > 0 then ok := false)
      seg;
    !ok
  in
  let failing = List.filter (fun s -> not (runs s)) segments in
  if failing = [] || List.length failing = List.length segments then
    Alcotest.fail "expected some segments to run and some not";
  let _, checked = charged (Plan.order_by (by [ "x0"; "x2" ]) ga) in
  Alcotest.(check int) "only the segments that fail their run check"
    (input_bytes + List.fold_left (fun n s -> n + copy_bytes s) 0 failing)
    checked;
  let rows, _ = charged plain in
  let _, sorted = charged (Plan.order_by (by [ "x1" ]) plain) in
  Alcotest.(check int) "an unsorted branch, whole" (copy_bytes rows) sorted;
  let _, both = charged (Plan.order_by (by [ "x0" ]) (Plan.union_all [ ga; plain ])) in
  Alcotest.(check int) "a union: the unsorted branch only"
    (input_bytes + copy_bytes rows) both

(* A memory ceiling still trips while an unsorted ORDER BY input is
   materialized. *)
let test_orderby_trips_at_input () =
  let plain = Test_order_merge.build 0 Test_order_merge.Plain in
  match charged ~limit:1000 (Plan.order_by (by [ "x1" ]) plain) with
  | _ -> Alcotest.fail "expected a memory trip"
  | exception Errors.Resource_error v ->
      Alcotest.(check string) "kind" "memory limit exceeded"
        (Errors.resource_kind_to_string v.Errors.kind);
      Alcotest.(check (option string)) "operator" (Some "orderby.input")
        v.Errors.operator

(* ---------- hash-structure trip sites ---------- *)

(* A hash partition and a join build charge their structures as they
   build them, so a ceiling just above the input trips at that operator.
   [trip_site ~parallelism ~limit plan] is the operator a run of [plan]
   over [hash_table] trips at, under a ceiling of [limit] bytes. *)
let hash_table n =
  let t = Table.create "h" [ ("a", Datatype.Int); ("b", Datatype.Int) ] in
  Table.insert_all t
    (List.init n (fun i -> Tuple.of_list [ Value.Int (i mod 37); Value.Int i ]));
  t

let trip_site ?(parallelism = 1) ~limit cat plan =
  let gov =
    Governor.start
      { Governor.unlimited with Governor.mem_limit_bytes = Some limit }
  in
  let config = Compile.config_with ~parallelism () in
  match
    Batch.to_array
      ((Compile.plan ~config plan).Compile.brun
         (Env.make ~governor:gov cat))
  with
  | _ -> None
  | exception Errors.Resource_error v -> v.Errors.operator

let input_bytes t =
  List.fold_left (fun n r -> n + Governor.tuple_bytes r) 0 (Table.rows t)

let test_hash_trip_sites () =
  let check_site msg want got =
    Alcotest.(check (option string)) msg (Some want) got
  in
  List.iter
    (fun (n, parallelism) ->
      let t = hash_table n in
      let cat = Catalog.create () in
      Catalog.add_table cat t;
      let scan = Plan.table_scan ~table:"h" ~alias:"h" (Table.schema t) in
      (* the input is charged as it is materialized; the partition's
         first chunk charge is the one over the ceiling *)
      let limit = input_bytes t + 1 in
      let label = Printf.sprintf " (%d rows, parallelism %d)" n parallelism in
      check_site ("GApply" ^ label) "gapply.partition(hash)"
        (trip_site ~parallelism ~limit cat
           (Plan.g_apply ~gcols:[ Expr.col "a" ] ~var:"g" ~outer:scan
              ~pgq:(Plan.group_scan ~var:"g" (Table.schema t))));
      check_site ("GROUP BY" ^ label) "groupby.partition"
        (trip_site ~parallelism ~limit cat
           (Plan.group_by [ Expr.col "a" ]
              [ (Expr.agg Expr.Count_star None, "n") ]
              scan));
      (* the build side's rows are charged one by one as they go in *)
      let other = Plan.table_scan ~table:"h" ~alias:"k" (Table.schema t) in
      check_site ("join" ^ label) "join.build"
        (trip_site ~parallelism ~limit:100 cat
           (Plan.join
              (Expr.Binary
                 (Expr.Eq, Expr.column ~qual:"h" "a", Expr.column ~qual:"k" "b"))
              scan other)))
    [ (300, 1); (2000, 4) ]

let suite =
  [
    Alcotest.test_case "governor unit: budgets and first-violation-wins"
      `Quick test_unit_budgets;
    Alcotest.test_case "governor unit: cancellation token" `Quick
      test_unit_cancellation;
    Alcotest.test_case "timeout aborts typed; clean warm re-run" `Quick
      test_timeout_aborts_and_recovers;
    Alcotest.test_case "SET statement_row_limit trips and resets" `Quick
      test_row_limit_set_knob;
    Alcotest.test_case "SET of an unknown knob fails typed" `Quick
      test_set_unknown_knob_fails_typed;
    Alcotest.test_case "memory ceiling: typed failure without headroom"
      `Quick test_memory_trip_without_headroom;
    Alcotest.test_case "memory ceiling: hash degrades to sort and completes"
      `Quick test_memory_downgrade_completes;
    Alcotest.test_case "memory ceiling: downgrade visible in EXPLAIN ANALYZE"
      `Quick test_memory_downgrade_visible_in_analyze;
    Alcotest.test_case "prepared statements: every misuse fails typed" `Quick
      test_prepare_failure_paths;
    Alcotest.test_case "failed INSERT leaves no partial rows or bumps" `Quick
      test_failed_insert_is_atomic;
    Alcotest.test_case "ORDER BY charges only the rows it copies" `Quick
      test_orderby_charges_copies;
    Alcotest.test_case "memory ceiling: trips at orderby.input" `Quick
      test_orderby_trips_at_input;
    Alcotest.test_case
      "memory ceiling: trips at gapply.partition(hash), groupby.partition, \
       join.build"
      `Quick test_hash_trip_sites;
  ]
