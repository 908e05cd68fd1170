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

(* warm-hit assertions only make sense when the suite isn't being
   replayed down the cold path (GAPPLY_PLAN_CACHE=off in CI) *)
let cache_on =
  match Sys.getenv_opt "GAPPLY_PLAN_CACHE" with
  | Some ("off" | "0" | "false" | "no") -> false
  | _ -> true

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
  if cache_on then begin
    Alcotest.(check int) "re-run is a warm hit" 1
      (after.Cache_stats.hits - before.Cache_stats.hits);
    Alcotest.(check int) "no recompile after abort" 0
      (after.Cache_stats.misses - before.Cache_stats.misses)
  end

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
  ]
