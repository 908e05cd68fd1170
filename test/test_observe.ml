(* Tests for the observability layer (lib/obs) and EXPLAIN ANALYZE.

   Four layers:
   - unit tests of the Metrics primitives: counters must not lose
     updates under Domain_pool parallelism, the clock and timers are
     monotone, and reset really zeroes;
   - sink semantics: Engine.analyze uses a fresh sink per call (so two
     runs report identical counters), and Obs.reset zeroes a live tree;
   - golden/regression tests of the EXPLAIN and EXPLAIN ANALYZE text on
     the paper's Q1-Q4 (timings normalized away — row counts are
     deterministic because the TPC-H micro generator is seeded);
   - a qcheck property that the per-operator row counts of random
     (GApply) plans are internally consistent: the root row count equals
     the result cardinality, and every operator's counters obey its
     cursor contract (project passes rows through, union sums, the PGQ
     is invoked once per partition, ...). *)

open Support
module Gen = QCheck2.Gen

(* ---------- Metrics primitives ---------- *)

let test_counter_atomic () =
  let pool = Domain_pool.create ~num_domains:4 () in
  let c = Metrics.counter () in
  ignore
    (Domain_pool.parallel_map_array pool
       (fun () ->
         for _ = 1 to 10_000 do
           Metrics.incr c
         done)
       (Array.make 8 ()));
  Alcotest.(check int) "8 x 10k increments, none lost" 80_000 (Metrics.get c);
  let c2 = Metrics.counter () in
  ignore
    (Domain_pool.parallel_map_array pool
       (fun n -> Metrics.add c2 n)
       (Array.init 100 (fun i -> i)));
  Alcotest.(check int) "adds fold in atomically" 4950 (Metrics.get c2);
  Metrics.reset c2;
  Alcotest.(check int) "reset zeroes" 0 (Metrics.get c2)

let test_timer_monotonic () =
  let a = Metrics.now_ns () in
  let b = Metrics.now_ns () in
  Alcotest.(check bool) "clock never goes backwards" true (b >= a);
  let t = Metrics.timer () in
  Metrics.add_span t (-5);
  Alcotest.(check int) "non-positive spans are ignored" 0
    (Metrics.elapsed_ns t);
  let r = Metrics.time t (fun () -> List.length (List.init 1000 Fun.id)) in
  Alcotest.(check int) "time returns the thunk's result" 1000 r;
  Alcotest.(check bool) "timed work accumulates" true
    (Metrics.elapsed_ns t >= 0);
  Metrics.add_span t 7;
  let after = Metrics.elapsed_ns t in
  Metrics.add_span t 3;
  Alcotest.(check int) "spans accumulate" (after + 3) (Metrics.elapsed_ns t);
  Metrics.reset_timer t;
  Alcotest.(check int) "reset_timer zeroes" 0 (Metrics.elapsed_ns t)

let test_registry () =
  let reg = Metrics.registry () in
  let hits = Metrics.counter_in reg ~help:"Hits." "x_hits_total" in
  Metrics.incr (Metrics.counter_in reg ~help:"Hits." "x_hits_total");
  Alcotest.(check int) "re-registering returns the same handle" 1 (Metrics.get hits);
  let shed r = Metrics.counter_in reg ~label:("reason", r) ~help:"Sheds." "x_shed_total" in
  Metrics.add (shed "full") 2;
  ignore (shed "quota");
  Metrics.set (Metrics.gauge_in reg ~help:"Bytes." "x_peak_bytes") 2048;
  Metrics.derived reg ~help:"Old reader." "x_open" (fun () -> 1);
  Metrics.derived reg ~help:"Open." "x_open" (fun () -> 3);
  Alcotest.(check int) "a derived gauge takes the newest reader" 3
    (Metrics.read reg "x_open");
  Alcotest.(check int) "labelled series read by value" 2
    (Metrics.read reg ~label:"full" "x_shed_total");
  Alcotest.(check string) "one-line form"
    "hits=1 shed_full=2 shed_quota=0 peak=2.0KiB open=3"
    (Metrics.line reg [ "x_" ]);
  Alcotest.(check string) "Prometheus form"
    "# HELP x_hits_total Hits.\n# TYPE x_hits_total counter\nx_hits_total 1\n\
     # HELP x_shed_total Sheds.\n# TYPE x_shed_total counter\n\
     x_shed_total{reason=\"full\"} 2\nx_shed_total{reason=\"quota\"} 0\n\
     # HELP x_peak_bytes Bytes.\n# TYPE x_peak_bytes gauge\nx_peak_bytes 2048\n\
     # HELP x_open Old reader.\n# TYPE x_open gauge\nx_open 3\n"
    (Metrics.prometheus reg);
  Alcotest.check_raises "a name keeps its type"
    (Invalid_argument "Metrics: conflicting registration of x_hits_total")
    (fun () -> ignore (Metrics.gauge_in reg ~help:"Hits." "x_hits_total"))

(* ---------- sink semantics ---------- *)

(* Strip what is legitimately nondeterministic from a report: the
   time=/first= values, and the numeric suffix of the binder's __aggN
   / __sqN gensyms (process-global counters, so they depend on how many
   queries were bound earlier in the test run). *)
let normalize report =
  let n = String.length report in
  let buf = Buffer.create n in
  let starts i s =
    i + String.length s <= n && String.sub report i (String.length s) = s
  in
  let i = ref 0 in
  while !i < n do
    if starts !i "time=" || starts !i "first=" then begin
      let key = if starts !i "time=" then "time=" else "first=" in
      Buffer.add_string buf key;
      Buffer.add_char buf '_';
      i := !i + String.length key;
      while
        !i < n && report.[!i] <> ' ' && report.[!i] <> ')'
        && report.[!i] <> '\n'
      do
        incr i
      done
    end
    else if starts !i "__agg" || starts !i "__sq" then begin
      let key = if starts !i "__agg" then "__agg" else "__sq" in
      Buffer.add_string buf key;
      Buffer.add_char buf '_';
      i := !i + String.length key;
      while !i < n && report.[!i] >= '0' && report.[!i] <= '9' do
        incr i
      done
    end
    else begin
      Buffer.add_char buf report.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let tpch_db () =
  let db = Engine.create () in
  Engine.load_tpch db ~msf:0.05;
  db

let test_fresh_sink_per_exec () =
  (* Engine.analyze attaches a fresh sink per call: counters never leak
     from one run into the next *)
  let db = tpch_db () in
  let _, r1 = Engine.analyze db Workloads.q1_gapply in
  let _, r2 = Engine.analyze db Workloads.q1_gapply in
  Alcotest.(check string) "identical counters across repeated analyze"
    (normalize r1) (normalize r2)

let test_obs_reset () =
  let cat = mini_catalog () in
  let sink = Obs.make () in
  let c =
    Compile.plan
      ~config:(Compile.config_with ~observe:sink ())
      (Plan.distinct (scan cat "part"))
  in
  ignore (Cursor.length (c.Compile.run (Env.make cat)));
  let rows_of s = (s : Obs.stat).Obs.rows in
  (match Obs.snapshot sink with
  | None -> Alcotest.fail "no metric tree after a run"
  | Some s -> Alcotest.(check int) "rows counted" 4 (rows_of s));
  Obs.reset sink;
  match Obs.snapshot sink with
  | None -> Alcotest.fail "reset must keep the tree"
  | Some s ->
      let rec all_zero (s : Obs.stat) =
        s.Obs.rows = 0 && s.Obs.invocations = 0 && s.Obs.partitions = 0
        && s.Obs.batches = 0 && s.Obs.time_ns = 0 && s.Obs.ttft_ns = 0
        && List.for_all all_zero s.Obs.children
      in
      Alcotest.(check bool) "reset zeroes every node" true (all_zero s)

let test_trace_hook_events () =
  (* one Open per operator invocation, one Next per yielded tuple; on a
     fully-drained pipeline every opened cursor also closes *)
  let cat = mini_catalog () in
  let opens = Atomic.make 0
  and nexts = Atomic.make 0
  and closes = Atomic.make 0 in
  let hook (e : Obs.event) =
    Atomic.incr
      (match e.Obs.kind with
      | Obs.Open -> opens
      | Obs.Next -> nexts
      | Obs.Close -> closes)
  in
  let c =
    Compile.plan
      ~config:(Compile.config_with ~observe:(Obs.make ~hook ()) ())
      (Plan.project [ (Expr.column "p_name", "p_name") ] (scan cat "part"))
  in
  let n = Cursor.length (c.Compile.run (Env.make cat)) in
  Alcotest.(check int) "4 parts" 4 n;
  Alcotest.(check int) "one open per operator" 2 (Atomic.get opens);
  Alcotest.(check int) "one next per tuple per operator" 8 (Atomic.get nexts);
  Alcotest.(check int) "drained cursors close" 2 (Atomic.get closes)

(* ---------- EXPLAIN / EXPLAIN ANALYZE goldens on Q1-Q4 ---------- *)

let explanation db src =
  match Engine.exec db src with
  | Engine.Explanation text -> text
  | _ -> Alcotest.fail "expected an explanation"

let q1_explain_golden =
  "== unoptimized ==\n\
   gapply[partsupp.ps_suppkey : $tmpsupp]\n\
  \  join(fk->)[(partsupp.ps_partkey = part.p_partkey)]\n\
  \    scan(partsupp)\n\
  \    scan(part)\n\
  \  union all\n\
  \    project[part.p_name as p_name, part.p_retailprice as \
   p_retailprice, NULL as avgprice]\n\
  \      group_scan($tmpsupp)\n\
  \    project[NULL as col1, NULL as col2, __agg_]\n\
  \      aggregate[avg(part.p_retailprice) as __agg_]\n\
  \        group_scan($tmpsupp)\n\
   == optimized ==\n\
   gapply[ps_suppkey : $tmpsupp]\n\
  \  project[partsupp.ps_suppkey as ps_suppkey, part.p_name as p_name, \
   part.p_retailprice as p_retailprice]\n\
  \    join(fk->)[(partsupp.ps_partkey = part.p_partkey)]\n\
  \      scan(partsupp)\n\
  \      scan(part)\n\
  \  union all\n\
  \    project[p_name, p_retailprice, NULL as avgprice]\n\
  \      group_scan($tmpsupp)\n\
  \    project[NULL as col1, NULL as col2, __agg_]\n\
  \      aggregate[avg(p_retailprice) as __agg_]\n\
  \        group_scan($tmpsupp)\n\
   == rules fired ==\n\
   projection-before-gapply     cost 2727 -> 3127\n\
   == estimated cost: 3127 ==\n"

let test_q1_explain_golden () =
  (* cbo off: under cost-based optimization EXPLAIN appends the costed
     partition-choice line, and CI replays the suite with GAPPLY_CBO=off
     anyway — pinning it off keeps the golden stable both ways (the plan
     and trace are identical for Q1 under either setting) *)
  let db = tpch_db () in
  Engine.set_cbo db false;
  Alcotest.(check string) "EXPLAIN Q1 text" q1_explain_golden
    (normalize (explanation db ("explain " ^ Workloads.q1_gapply)))

let q1_analyze_golden =
  "== explain analyze ==\n\
   gapply[ps_suppkey : $tmpsupp]  (est rows=405) (rows=405 loops=1 \
   groups=5 batches=10 time=_ first=_)\n\
  \  project[partsupp.ps_suppkey as ps_suppkey, part.p_name as p_name, \
   part.p_retailprice as p_retailprice]  (est rows=400) (rows=400 \
   loops=1 batches=4 time=_ first=_)\n\
  \    join(fk->)[(partsupp.ps_partkey = part.p_partkey)]  (est \
   rows=400) (rows=400 loops=1 batches=4 time=_ first=_)\n\
  \      scan(partsupp)  (est rows=400) (rows=400 loops=1 batches=4 \
   time=_ first=_)\n\
  \      scan(part)  (est rows=100) (rows=100 loops=1 batches=1 time=_ \
   first=_)\n\
  \  union all  (est rows=81) (rows=405 loops=5 batches=10 time=_ \
   first=_)\n\
  \    project[p_name, p_retailprice, NULL as avgprice]  (est rows=80) \
   (rows=400 loops=5 batches=5 time=_ first=_)\n\
  \      group_scan($tmpsupp)  (est rows=80) (rows=400 loops=5 \
   batches=5 time=_ first=_)\n\
  \    project[NULL as col1, NULL as col2, __agg_]  (est rows=1) \
   (rows=5 loops=5 batches=5 time=_ first=_)\n\
  \      aggregate[avg(p_retailprice) as __agg_]  (est rows=1) (rows=5 \
   loops=5 batches=5 time=_ first=_)\n\
  \        group_scan($tmpsupp)  (est rows=80) (rows=400 loops=5 \
   batches=5 time=_ first=_)\n\
   == actual rows: 405  estimated: 405 ==\n"

(* the dict footer appears only while encoding is enabled, so the
   GAPPLY_DICT=off replay still matches the golden *)
let q1_analyze_dict_footer =
  "== dict: tables=4 shards=32 entries=431 bytes=10.5KiB \
   encode_hits=266 encode_misses=431 decodes=0 ==\n"

let test_q1_analyze_golden () =
  let expected =
    if Dict.enabled () then q1_analyze_golden ^ q1_analyze_dict_footer
    else q1_analyze_golden
  in
  Alcotest.(check string) "EXPLAIN ANALYZE Q1 text (timings normalized)"
    expected
    (normalize
       (explanation (tpch_db ()) ("explain analyze " ^ Workloads.q1_gapply)))

(* batch counters ride the EXPLAIN ANALYZE operator lines *)
let test_batches_reported () =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let report =
    explanation (tpch_db ()) ("explain analyze " ^ Workloads.q1_gapply)
  in
  Alcotest.(check bool) "batches= reported" true (contains report "batches=");
  Alcotest.(check bool) "dict footer iff encoding enabled"
    (Dict.enabled ())
    (contains report "== dict: ")

(* the footer's actual row count, e.g. "== actual rows: 405  ..." *)
let actual_rows_of report =
  let marker = "== actual rows: " in
  let rec find i =
    if i + String.length marker > String.length report then
      Alcotest.fail "report has no actual-rows footer"
    else if String.sub report i (String.length marker) = marker then
      i + String.length marker
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < String.length report && report.[!stop] <> ' ' do
    incr stop
  done;
  int_of_string (String.sub report start (!stop - start))

(* Q2-Q4 regression checks: stable across runs, every operator line
   carries counters, and the footer agrees with actually running the
   query *)
let check_analyze_report name src =
  let db = tpch_db () in
  let report = explanation db ("explain analyze " ^ src) in
  let report2 = explanation db ("explain analyze " ^ src) in
  Alcotest.(check string)
    (name ^ ": counters stable across runs")
    (normalize report) (normalize report2);
  let lines = String.split_on_char '\n' report in
  let op_lines =
    List.filter
      (fun l -> String.length l > 0 && not (String.length l >= 2
                                            && String.sub l 0 2 = "=="))
      lines
  in
  Alcotest.(check bool) (name ^ ": has operator lines") true (op_lines <> []);
  List.iter
    (fun l ->
      let has sub =
        let n = String.length l and m = String.length sub in
        let rec go i = i + m <= n && (String.sub l i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (name ^ ": line has est/rows/loops/time: " ^ l)
        true
        (has "(est rows=" && has "(rows=" && has "loops=" && has "time="
         && has "first="))
    op_lines;
  Alcotest.(check int)
    (name ^ ": footer = result cardinality")
    (Relation.cardinality (Engine.query (tpch_db ()) src))
    (actual_rows_of report)

let test_q2_q4_analyze () =
  check_analyze_report "Q2" Workloads.q2_gapply;
  check_analyze_report "Q3" (Workloads.q3_gapply ());
  check_analyze_report "Q4" Workloads.q4_gapply

let test_q2_q4_explain_stable () =
  List.iter
    (fun (name, src) ->
      let e1 = explanation (tpch_db ()) ("explain " ^ src) in
      let e2 = explanation (tpch_db ()) ("explain " ^ src) in
      Alcotest.(check string)
        (name ^ ": EXPLAIN deterministic")
        (normalize e1) (normalize e2))
    [
      ("Q2", Workloads.q2_gapply);
      ("Q3", Workloads.q3_gapply ());
      ("Q4", Workloads.q4_gapply);
    ]

(* ---------- qcheck: counters are internally consistent ---------- *)

(* The invariants each operator's counters obey, given whether its
   cursor was fully drained.  [drained = false] (below Exists, whose
   probe stops after one batch, or below a Join's streamed sides)
   weakens every equality to the corresponding inequality.  A subtree
   that was registered but never invoked is all zeros, which satisfies
   every equality, so drained-ness can be propagated structurally. *)
let rec consistent ~drained ~table_card (p : Plan.t) (s : Obs.stat) =
  let kids = Plan.children p in
  let recurse flags =
    List.length kids = List.length s.Obs.children
    && List.length kids = List.length flags
    && List.for_all2
         (fun (d, p') s' -> consistent ~drained:d ~table_card p' s')
         (List.combine flags kids)
         s.Obs.children
  in
  let self =
    match (p, s.Obs.children) with
    | Plan.Table_scan _, [] ->
        if drained then s.Obs.rows = s.Obs.invocations * table_card
        else s.Obs.rows <= s.Obs.invocations * table_card
    | Plan.Group_scan _, [] -> true
    | (Plan.Select _ | Plan.Distinct _), [ c ] -> s.Obs.rows <= c.Obs.rows
    | (Plan.Project _ | Plan.Alias _), [ c ] ->
        (* Batch.map: one output row per input row *)
        s.Obs.rows = c.Obs.rows
    | Plan.Order_by _, [ c ] ->
        s.Obs.rows <= c.Obs.rows
        && ((not drained) || s.Obs.rows = c.Obs.rows)
    | Plan.Aggregate _, [ _ ] ->
        (* one row per invocation, provided each cursor is pulled *)
        s.Obs.rows <= s.Obs.invocations
        && ((not drained) || s.Obs.rows = s.Obs.invocations)
    | Plan.Group_by _, [ _ ] ->
        s.Obs.rows <= s.Obs.partitions
        && ((not drained) || s.Obs.rows = s.Obs.partitions)
    | Plan.Union_all _, cs ->
        let total = List.fold_left (fun a c -> a + c.Obs.rows) 0 cs in
        s.Obs.rows <= total && ((not drained) || s.Obs.rows = total)
    | Plan.Exists _, [ _ ] -> s.Obs.rows <= s.Obs.invocations
    | Plan.Apply _, [ o; i ] ->
        if (not drained) || s.Obs.invocations > 1 then
          (* per-invocation accounting is lost in the totals *)
          true
        else if i.Obs.invocations <= 1 then
          (* uncorrelated, cached: inner ran (at most) once and every
             outer row was paired with the whole inner result *)
          s.Obs.rows = o.Obs.rows * i.Obs.rows
        else
          (* correlated: inner re-runs per outer row *)
          i.Obs.invocations = o.Obs.rows && s.Obs.rows = i.Obs.rows
    | Plan.G_apply _, [ _; pgq ] ->
        if drained then
          pgq.Obs.invocations = s.Obs.partitions
          && s.Obs.rows = pgq.Obs.rows
        else
          pgq.Obs.invocations <= s.Obs.partitions
          && s.Obs.rows <= pgq.Obs.rows
    | Plan.Join _, [ _; _ ] -> true
    | _ -> false (* shape mismatch: the stat tree must mirror the plan *)
  in
  let flags =
    match p with
    | Plan.Exists _ -> [ false ]
    | Plan.Join _ -> [ false; false ]
    | _ -> List.map (fun _ -> drained) kids
  in
  self && recurse flags

let run_with_sink ?(parallelism = 1) cat plan =
  let sink = Obs.make () in
  let c =
    Compile.plan
      ~config:(Compile.config_with ~observe:sink ~parallelism ())
      plan
  in
  let rel = Cursor.to_relation c.Compile.schema (c.Compile.run (Env.make cat)) in
  match Obs.snapshot sink with
  | Some s -> (rel, s)
  | None -> Alcotest.fail "no metric tree"

let check_consistent ?parallelism cat plan =
  let rel, s = run_with_sink ?parallelism cat plan in
  let table_card =
    Table.cardinality (Catalog.find_table cat "r")
  in
  s.Obs.rows = Relation.cardinality rel
  && consistent ~drained:true ~table_card plan s

let prop_counters_consistent =
  QCheck2.Test.make ~count:200
    ~name:"EXPLAIN ANALYZE counters are internally consistent"
    (Gen.triple
       (Test_properties.gen_relation Test_properties.g_schema)
       Test_properties.gen_gcols Test_properties.gen_pgq)
    (fun (rel, gcols, pgq) ->
      let cat = Test_properties.catalog_with_r rel in
      (* once as a plain plan over the table, once per group under
         GApply (which multiplies the PGQ's invocation counts) *)
      check_consistent cat
        (Test_properties.substitute_group pgq
           Test_properties.unqualified_scan_r)
      && check_consistent cat
           (Plan.g_apply ~gcols ~var:"g"
              ~outer:Test_properties.unqualified_scan_r ~pgq))

let suite =
  [
    Alcotest.test_case "counters are atomic under the domain pool" `Quick
      test_counter_atomic;
    Alcotest.test_case "clock and timers are monotone, reset zeroes" `Quick
      test_timer_monotonic;
    Alcotest.test_case "registry: shared handles, line and Prometheus forms"
      `Quick test_registry;
    Alcotest.test_case "fresh sink per Engine.analyze" `Quick
      test_fresh_sink_per_exec;
    Alcotest.test_case "Obs.reset zeroes the live tree" `Quick
      test_obs_reset;
    Alcotest.test_case "trace hook sees open/next/close" `Quick
      test_trace_hook_events;
    Alcotest.test_case "golden: EXPLAIN Q1" `Quick test_q1_explain_golden;
    Alcotest.test_case "golden: EXPLAIN ANALYZE Q1 (normalized)" `Quick
      test_q1_analyze_golden;
    Alcotest.test_case "batches reported iff vectorized" `Quick
      test_batches_reported;
    Alcotest.test_case "EXPLAIN deterministic on Q2-Q4" `Quick
      test_q2_q4_explain_stable;
    Alcotest.test_case "EXPLAIN ANALYZE regression on Q2-Q4" `Quick
      test_q2_q4_analyze;
    QCheck_alcotest.to_alcotest prop_counters_consistent;
  ]
