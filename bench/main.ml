(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) on this engine.

   Sections (run all by default, or name them on the command line):

     figure8       speedup of Q1-Q4 with GApply vs. the traditional
                   sorted-outer-union formulation (paper Figure 8),
                   plus the naive correlated series for Q2/Q3
     table1        per-rule benefit sweeps: max / average / average over
                   wins (paper Table 1)
     partitioning  sort- vs hash-partitioned GApply on Q1-Q4 (the
                   Section 5.2 "impact is comparable" remark)
     parallel      multicore GApply: sweep --parallelism 1/2/4/8 on
                   Q1-Q4 (domain-pool execution phase)
     clientsim     native GApply vs. the Section 5.1 client-side
                   simulation on Q4 (the paper measured ~20% overhead)
     pipeline      XML publishing end-to-end: sorted outer union vs. one
                   GApply pass through the constant-space tagger
     ablation      engine design-choice ablations (index vs. hash-build
                   joins, clustering guarantee, parallel execution phase)
     analyze       per-operator breakdown of Q1-Q4 through the EXPLAIN
                   ANALYZE instrumentation (Obs sinks), including the
                   tracing-off overhead check
     throughput    plan-cache hit rates and concurrent-session
                   throughput through the workload driver
     transactions  snapshot-isolated reader latency (p50/p99) solo vs
                   under a concurrent committing writer, plus two-writer
                   conflict accounting
     governor      resource-governor overhead and enforcement
                   (timeouts, row/memory ceilings, degraded modes)
     durability    WAL logging overhead (off/lazy/strict vs in-memory),
                   Q1-Q4 read-path parity under strict, and recovery
                   time vs WAL length / snapshot
     vectorized    batch-size sweep on warm Q1 and a
                   dictionary-encoding A/B
     micro         Bechamel micro-benchmarks of the core operators

   Usage:
     dune exec bench/main.exe -- [SECTION]... [--msf 1.0] [--repeat 5]
                                 [--json FILE]

   --json FILE additionally writes every recorded measurement as one
   JSON document (see the [Json] module below), making the perf
   trajectory machine-readable across PRs.  *)

let default_msf = 1.0
let default_repeat = 5

(* ---------- machine-readable output ---------- *)

(* A hand-rolled JSON printer (no external dependency): enough of the
   format for flat measurement records. *)
module Json = struct
  type t =
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let rec write buf = function
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_finite f then
          (* %.17g round-trips; trim to something readable but exact
             enough for timings *)
          Buffer.add_string buf (Printf.sprintf "%.6g" f)
        else Buffer.add_string buf "null"
    | Str s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            write buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            write buf (Str k);
            Buffer.add_char buf ':';
            write buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 4096 in
    write buf t;
    Buffer.contents buf
end

(* Measurements recorded by sections that support machine-readable
   output (in run order). *)
let json_records : Json.t list ref = ref []

let record ~section ~query fields =
  json_records :=
    Json.Obj (("section", Json.Str section) :: ("query", Json.Str query)
              :: fields)
    :: !json_records

let write_json ~msf ~repeat path =
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "gapply");
        ("msf", Json.Float msf);
        ("repeat", Json.Int repeat);
        ("host_cores", Json.Int (Domain.recommended_domain_count ()));
        ("results", Json.List (List.rev !json_records));
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote %d record(s) to %s@."
    (List.length !json_records) path

(* median-of-N elapsed time, in seconds; CLOCK_MONOTONIC so wall-clock
   adjustments between samples cannot skew a measurement *)
let time_runs ~repeat f =
  let samples =
    List.init repeat (fun _ ->
        let t0 = Metrics.now_ns () in
        ignore (f ());
        float_of_int (Metrics.now_ns () - t0) /. 1e9)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (repeat / 2)

(* [repeat] rounds of one sample of each of [fs], then each one's
   median: interleaved, host drift lands on every side alike instead of
   reading as a difference between them. *)
let time_interleaved ~repeat (fs : (unit -> 'a) array) : float array =
  let samples = Array.map (fun _ -> []) fs in
  for _ = 1 to repeat do
    Array.iteri
      (fun i f ->
        let t0 = Metrics.now_ns () in
        ignore (f ());
        let t = float_of_int (Metrics.now_ns () - t0) /. 1e9 in
        samples.(i) <- t :: samples.(i))
      fs
  done;
  Array.map (fun l -> List.nth (List.sort compare l) (repeat / 2)) samples

let ms t = 1000. *. t

let bind cat src =
  Sql_binder.bind_query cat (Sql_parser.parse_query_string src)

let optimize cat plan = (Optimizer.optimize cat plan).Optimizer.plan

let header title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

(* ---------- Figure 8 ---------- *)

let bench_figure8 ~msf ~repeat () =
  header (Printf.sprintf "Figure 8: speedup using GApply (msf %g)" msf);
  let cat = Tpch_gen.catalog ~msf () in
  Format.printf "%-4s %18s %15s %10s@." "" "baseline (ms)" "gapply (ms)"
    "speedup";
  List.iter
    (fun (name, gapply_src, baseline_src) ->
      let gapply_plan = optimize cat (bind cat gapply_src) in
      let baseline_plan = optimize cat (bind cat baseline_src) in
      let t_base =
        time_runs ~repeat (fun () -> Executor.run_count cat baseline_plan)
      in
      let t_gapply =
        time_runs ~repeat (fun () -> Executor.run_count cat gapply_plan)
      in
      Format.printf "%-4s %18.1f %15.1f %9.2fx@." name (ms t_base)
        (ms t_gapply) (t_base /. t_gapply);
      record ~section:"figure8" ~query:name
        [
          ("baseline_ms", Json.Float (ms t_base));
          ("gapply_ms", Json.Float (ms t_gapply));
          ("speedup", Json.Float (t_base /. t_gapply));
        ])
    Workloads.figure8_queries;
  Format.printf
    "@.(ratio = time without GApply / time with GApply; the paper reports \
     up to ~2x)@.";
  (* the verbatim correlated SQL of Section 2: naive per-row execution
     (no decorrelation) vs. the optimizer's decorrelate-scalar-agg
     rewrite vs. GApply.  The naive series runs at a reduced scale to
     keep its quadratic runtime sane. *)
  let small_msf = Float.min msf 0.25 in
  let cat = Tpch_gen.catalog ~msf:small_msf () in
  Format.printf
    "@.Extra series: the verbatim correlated SQL of Section 2 (msf %g):@."
    small_msf;
  Format.printf "%-4s %14s %18s %15s@." "" "naive (ms)" "decorrelated (ms)"
    "gapply (ms)";
  List.iter
    (fun (name, gapply_src, correlated_src) ->
      let gapply_plan = optimize cat (bind cat gapply_src) in
      let naive_plan = bind cat correlated_src in
      let decorrelated_plan = optimize cat naive_plan in
      let t_naive =
        time_runs ~repeat:(max 1 (repeat / 2)) (fun () ->
            Executor.run_count cat naive_plan)
      in
      let t_dec =
        time_runs ~repeat (fun () ->
            Executor.run_count cat decorrelated_plan)
      in
      let t_gapply =
        time_runs ~repeat (fun () -> Executor.run_count cat gapply_plan)
      in
      Format.printf "%-4s %14.1f %18.1f %15.1f@." name (ms t_naive)
        (ms t_dec) (ms t_gapply))
    Workloads.figure8_correlated

(* ---------- Table 1 ---------- *)

(* classic cleanup applied to both sides so we isolate the rule's own
   effect (the paper pushes inserted selections down with the
   traditional rules afterwards) *)
let cleanup_rules =
  [
    "merge-selects"; "select-through-project"; "select-pushdown-join";
    "eliminate-identity-project";
  ]

let cleanup cat plan =
  List.fold_left
    (fun plan rule -> Optimizer.force_rule_exhaustively rule cat plan)
    plan cleanup_rules

let bench_table1 ~msf ~repeat () =
  header
    (Printf.sprintf "Table 1: effect of transformation rules (msf %g)" msf);
  let cat = Tpch_gen.catalog ~msf () in
  Format.printf "%-36s %12s %12s %12s@." "Rule" "Max" "Average"
    "Avg over wins";
  List.iter
    (fun (label, rule, instances) ->
      let benefits =
        List.map
          (fun (_param, src) ->
            let bound = bind cat src in
            let without_rule = cleanup cat bound in
            let with_rule =
              cleanup cat (Optimizer.force_rule_exhaustively rule cat bound)
            in
            let t_without =
              time_runs ~repeat (fun () ->
                  Executor.run_count cat without_rule)
            in
            let t_with =
              time_runs ~repeat (fun () -> Executor.run_count cat with_rule)
            in
            t_without /. t_with)
          instances
      in
      let n = List.length benefits in
      let maximum = List.fold_left Float.max neg_infinity benefits in
      let avg = List.fold_left ( +. ) 0. benefits /. float_of_int n in
      let wins = List.filter (fun b -> b > 1.) benefits in
      let avg_wins =
        match wins with
        | [] -> Float.nan
        | ws -> List.fold_left ( +. ) 0. ws /. float_of_int (List.length ws)
      in
      if Float.is_nan avg_wins then
        Format.printf "%-36s %11.2fx %11.2fx %12s@." label maximum avg
          "(no wins)"
      else
        Format.printf "%-36s %11.2fx %11.2fx %11.2fx@." label maximum avg
          avg_wins)
    (Workloads.table1_sweeps ());
  Format.printf
    "@.(benefit = elapsed without the rule / elapsed after firing it; \
     'Average over wins' averages only the cases where the rule helped)@."

(* ---------- partitioning strategies ---------- *)

let bench_partitioning ~msf ~repeat () =
  header
    (Printf.sprintf
       "GApply partitioning: sorting vs hashing (Section 5.2 remark, msf %g)"
       msf);
  let cat = Tpch_gen.catalog ~msf () in
  (* the paper's claim is that the *speedup over the baseline* is
     comparable whichever way GApply partitions *)
  Format.printf "%-4s %12s %12s %12s %16s %16s@." "" "baseline"
    "sort (ms)" "hash (ms)" "speedup (sort)" "speedup (hash)";
  List.iter
    (fun (name, gapply_src, baseline_src) ->
      let plan = optimize cat (bind cat gapply_src) in
      let baseline = optimize cat (bind cat baseline_src) in
      let t_base =
        time_runs ~repeat (fun () -> Executor.run_count cat baseline)
      in
      let t_sort =
        time_runs ~repeat (fun () ->
            Executor.run_count
              ~config:(Compile.config_with ~partition:Compile.Sort_partition ())
              cat plan)
      in
      let t_hash =
        time_runs ~repeat (fun () ->
            Executor.run_count
              ~config:(Compile.config_with ~partition:Compile.Hash_partition ())
              cat plan)
      in
      Format.printf "%-4s %12.1f %12.1f %12.1f %15.2fx %15.2fx@." name
        (ms t_base) (ms t_sort) (ms t_hash) (t_base /. t_sort)
        (t_base /. t_hash);
      record ~section:"partitioning" ~query:name
        [
          ("baseline_ms", Json.Float (ms t_base));
          ("sort_ms", Json.Float (ms t_sort));
          ("hash_ms", Json.Float (ms t_hash));
        ])
    Workloads.figure8_queries

(* ---------- multicore GApply (domain-pool execution phase) ---------- *)

let parallel_levels = [ 1; 2; 4; 8 ]

let bench_parallel ~msf ~repeat () =
  header
    (Printf.sprintf
       "Multicore GApply: domain-pool parallel execution phase (msf %g, \
        host has %d core(s))"
       msf
       (Domain.recommended_domain_count ()));
  let cat = Tpch_gen.catalog ~msf () in
  Format.printf "%-4s" "";
  List.iter (fun p -> Format.printf " %9s" (Printf.sprintf "p=%d (ms)" p))
    parallel_levels;
  Format.printf " %10s@." "speedup@4";
  List.iter
    (fun (name, gapply_src, _) ->
      let plan = optimize cat (bind cat gapply_src) in
      let run_at p =
        Executor.run_count
          ~config:(Compile.config_with ~parallelism:p ())
          cat plan
      in
      let times =
        List.map (fun p -> (p, time_runs ~repeat (fun () -> run_at p)))
          parallel_levels
      in
      let t1 = List.assoc 1 times in
      let t4 = List.assoc 4 times in
      Format.printf "%-4s" name;
      List.iter (fun (_, t) -> Format.printf " %9.1f" (ms t)) times;
      Format.printf " %9.2fx@." (t1 /. t4);
      record ~section:"parallel" ~query:name
        (List.map
           (fun (p, t) ->
             (Printf.sprintf "p%d_ms" p, Json.Float (ms t)))
           times
        @ [ ("speedup_at_4", Json.Float (t1 /. t4)) ]))
    Workloads.figure8_queries;
  Format.printf
    "@.(speedup@4 = parallelism-1 elapsed / parallelism-4 elapsed; the \
     execution phase runs each group's PGQ on a shared domain pool and \
     concatenates per-group results in group order)@."

(* ---------- client-side simulation (Section 5.1) ---------- *)

let bench_clientsim ~msf ~repeat () =
  header
    (Printf.sprintf
       "Client-side simulation of GApply vs native (Section 5.1, msf %g)"
       msf);
  let cat = Tpch_gen.catalog ~msf () in
  List.iter
    (fun (name, src) ->
      let plan = bind cat src in
      let t_native =
        time_runs ~repeat (fun () -> Executor.run cat plan)
      in
      let t_sim =
        time_runs ~repeat (fun () -> fst (Client_sim.run cat plan))
      in
      let _, phases = Client_sim.run cat plan in
      let accounted = Client_sim.total phases in
      Format.printf
        "%s: native %.1f ms, client-side elapsed %.1f ms, accounted (paper \
         formula) %.1f ms  ->  overhead %+.0f%% (accounted %+.0f%%)@."
        name (ms t_native) (ms t_sim) (ms accounted)
        (100. *. ((t_sim /. t_native) -. 1.))
        (100. *. ((accounted /. t_native) -. 1.));
      Format.printf
        "    phases: outer %.1f ms, partition %.1f ms (overestimate \
         correction %.1f ms), execute %.1f ms, accounted total %.1f ms@."
        (ms phases.Client_sim.outer_time)
        (ms phases.Client_sim.partition_time)
        (ms phases.Client_sim.overestimate_time)
        (ms phases.Client_sim.execute_time)
        (ms (Client_sim.total phases)))
    [ ("Q4", Workloads.q4_gapply); ("Q1", Workloads.q1_gapply) ];
  Format.printf
    "@.(the paper observed the client-side protocol costing ~20%% over \
     the server-side operator)@."

(* ---------- XML publishing pipeline ---------- *)

let record_pipeline name ~msf t_ou t_ga =
  Format.printf "%-28s %16.1f %14.1f %9.2fx@." name (ms t_ou) (ms t_ga)
    (t_ou /. t_ga);
  record ~section:"pipeline" ~query:name
    [
      ("msf", Json.Float msf);
      ("outer_union_ms", Json.Float (ms t_ou));
      ("gapply_ms", Json.Float (ms t_ga));
    ]

(* The group selections use the publish workload's bounds, which keep
   suppliers only from msf 0.5 up (37 and 33 of 50 there), so they run
   on a catalog of at least that scale. *)
let bench_pipeline ~msf ~repeat () =
  let sel_msf = Float.max msf 0.5 in
  header
    (Printf.sprintf
       "XML publishing: sorted outer union vs one GApply pass (msf %g, group \
        selection at msf %g)"
       msf sel_msf);
  let cat = Tpch_gen.catalog ~msf () in
  let sel_cat =
    if sel_msf = msf then cat else Tpch_gen.catalog ~msf:sel_msf ()
  in
  let specs =
    [
      ("plain figure-1 view", msf, cat, Publish.of_view Xml_view.figure1);
      ("Q1 (nested parts + avg)", msf, cat, Flwr.compile Flwr.q1);
      ("Q1 extended (4 aggregates)", msf, cat, Flwr.compile Flwr.q1_extended);
      ( "group selection (exists)", sel_msf, sel_cat,
        Flwr.compile (Flwr.expensive_part_suppliers 1890.) );
      ( "group selection (aggregate)", sel_msf, sel_cat,
        Flwr.compile (Flwr.high_average_suppliers 1400.) );
    ]
  in
  Format.printf "%-28s %16s %14s %10s@." "query" "outer union (ms)"
    "gapply (ms)" "speedup";
  List.iter
    (fun (name, msf, cat, spec) ->
      let run (plan, enc) () =
        let compiled = Compile.plan plan in
        let buf = Buffer.create 65536 in
        Tagger.tag_to_buffer enc (compiled.Compile.run (Env.make cat)) buf;
        Buffer.length buf
      in
      let t_ou = time_runs ~repeat (run (Publish.outer_union_plan cat spec)) in
      let t_ga = time_runs ~repeat (run (Publish.gapply_plan cat spec)) in
      record_pipeline name ~msf t_ou t_ga)
    specs;
  (* the three-level customer -> order -> lineitem view with per-level
     aggregates (deep publisher) *)
  let deep = Deep_view.customer_orders in
  let run strategy () =
    Xml.to_string (Deep_publish.publish ~strategy cat deep)
  in
  let t_ou = time_runs ~repeat (run Deep_publish.Sorted_outer_union) in
  let t_ga = time_runs ~repeat (run Deep_publish.Gapply_pass) in
  record_pipeline "3-level orders (3 aggs)" ~msf t_ou t_ga

(* ---------- number rendering at the output boundary ---------- *)

(* The rule [Value.to_string] must reproduce for numbers: [Printf]'s
   %.12g plus ".0" when that reads as an int, and [string_of_int]. *)
let printf_number = function
  | Value.Float f ->
      let s = Printf.sprintf "%.12g" f in
      if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
      then s
      else s ^ ".0"
  | Value.Int i -> string_of_int i
  | v -> Value.to_string v

(* Whether [Value.to_string] renders [f] on its exact integer path: the
   smallest k <= 6 with round (|f| * 10^k) < 1e12 dividing back to |f|. *)
let short_decimal f =
  let a = Float.abs f in
  a >= 1e-4 && a < 1e12
  && List.exists
       (fun k ->
         let p = 10. ** float_of_int k in
         let m = Float.round (a *. p) in
         m < 1e12 && m /. p = a)
       [ 0; 1; 2; 3; 4; 5; 6 ]

(* Every Int and Float cell of the Figure 8 Q1-Q4 result tables (the
   serve workload's replies, msf >= 0.25) and of the five Figure-1
   tagger streams (the publish workload's, msf >= 0.5), rendered by
   [Value.to_string] and by the Printf rule: ns per cell for each, and
   the share of floats on the exact path (the byte equality of the two
   is a test). *)
let bench_render ~msf ~repeat () =
  let table_msf = Float.max msf 0.25 and stream_msf = Float.max msf 0.5 in
  header
    (Printf.sprintf "Number rendering: Value.to_string vs Printf (msf %g / %g)"
       table_msf stream_msf);
  let db = Engine.create ~parallelism:1 () in
  Engine.load_tpch db ~msf:table_msf;
  let tables =
    List.map
      (fun (name, sql, _) ->
        match Engine.exec db sql with
        | Engine.Rows rel -> (name, Relation.rows_array rel)
        | _ -> failwith (name ^ ": expected rows"))
      Workloads.figure8_queries
  in
  Engine.close db;
  let cat = Tpch_gen.catalog ~msf:stream_msf () in
  let streams =
    List.map
      (fun (name, spec) ->
        let plan, _ = Publish.gapply_plan cat spec in
        let rows = (Compile.plan plan).Compile.run (Env.make cat) in
        (name, Cursor.to_array rows))
      [
        ("view", Publish.of_view Xml_view.figure1);
        ("q1", Flwr.compile Flwr.q1);
        ("q1_extended", Flwr.compile Flwr.q1_extended);
        ("exists_1890", Flwr.compile (Flwr.expensive_part_suppliers 1890.));
        ("avg_1400", Flwr.compile (Flwr.high_average_suppliers 1400.));
      ]
  in
  Format.printf "%-12s %8s %8s %10s %12s %12s@." "query" "numeric"
    "floats" "fast share" "to_string ns" "printf ns";
  List.iter
    (fun (name, rows) ->
      let cells =
        Array.of_list
          (List.filter
             (function Value.Int _ | Value.Float _ -> true | _ -> false)
             (List.concat_map Array.to_list (Array.to_list rows)))
      in
      let n = Array.length cells in
      let floats =
        List.filter_map
          (function Value.Float f -> Some f | _ -> None)
          (Array.to_list cells)
      in
      let nfloats = List.length floats in
      let fast_share =
        if nfloats = 0 then 1.
        else
          float_of_int (List.length (List.filter short_decimal floats))
          /. float_of_int nfloats
      in
      (* ten passes per sample keep a sample well above the clock's grain *)
      let ns_per_cell render =
        let t =
          time_runs ~repeat:(max repeat 5) (fun () ->
              for _ = 1 to 10 do
                Array.iter
                  (fun v -> ignore (Sys.opaque_identity (render v)))
                  cells
              done)
        in
        if n = 0 then 0. else t *. 1e9 /. float_of_int (10 * n)
      in
      let t_value = ns_per_cell Value.to_string in
      let t_printf = ns_per_cell printf_number in
      Format.printf "%-12s %8d %8d %10.3f %12.1f %12.1f@." name n nfloats
        fast_share t_value t_printf;
      record ~section:"render" ~query:name
        [
          ("numeric_cells", Json.Int n);
          ("float_cells", Json.Int nfloats);
          ("fast_share", Json.Float fast_share);
          ("value_ns_per_cell", Json.Float t_value);
          ("printf_ns_per_cell", Json.Float t_printf);
        ])
    (tables @ streams)

(* ---------- ablations of engine design choices (DESIGN.md §5) -------- *)

let bench_ablation ~msf ~repeat () =
  header
    (Printf.sprintf "Ablations of engine design choices (msf %g)" msf);
  let cat = Tpch_gen.catalog ~msf () in
  (* 1. index nested-loop joins: probing a pre-built hash index on the
     join's inner side instead of re-building a hash table per query.
     The same queries run on the catalog before and after the indexes
     are created; the indexes stay for the ablations below. *)
  let queries =
    [
      ("Q1", Workloads.q1_gapply);
      ("Q2", Workloads.q2_baseline);
      ("Q4", Workloads.q4_baseline);
    ]
  in
  let time_all () =
    List.map
      (fun (_, src) ->
        let plan = optimize cat (bind cat src) in
        time_runs ~repeat (fun () -> Executor.run_count cat plan))
      queries
  in
  let t_hash = time_all () in
  Catalog.create_index cat ~name:"part_pk" ~table:"part"
    ~columns:[ "p_partkey" ];
  Catalog.create_index cat ~name:"supplier_pk" ~table:"supplier"
    ~columns:[ "s_suppkey" ];
  let t_index = time_all () in
  Format.printf "@.Index nested-loop joins (indexes on part, supplier):@.";
  Format.printf "%-4s %16s %16s %10s@." "" "indexed (ms)" "hash build (ms)"
    "benefit";
  List.iter2
    (fun (name, _) (t_on, t_off) ->
      Format.printf "%-4s %16.1f %16.1f %9.2fx@." name (ms t_on) (ms t_off)
        (t_off /. t_on))
    queries
    (List.combine t_index t_hash);
  (* 2. the Section 3.1 clustering guarantee: ordering the group list
     under hash partitioning *)
  Format.printf
    "@.Clustering guarantee (hash partitioning, ordered group list):@.";
  Format.printf "%-4s %16s %16s %10s@." "" "clustered (ms)"
    "unclustered (ms)" "overhead";
  List.iter
    (fun (name, src) ->
      let clustered = optimize cat (bind cat src) in
      let unclustered =
        Plan.rewrite_bottom_up
          (function
            | Plan.G_apply g -> Plan.G_apply { g with cluster = false }
            | p -> p)
          clustered
      in
      let t_c =
        time_runs ~repeat (fun () -> Executor.run_count cat clustered)
      in
      let t_u =
        time_runs ~repeat (fun () -> Executor.run_count cat unclustered)
      in
      Format.printf "%-4s %16.1f %16.1f %+9.1f%%@." name (ms t_c) (ms t_u)
        (100. *. ((t_c /. t_u) -. 1.)))
    [ ("Q1", Workloads.q1_gapply); ("Q4", Workloads.q4_gapply) ];
  (* 3. the parallel execution phase: sequential vs one domain per core
     (the full sweep lives in the dedicated 'parallel' section) *)
  Format.printf
    "@.Parallel execution phase (sequential vs auto, %d core(s)):@."
    (Domain.recommended_domain_count ());
  Format.printf "%-4s %16s %16s %10s@." "" "sequential (ms)" "auto (ms)"
    "benefit";
  List.iter
    (fun (name, src) ->
      let plan = optimize cat (bind cat src) in
      let t_seq =
        time_runs ~repeat (fun () ->
            Executor.run_count
              ~config:(Compile.config_with ~parallelism:1 ())
              cat plan)
      in
      let t_auto =
        time_runs ~repeat (fun () ->
            Executor.run_count
              ~config:(Compile.config_with ~parallelism:0 ())
              cat plan)
      in
      Format.printf "%-4s %16.1f %16.1f %9.2fx@." name (ms t_seq) (ms t_auto)
        (t_seq /. t_auto))
    [ ("Q1", Workloads.q1_gapply); ("Q4", Workloads.q4_gapply) ]

(* ---------- per-operator breakdown (EXPLAIN ANALYZE plumbing) -------- *)

let bench_analyze ~msf ~repeat () =
  header
    (Printf.sprintf
       "Per-operator breakdown via the Obs instrumentation (msf %g)" msf);
  let cat = Tpch_gen.catalog ~msf () in
  Format.printf "%-4s %12s %14s %10s@." "" "plain (ms)" "observed (ms)"
    "overhead";
  List.iter
    (fun (name, gapply_src, _) ->
      let plan = optimize cat (bind cat gapply_src) in
      let env () = Env.make cat in
      (* baseline: the exact closure the engine runs with observe=None;
         against it, metrics on, hook off — the configuration whose
         overhead the acceptance criterion bounds.  One sample of each
         per round. *)
      let plain = Compile.plan plan in
      let sink = Obs.make () in
      let observed =
        Compile.plan ~config:(Compile.config_with ~observe:sink ()) plan
      in
      let t =
        time_interleaved ~repeat
          [|
            (fun () -> Cursor.length (plain.Compile.run (env ())));
            (fun () -> Cursor.length (observed.Compile.run (env ())));
          |]
      in
      let t_plain = t.(0) and t_obs = t.(1) in
      (* one clean run for the per-operator numbers (their consistency
         is checked by test/test_observe.ml) *)
      Obs.reset sink;
      ignore (Cursor.length (observed.Compile.run (env ())));
      let stats =
        match Obs.snapshot sink with
        | Some s -> Obs.flatten s
        | None -> []
      in
      let overhead_pct = 100. *. ((t_obs /. t_plain) -. 1.) in
      Format.printf "%-4s %12.1f %14.1f %+9.1f%%@." name (ms t_plain)
        (ms t_obs) overhead_pct;
      record ~section:"analyze" ~query:name
        [
          ("plain_ms", Json.Float (ms t_plain));
          ("observed_ms", Json.Float (ms t_obs));
          ("overhead_pct", Json.Float overhead_pct);
          ( "operators",
            Json.List
              (List.map
                 (fun (depth, (s : Obs.stat)) ->
                   Json.Obj
                     [
                       ("op", Json.Str s.Obs.op);
                       ("depth", Json.Int depth);
                       ("rows", Json.Int s.Obs.rows);
                       ("loops", Json.Int s.Obs.invocations);
                       ("groups", Json.Int s.Obs.partitions);
                       ( "time_ms",
                         Json.Float (float_of_int s.Obs.time_ns /. 1e6) );
                       ( "first_ms",
                         Json.Float (float_of_int s.Obs.ttft_ns /. 1e6) );
                     ])
                 stats) );
        ])
    Workloads.figure8_queries;
  Format.printf
    "@.(overhead = metrics-on / metrics-off elapsed on the same compiled \
     plan)@.";
  (* estimation quality + cost-based-vs-heuristic latency A/B, recorded
     under a separate section for the CI estimation gates.  Per-group
     operators report rows summed across invocations while the cost
     model estimates per invocation, so the estimate scales by loops
     before the q-error compares the two. *)
  Format.printf
    "@.Cost-model estimation quality and CBO warm-latency A/B:@.";
  Format.printf "%-4s %14s %6s %14s %18s@." "" "median q-err" "ops"
    "cbo warm (ms)" "heuristic warm (ms)";
  let db = Engine.create () in
  Engine.load_tpch db ~msf;
  List.iter
    (fun (name, gapply_src, _) ->
      Engine.set_cbo db true;
      let _, profile = Engine.analyze_profile db gapply_src in
      let q_errors =
        List.map
          (fun (p : Engine.op_profile) ->
            let obs = float_of_int p.Engine.obs_rows in
            let est =
              p.Engine.est_rows *. float_of_int (max 1 p.Engine.obs_loops)
            in
            (p, Float.abs (obs -. est) /. Float.max 1. obs))
          profile
      in
      let median =
        match List.sort Float.compare (List.map snd q_errors) with
        | [] -> 0.
        | sorted -> List.nth sorted (List.length sorted / 2)
      in
      let warm_time () =
        ignore (Engine.query db gapply_src);
        time_runs ~repeat (fun () -> ignore (Engine.query db gapply_src))
      in
      let t_cbo = warm_time () in
      Engine.set_cbo db false;
      let t_heuristic = warm_time () in
      Engine.set_cbo db true;
      Format.printf "%-4s %14.3f %6d %14.2f %18.2f@." name median
        (List.length q_errors) (ms t_cbo) (ms t_heuristic);
      record ~section:"cbo" ~query:name
        [
          ("median_q_error", Json.Float median);
          ("n_operators", Json.Int (List.length q_errors));
          ("cbo_warm_ms", Json.Float (ms t_cbo));
          ("heuristic_warm_ms", Json.Float (ms t_heuristic));
          ( "operators",
            Json.List
              (List.map
                 (fun ((p : Engine.op_profile), q) ->
                   Json.Obj
                     [
                       ("op", Json.Str p.Engine.op_name);
                       ("est_rows", Json.Float p.Engine.est_rows);
                       ("obs_rows", Json.Int p.Engine.obs_rows);
                       ("loops", Json.Int p.Engine.obs_loops);
                       ("q_error", Json.Float q);
                     ])
                 q_errors) );
        ])
    Workloads.figure8_queries;
  Format.printf
    "@.(q-error = |observed - estimated * loops| / observed per operator; \
     the warm A/B times the plan-cached execution with cost-based \
     optimization on vs off)@."

(* ---------- plan-cache throughput (prepared statements) ---------- *)

let bench_throughput ~msf ~repeat () =
  header
    (Printf.sprintf
       "Plan-cache throughput: cold vs warm, repeat sweep, concurrent \
        sessions (msf %g)"
       msf);
  (* 1. per-query cold vs warm execution: the warm path skips parse,
     bind, optimize and compile entirely *)
  let db = Engine.create () in
  Engine.load_tpch db ~msf;
  Format.printf "%-4s %12s %12s %10s@." "" "cold (ms)" "warm (ms)" "speedup";
  List.iter
    (fun (name, gapply_src, _) ->
      Engine.set_plan_cache_enabled db false;
      let t_cold =
        time_runs ~repeat (fun () -> Engine.query db gapply_src)
      in
      Engine.set_plan_cache_enabled db true;
      ignore (Engine.query db gapply_src);  (* warm the entry *)
      let t_warm =
        time_runs ~repeat (fun () -> Engine.query db gapply_src)
      in
      Format.printf "%-4s %12.2f %12.2f %9.2fx@." name (ms t_cold)
        (ms t_warm) (t_cold /. t_warm);
      record ~section:"throughput" ~query:name
        [
          ("cold_ms", Json.Float (ms t_cold));
          ("warm_ms", Json.Float (ms t_warm));
          ("speedup", Json.Float (t_cold /. t_warm));
        ])
    Workloads.figure8_queries;
  (* 2. single-session repeat sweep: Q1-Q4 executed 12 times each on a
     fresh engine — 4 cold preparations then hits, so the expected hit
     rate is 44/48 ~ 0.92 ([test plan-cache] asserts >= 0.9) *)
  let queries =
    List.map (fun (name, src, _) -> (name, src)) Workloads.figure8_queries
  in
  let iterations = 12 in
  let db = Engine.create () in
  Engine.load_tpch db ~msf;
  let trace _ =
    List.concat
      (List.init iterations (fun _ -> List.map snd queries))
  in
  let sweep = Session.run ~concurrent:false db ~sessions:1 ~script:trace in
  let hit_rate = Cache_stats.hit_rate sweep.Session.cache in
  let saved_ms =
    float_of_int sweep.Session.cache.Cache_stats.saved_ns /. 1e6
  in
  Format.printf
    "@.Repeat sweep (Q1-Q4 x %d): %.0f statements/s, p50 %.2f ms, p99 %.2f \
     ms@.  cache: hits=%d misses=%d hit_rate=%.2f saved=%.1f ms@."
    iterations sweep.Session.qps sweep.Session.p50_ms sweep.Session.p99_ms
    sweep.Session.cache.Cache_stats.hits sweep.Session.cache.Cache_stats.misses
    hit_rate saved_ms;
  record ~section:"throughput" ~query:"repeat-sweep"
    [
      ("iterations", Json.Int iterations);
      ("statements", Json.Int sweep.Session.statements);
      ("qps", Json.Float sweep.Session.qps);
      ("p50_ms", Json.Float sweep.Session.p50_ms);
      ("p99_ms", Json.Float sweep.Session.p99_ms);
      ("prepare_saved_ms", Json.Float saved_ms);
    ];
  (* 3. concurrent sessions over the shared cache vs a sequential replay
     of the identical traces: digests must agree ([test plan-cache]
     asserts it; this prints it) *)
  let sessions = 4 in
  let db = Engine.create () in
  Engine.load_tpch db ~msf;
  let concurrent = Session.run ~concurrent:true db ~sessions ~script:trace in
  let db' = Engine.create () in
  Engine.load_tpch db' ~msf;
  let sequential =
    Session.run ~concurrent:false db' ~sessions ~script:trace
  in
  let identical =
    Session.equal_results concurrent.Session.results
      sequential.Session.results
  in
  Format.printf
    "@.%d concurrent sessions: %.0f statements/s (sequential replay %.0f), \
     identical results: %b@.  cache: hits=%d misses=%d@."
    sessions concurrent.Session.qps sequential.Session.qps identical
    concurrent.Session.cache.Cache_stats.hits
    concurrent.Session.cache.Cache_stats.misses;
  record ~section:"throughput" ~query:(Printf.sprintf "sessions-%d" sessions)
    [
      ("sessions", Json.Int sessions);
      ("statements", Json.Int concurrent.Session.statements);
      ("qps", Json.Float concurrent.Session.qps);
      ("sequential_qps", Json.Float sequential.Session.qps);
      ("p99_ms", Json.Float concurrent.Session.p99_ms);
      ("hits", Json.Int concurrent.Session.cache.Cache_stats.hits);
      ("misses", Json.Int concurrent.Session.cache.Cache_stats.misses);
    ]

(* ---------- interactive transactions (MVCC) ---------- *)

(* Three records.  [readers-solo] / [readers-writer]: pooled reader
   statement latency with and without a concurrent committing writer on
   the same table — under snapshot isolation readers resolve visibility
   against a pinned timestamp and never wait on the writer, so the CI
   gate asserts the with-writer p99 shows no latency cliff.
   [writers-conflict]: two writers racing on one table under
   first-committer-wins, timed.  That no reader errors, that the writer
   commits and that committed + conflicted account for every
   transaction begun are [test mvcc] cases; this section only prints
   those counts. *)
let closed m outcome = Metrics.read m ~label:outcome "gapply_txn_closed_total"

let bench_transactions ~msf:_ ~repeat:_ () =
  header
    "Interactive transactions: snapshot readers under a concurrent writer";
  let rounds = 40 in
  let readers = 3 in
  let fresh () =
    let db = Engine.create () in
    (match Engine.exec db "create table acct (a int, b int)" with
    | Engine.Failed e -> raise e
    | _ -> ());
    for i = 0 to 15 do
      let row j = Printf.sprintf "(%d, %d)" ((16 * i) + j) i in
      let values = String.concat ", " (List.init 16 row) in
      ignore (Engine.exec db ("insert into acct values " ^ values))
    done;
    db
  in
  let reader_trace =
    List.concat
      (List.init rounds (fun _ ->
           [ "begin"; "select acct.a from acct";
             "select acct.b from acct where acct.b > 4"; "commit" ]))
  in
  let writer_trace =
    List.concat
      (List.init rounds (fun i ->
           [
             "begin";
             Printf.sprintf "insert into acct values (%d, %d)"
               (10_000 + (2 * i)) i;
             Printf.sprintf "insert into acct values (%d, %d)"
               (10_001 + (2 * i)) i;
             "commit";
           ]))
  in
  (* reader-only latency pool: session 0 of the mixed run is the writer *)
  let percentile p (report : Session.report) ~skip_writer =
    let pool =
      Array.to_list report.Session.results
      |> List.filter (fun (r : Session.session_result) ->
             not (skip_writer && r.Session.id = 0))
      |> List.concat_map (fun (r : Session.session_result) ->
             Array.to_list r.Session.latencies_ns)
      |> List.sort compare |> Array.of_list
    in
    if Array.length pool = 0 then 0.
    else
      let idx =
        min (Array.length pool - 1)
          (int_of_float (p *. float_of_int (Array.length pool)))
      in
      float_of_int pool.(idx) /. 1e6
  in
  let reader_errors (report : Session.report) ~skip_writer =
    Array.to_list report.Session.results
    |> List.filter (fun (r : Session.session_result) ->
           not (skip_writer && r.Session.id = 0))
    |> List.fold_left
         (fun acc (r : Session.session_result) -> acc + r.Session.errors)
         0
  in
  let solo =
    Session.run ~concurrent:true (fresh ()) ~sessions:readers
      ~script:(fun _ -> reader_trace)
  in
  let db = fresh () in
  let mixed =
    Session.run ~concurrent:true db ~sessions:(readers + 1)
      ~script:(fun i -> if i = 0 then writer_trace else reader_trace)
  in
  let stats = Engine.metrics db in
  let solo_p50 = percentile 0.50 solo ~skip_writer:false
  and solo_p99 = percentile 0.99 solo ~skip_writer:false
  and with_p50 = percentile 0.50 mixed ~skip_writer:true
  and with_p99 = percentile 0.99 mixed ~skip_writer:true in
  let errors = reader_errors mixed ~skip_writer:true in
  Format.printf
    "%d snapshot readers (%d txns each): solo p50 %.3f ms p99 %.3f ms@.  \
     with concurrent writer: p50 %.3f ms p99 %.3f ms (reader errors %d)@.  \
     writer: %d committed, %d conflicts@."
    readers rounds solo_p50 solo_p99 with_p50 with_p99 errors
    (closed stats "committed") (closed stats "conflict");
  record ~section:"transactions" ~query:"readers-solo"
    [
      ("sessions", Json.Int readers);
      ("txns_per_session", Json.Int rounds);
      ("p50_ms", Json.Float solo_p50);
      ("p99_ms", Json.Float solo_p99);
      ("qps", Json.Float solo.Session.qps);
    ];
  record ~section:"transactions" ~query:"readers-writer"
    [
      ("sessions", Json.Int (readers + 1));
      ("txns_per_session", Json.Int rounds);
      ("p50_ms", Json.Float with_p50);
      ("p99_ms", Json.Float with_p99);
      ("solo_p99_ms", Json.Float solo_p99);
      ( "p99_ratio",
        Json.Float (if solo_p99 > 0. then with_p99 /. solo_p99 else 0.) );
      ("writer_conflicts", Json.Int (closed stats "conflict"));
    ];
  (* two writers race on one table: first-committer-wins means begun
     transactions partition exactly into committed + conflicted *)
  let db = fresh () in
  let writer_script i =
    List.concat
      (List.init rounds (fun k ->
           [
             "begin";
             Printf.sprintf "insert into acct values (%d, %d)"
               (50_000 + (1000 * i) + k) i;
             "commit";
           ]))
  in
  let race =
    Session.run ~concurrent:true db ~sessions:2 ~script:writer_script
  in
  let m = Engine.metrics db in
  let begun = Metrics.read m "gapply_txn_begun_total" in
  let committed = closed m "committed" and conflicts = closed m "conflict" in
  let accounted = committed + conflicts + closed m "rolled_back" = begun in
  Format.printf
    "two-writer race (%d txns): begun %d = committed %d + conflicts %d \
     (accounted %b)@."
    (2 * rounds) begun committed conflicts accounted;
  record ~section:"transactions" ~query:"writers-conflict"
    [
      ("txns", Json.Int (2 * rounds));
      ("qps", Json.Float race.Session.qps);
    ]

(* ---------- resource governor ---------- *)

(* Two records.  [timeout-abort]: a 50 ms wall-clock budget must abort
   the slow correlated Q2 plan almost immediately with the typed
   timeout error — the CI gate asserts abort_ms < 500.
   [memory-downgrade]: a ceiling between the sort- and hash-partition
   materialization peaks forces the documented hash -> sort downgrade,
   which must still complete. *)
let bench_governor ~msf ~repeat:_ () =
  header (Printf.sprintf "Resource governor (msf %g)" msf);
  (* the correlated plan is quadratic in the outer cardinality, so a
     floor on the scale factor keeps it comfortably past the budget
     even when the sweep runs at a small --msf *)
  let msf' = Float.max msf 4.0 in
  let timeout_ms = 50 in
  let db = Engine.create ~timeout_ms () in
  Engine.load_tpch db ~msf:msf';
  let t0 = Metrics.now_ns () in
  let outcome = Engine.exec db Workloads.q2_correlated in
  let abort_ms = float_of_int (Metrics.now_ns () - t0) /. 1e6 in
  let kind =
    match outcome with
    | Engine.Failed (Errors.Resource_error v) ->
        Errors.resource_kind_to_string v.Errors.kind
    | Engine.Rows _ -> "completed"
    | _ -> "unexpected"
  in
  Format.printf
    "timeout: %d ms budget on correlated Q2 (msf %g) -> %s after %.1f ms \
     wall@."
    timeout_ms msf' kind abort_ms;
  record ~section:"governor" ~query:"timeout-abort"
    [
      ("timeout_ms", Json.Int timeout_ms);
      ("abort_ms", Json.Float abort_ms);
      ("kind", Json.Str kind);
      ("aborted", Json.Bool (kind = "timeout"));
    ];
  let peak ~partition =
    let db = Engine.create ~partition ~mem_limit:max_int () in
    Engine.load_tpch db ~msf;
    ignore (Engine.query db Workloads.q1_gapply);
    Metrics.read (Engine.metrics db) "gapply_governor_peak_bytes"
  in
  let hash_peak = peak ~partition:Compile.Hash_partition in
  let sort_peak = peak ~partition:Compile.Sort_partition in
  let limit = (hash_peak + sort_peak) / 2 in
  let db = Engine.create ~partition:Compile.Hash_partition ~mem_limit:limit () in
  Engine.load_tpch db ~msf;
  let t0 = Metrics.now_ns () in
  let completed =
    match Engine.exec db Workloads.q1_gapply with
    | Engine.Rows _ -> true
    | _ -> false
  in
  let elapsed_ms = float_of_int (Metrics.now_ns () - t0) /. 1e6 in
  let downgrades =
    Metrics.read (Engine.metrics db) "gapply_governor_downgrades_total"
  in
  Format.printf
    "memory: Q1 peaks %d B (hash) vs %d B (sort); ceiling %d B -> %s via \
     %d downgrade(s) in %.1f ms@."
    hash_peak sort_peak limit
    (if completed then "completed" else "failed")
    downgrades elapsed_ms;
  record ~section:"governor" ~query:"memory-downgrade"
    [
      ("hash_peak_bytes", Json.Int hash_peak);
      ("sort_peak_bytes", Json.Int sort_peak);
      ("limit_bytes", Json.Int limit);
      ("downgrades", Json.Int downgrades);
      ("completed", Json.Bool completed);
      ("elapsed_ms", Json.Float elapsed_ms);
    ]

(* ---------- durability (WAL + snapshots + recovery) ---------- *)

(* Three records per concern.  [ingest-*]: the same row-at-a-time INSERT
   workload acknowledged under no-data-dir / off / lazy / strict — the
   cost of the log is the delta; the printed fsync counters show the
   sync policy (strict ~ one fsync per commit, lazy a fraction, off
   none), which `test store` asserts.  [q1..q4]: the read path never
   touches the WAL, so strict-vs-off on Q1-Q4 is the CI-gated "logging
   leaves queries alone" check (< 2x, generous because msf 0.05 timings
   are sub-ms).  [recovery-*]: wall-clock to reopen a directory as the
   WAL grows, and with a snapshot in place of the log (the replay counts
   are printed; `test store` asserts them). *)
let bench_durability ~msf ~repeat () =
  header
    (Printf.sprintf
       "Durability: WAL logging overhead and recovery (msf %g)" msf);
  let dir_counter = ref 0 in
  let fresh_dir () =
    incr dir_counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "gapply_bench_dur_%d_%d" (Unix.getpid ())
           !dir_counter)
    in
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir)
    else Unix.mkdir dir 0o755;
    dir
  in
  let exec_ok db sql =
    match Engine.exec db sql with
    | Engine.Message _ -> ()
    | _ -> failwith ("unexpected outcome for: " ^ sql)
  in
  (* 1. ingest: n acknowledged single-row INSERTs per durability mode *)
  let n = 500 in
  Format.printf "@.Ingest (%d row-at-a-time INSERTs):@." n;
  Format.printf "%-10s %12s %10s %9s %8s %10s@." "mode" "elapsed (ms)"
    "rows/s" "appends" "fsyncs" "batch";
  List.iter
    (fun (label, make) ->
      let last_stats = ref None in
      let t =
        time_runs ~repeat (fun () ->
            let db = make () in
            exec_ok db "create table ingest (a int, b varchar)";
            for i = 1 to n do
              exec_ok db
                (Printf.sprintf "insert into ingest values (%d, 'row-%d')" i
                   i)
            done;
            last_stats := Engine.wal_stats db;
            Engine.close db;
            0)
      in
      let appends, fsyncs, batch =
        match !last_stats with
        | Some s ->
            (s.Wal_stats.appends, s.Wal_stats.fsyncs, Wal_stats.mean_batch s)
        | None -> (0, 0, 0.)
      in
      Format.printf "%-10s %12.1f %10.0f %9d %8d %10.1f@." label (ms t)
        (float_of_int n /. t) appends fsyncs batch;
      record ~section:"durability" ~query:("ingest-" ^ label)
        [
          ("elapsed_ms", Json.Float (ms t));
          ("rows_per_s", Json.Float (float_of_int n /. t));
          ("mean_batch", Json.Float batch);
        ])
    [
      ("memory", fun () -> Engine.create ());
      ( "off",
        fun () ->
          Engine.create ~data_dir:(fresh_dir ()) ~durability:Store.Off () );
      ( "lazy",
        fun () ->
          Engine.create ~data_dir:(fresh_dir ()) ~durability:Store.Lazy () );
      ( "strict",
        fun () ->
          Engine.create ~data_dir:(fresh_dir ()) ~durability:Store.Strict ()
      );
    ];
  (* 2. read path: Q1-Q4 on a strict-durability engine vs durability off
     — queries never touch the WAL, so these must track each other (the
     CI gate allows 2x plus a small absolute slack for timer noise) *)
  let repeat' = max repeat 3 in
  let durable mode =
    let db = Engine.create ~data_dir:(fresh_dir ()) ~durability:mode () in
    Engine.load_tpch db ~msf;
    db
  in
  let strict = durable Store.Strict in
  let off = durable Store.Off in
  Format.printf "@.Query overhead (read path, strict vs off):@.";
  Format.printf "%-4s %12s %12s %10s@." "" "off (ms)" "strict (ms)"
    "overhead";
  List.iter
    (fun (name, src, _) ->
      let t_off = time_runs ~repeat:repeat' (fun () -> Engine.query off src) in
      let t_strict =
        time_runs ~repeat:repeat' (fun () -> Engine.query strict src)
      in
      Format.printf "%-4s %12.2f %12.2f %9.2fx@." name (ms t_off)
        (ms t_strict) (t_strict /. t_off);
      record ~section:"durability" ~query:name
        [
          ("off_ms", Json.Float (ms t_off));
          ("strict_ms", Json.Float (ms t_strict));
          ("overhead", Json.Float (t_strict /. t_off));
        ])
    Workloads.figure8_queries;
  Engine.close strict;
  Engine.close off;
  (* 3. recovery: reopen time as the WAL grows, then with a snapshot
     standing in for the whole log *)
  Format.printf "@.Recovery (reopen a data directory):@.";
  Format.printf "%-18s %10s %10s %12s %10s@." "" "records" "replayed"
    "recover (ms)" "snapshot";
  let build k ~checkpoint =
    let dir = fresh_dir () in
    let db = Engine.create ~data_dir:dir ~durability:Store.Lazy () in
    exec_ok db "create table r (a int, b varchar)";
    for i = 1 to k do
      exec_ok db
        (Printf.sprintf "insert into r values (%d, 'payload-%d')" i i)
    done;
    if checkpoint then ignore (Engine.checkpoint db);
    Engine.close db;
    dir
  in
  let recover_once label k ~checkpoint =
    let dir = build k ~checkpoint in
    let t0 = Metrics.now_ns () in
    let db = Engine.create ~data_dir:dir () in
    let recover_ms = float_of_int (Metrics.now_ns () - t0) /. 1e6 in
    let replayed, snapshot_loaded =
      match Engine.recovery_outcome db with
      | Some o -> (o.Recovery.replayed, o.Recovery.snapshot_loaded)
      | None -> (0, false)
    in
    Engine.close db;
    Format.printf "%-18s %10d %10d %12.1f %10b@." label (k + 1) replayed
      recover_ms snapshot_loaded;
    record ~section:"durability" ~query:label
      [ ("recover_ms", Json.Float recover_ms) ]
  in
  List.iter
    (fun k -> recover_once (Printf.sprintf "recovery-%d" k) k ~checkpoint:false)
    [ 100; 400; 1600 ];
  recover_once "recovery-snapshot" 1600 ~checkpoint:true;
  Format.printf
    "@.(strict acknowledges after the commit fsync; lazy group-commits \
     every 64 records; off never touches the WAL — recovery replays the \
     log suffix past the newest snapshot)@."

(* ---------- Bechamel micro-benchmarks ---------- *)

let bench_micro () =
  header "Bechamel micro-benchmarks (ns/run, monotonic clock)";
  let cat = Tpch_gen.catalog ~msf:0.2 () in
  let compiled src =
    let plan = optimize cat (bind cat src) in
    let c = Compile.plan plan in
    fun () -> Cursor.length (c.Compile.run (Env.make cat))
  in
  let open Bechamel in
  let test_of (name, src) =
    Test.make ~name (Staged.stage (compiled src))
  in
  let tests =
    List.map test_of
      [
        ("q1-gapply", Workloads.q1_gapply);
        ("q1-baseline", Workloads.q1_baseline);
        ("q2-gapply", Workloads.q2_gapply);
        ("q2-baseline", Workloads.q2_baseline);
        ("q4-gapply", Workloads.q4_gapply);
        ("q4-baseline", Workloads.q4_baseline);
        ( "groupby-vs-gapply",
          "select ps_suppkey, avg(p_retailprice) from partsupp, part \
           where ps_partkey = p_partkey group by ps_suppkey" );
      ]
  in
  let grouped = Test.make_grouped ~name:"gapply" ~fmt:"%s/%s" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  List.iter
    (fun (name, est) -> Format.printf "%-28s %14.0f ns/run@." name est)
    (List.sort compare !rows)

(* ---------- vectorized execution ---------- *)

(* Batch-size sweep on warm Q1: the optimized plan is compiled once per
   size and run through [Executor.run_compiled], so parse/bind/optimize/
   compile stay out of the measurement.  Samples are interleaved
   round-robin across the sizes so they see identical heap / clock
   drift, and each size reports its median (GC work is part of what a
   size costs, so a minimum would flatter the allocation-heavy ones).
   The sweep is what justifies [Batch.default_size]; the CI gate holds
   128 within 1.25x of the fastest size.  Then a dictionary-encoding
   A/B.  Runs at a floor of msf 0.5 — sub-millisecond runs at tiny
   scale factors drown the comparison in noise. *)
let bench_vectorized ~msf ~repeat () =
  let msf = Float.max msf 0.5
  and repeat = max repeat 5 in
  header
    (Printf.sprintf "Vectorized execution: batch-size sweep on warm Q1 \
                     (msf %g)" msf);
  let sizes = [| 64; 128; 256; 1024 |] in
  let rounds = max (3 * repeat) 21 in
  let cat = Tpch_gen.catalog ~msf () in
  let plan = optimize cat (bind cat Workloads.q1_gapply) in
  let compiled =
    Array.map
      (fun batch_size ->
        Compile.plan ~config:(Compile.config_with ~batch_size ()) plan)
      sizes
  in
  Array.iter (fun c -> ignore (Executor.run_compiled cat c)) compiled;
  Gc.compact ();
  let medians =
    time_interleaved ~repeat:rounds
      (Array.map (fun c () -> Executor.run_compiled cat c) compiled)
  in
  let fastest = Array.fold_left Float.min infinity medians in
  Format.printf "%-12s %14s %12s@." "batch size" "warm Q1 (ms)" "vs fastest";
  Array.iteri
    (fun i batch_size ->
      let t = medians.(i) in
      Format.printf "%-12d %14.2f %11.2fx@." batch_size (ms t) (t /. fastest);
      record ~section:"vectorized"
        ~query:(Printf.sprintf "q1-batch-%d" batch_size)
        [
          ("batch_size", Json.Int batch_size);
          ("warm_ms", Json.Float (ms t));
          ("vs_fastest", Json.Float (t /. fastest));
        ])
    sizes;
  (* dictionary A/B: identical engines except for the encoding gate *)
  Format.printf "@.Dictionary encoding A/B (warm Q1):@.";
  let warm_q1 () =
    let db = Engine.create () in
    Engine.load_tpch db ~msf;
    ignore (Engine.query db Workloads.q1_gapply);
    time_runs ~repeat (fun () -> Engine.query db Workloads.q1_gapply)
  in
  let was = Dict.enabled () in
  let t_dict, t_plain =
    Fun.protect
      ~finally:(fun () -> Dict.set_enabled was)
      (fun () ->
        Dict.set_enabled true;
        let t_dict = warm_q1 () in
        Dict.set_enabled false;
        let t_plain = warm_q1 () in
        (t_dict, t_plain))
  in
  Format.printf "dict on %.2f ms   dict off %.2f ms   ratio %.2fx@."
    (ms t_dict) (ms t_plain) (t_plain /. t_dict);
  record ~section:"vectorized" ~query:"q1-dict-ab"
    [
      ("dict_on_ms", Json.Float (ms t_dict));
      ("dict_off_ms", Json.Float (ms t_plain));
      ("speedup", Json.Float (t_plain /. t_dict));
    ]

(* ---------- section: network server (open-loop admission) ---------- *)

(* Open-loop load against a real loopback server: requests fire on a
   fixed schedule regardless of completions (each driver thread owns an
   interleaved slice of the schedule), so queueing delay lands in the
   measured latencies instead of silently throttling the offered rate —
   the coordinated-omission trap a closed-loop driver falls into.
   Latency is send-to-response on the wire; percentiles cover admitted
   statements only, sheds are counted separately.  One run below
   measured capacity (shedding must not engage) and one at 2x capacity
   (typed sheds must engage while admitted latency stays bounded by the
   admission deadline plus service time). *)

let bench_server ~msf ~repeat:_ () =
  (* a deliberately heavy statement keeps capacity at tens of
     statements/s, so 2x overload is reachable from a handful of driver
     threads; cap the scale so full-msf runs stay bounded *)
  let msf = Float.min msf 0.2 in
  Format.printf "@.=== Network server: open-loop admission (msf %g) ===@." msf;
  let stmt = "select count(*) as n from lineitem l1, lineitem l2" in
  let admission_timeout_ms = 1000 in
  let cfg =
    {
      Server.host = "127.0.0.1";
      port = 0;
      acceptors = 2;
      max_concurrent = 4;
      queue_depth = 16;
      admission_timeout_ms;
      per_client_cap = 0;
      idle_timeout_ms = 0;
      http_port = None;
    }
  in
  let db = Engine.create () in
  Engine.load_tpch db ~msf;
  let srv = Server.start cfg db in
  let port = Server.port srv in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Engine.close db)
    (fun () ->
      let query_once c =
        match Net_client.query c stmt with
        | Wire.Rows _ -> `Ok
        | Wire.Overloaded _ -> `Shed
        | _ -> `Failed
      in
      (* closed-loop capacity probe: gate-many workers back to back *)
      let capacity_qps =
        let per_worker = 4 in
        let completed = Atomic.make 0 in
        let t0 = Metrics.now_ns () in
        let ts =
          List.init cfg.Server.max_concurrent (fun _ ->
              Thread.create
                (fun () ->
                  let c = Net_client.connect ~port () in
                  for _ = 1 to per_worker do
                    match query_once c with
                    | `Ok -> Atomic.incr completed
                    | _ -> ()
                  done;
                  ignore (Net_client.quit c))
                ())
        in
        List.iter Thread.join ts;
        let dt = float_of_int (Metrics.now_ns () - t0) /. 1e9 in
        float_of_int (Atomic.get completed) /. dt
      in
      Format.printf "capacity (closed loop, %d workers): %.1f statements/s@."
        cfg.Server.max_concurrent capacity_qps;
      let open_loop ~rate ~n ~workers =
        let mu = Mutex.create () in
        let admitted = ref [] and sheds = ref 0 and failed = ref 0 in
        let t0 = Metrics.now_ns () in
        let fire i c =
          let sched = t0 + int_of_float (float_of_int i /. rate *. 1e9) in
          let rec hold () =
            let now = Metrics.now_ns () in
            if now < sched then begin
              Unix.sleepf
                (Float.min 0.01 (float_of_int (sched - now) /. 1e9));
              hold ()
            end
          in
          hold ();
          let t = Metrics.now_ns () in
          let r = query_once c in
          let lat_ms = float_of_int (Metrics.now_ns () - t) /. 1e6 in
          Mutex.protect mu (fun () ->
              match r with
              | `Ok -> admitted := lat_ms :: !admitted
              | `Shed -> incr sheds
              | `Failed -> incr failed)
        in
        let ts =
          List.init workers (fun w ->
              Thread.create
                (fun () ->
                  let c = Net_client.connect ~port () in
                  let i = ref w in
                  while !i < n do
                    fire !i c;
                    i := !i + workers
                  done;
                  ignore (Net_client.quit c))
                ())
        in
        List.iter Thread.join ts;
        let lats = Array.of_list !admitted in
        Array.sort compare lats;
        let pct p =
          if Array.length lats = 0 then Float.nan
          else
            lats.(Int.min
                    (Array.length lats - 1)
                    (int_of_float (p *. float_of_int (Array.length lats))))
        in
        (Array.length lats, pct, !sheds, !failed)
      in
      let run label rate n =
        (* enough driver threads that offered in-flight load can exceed
           gate + queue — otherwise the drivers themselves throttle the
           open loop and shedding never engages *)
        let workers = cfg.Server.max_concurrent + cfg.Server.queue_depth + 12 in
        let adm, pct, sheds, failed = open_loop ~rate ~n ~workers in
        Format.printf
          "%-14s offered %6.1f/s  admitted %3d  shed %3d  p50 %7.1f ms  \
           p99 %7.1f ms  p99.9 %7.1f ms@."
          label rate adm sheds (pct 0.50) (pct 0.99) (pct 0.999);
        record ~section:"server" ~query:label
          [
            ("offered_qps", Json.Float rate);
            ("capacity_qps", Json.Float capacity_qps);
            ("requests", Json.Int n);
            ("admitted", Json.Int adm);
            ("shed", Json.Int sheds);
            ("failed", Json.Int failed);
            ("shed_rate", Json.Float (float_of_int sheds /. float_of_int n));
            ("p50_ms", Json.Float (pct 0.50));
            ("p99_ms", Json.Float (pct 0.99));
            ("p999_ms", Json.Float (pct 0.999));
            ("max_concurrent", Json.Int cfg.Server.max_concurrent);
            ("queue_depth", Json.Int cfg.Server.queue_depth);
            ("admission_timeout_ms", Json.Int admission_timeout_ms);
          ]
      in
      run "open-loop-0.5x" (0.5 *. capacity_qps) 24;
      run "open-loop-2x" (2.0 *. capacity_qps) 96;
      Format.printf "server counters: %s@."
        (Metrics.line (Engine.metrics db)
           [ "gapply_connections_"; "gapply_statements_" ]))

(* ---------- replication: apply lag, catch-up, failover ---------- *)

(* Workload: a primary ingesting acknowledged single-row INSERTs under
   strict durability while a live replica applies the shipped WAL over
   loopback.  Reported: steady-state apply lag sampled from the
   replica's position gauges (primary-WAL bytes), wall-clock catch-up
   after the last acknowledgement, applied commit units per second, and
   a failover at the end — primary killed after convergence, replica
   promoted — with the count of acknowledged rows missing on the new
   primary.  Convergence and zero loss are asserted by `test repl`; CI
   gates only the catch-up and lag timings. *)
let bench_replication ~msf:_ ~repeat:_ () =
  Format.printf "@.=== Replication: apply lag and failover ===@.";
  let fresh_dir tag =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "gapply_bench_repl_%s_%d" tag (Unix.getpid ()))
    in
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir)
    else Unix.mkdir dir 0o755;
    dir
  in
  let exec_ok db sql =
    match Engine.exec db sql with
    | Engine.Message _ -> ()
    | _ -> failwith ("unexpected outcome for: " ^ sql)
  in
  let n = 1500 in
  let pdb =
    Engine.create ~data_dir:(fresh_dir "p") ~durability:Store.Strict ()
  in
  let cfg =
    {
      Server.host = "127.0.0.1";
      port = 0;
      acceptors = 2;
      max_concurrent = 4;
      queue_depth = 16;
      admission_timeout_ms = 1000;
      per_client_cap = 0;
      idle_timeout_ms = 0;
      http_port = None;
    }
  in
  let srv = Server.start cfg pdb in
  let rdb =
    Engine.create ~data_dir:(fresh_dir "r") ~durability:Store.Strict ()
  in
  let rep =
    Repl.start_replica ~host:"127.0.0.1" ~port:(Server.port srv) rdb
  in
  exec_ok pdb "create table ingest (a int, b varchar)";
  let lag_samples = ref [] in
  let t0 = Metrics.now_ns () in
  for i = 1 to n do
    exec_ok pdb (Printf.sprintf "insert into ingest values (%d, 'row-%d')" i i);
    if i mod 25 = 0 then
      lag_samples :=
        Repl_stats.lag_bytes (Repl.replica_stats rep)
        :: !lag_samples
  done;
  let ingest_ms = float_of_int (Metrics.now_ns () - t0) /. 1e6 in
  (* catch-up: wall-clock from the last acknowledgement to position
     parity with the primary's durable WAL end *)
  let t1 = Metrics.now_ns () in
  let deadline = t1 + 60_000_000_000 in
  while
    Repl.replica_position rep <> Some (Engine.repl_position pdb)
    && Metrics.now_ns () < deadline
  do
    Thread.delay 0.001
  done;
  let caught_up =
    Repl.replica_position rep = Some (Engine.repl_position pdb)
  in
  let catchup_ms = float_of_int (Metrics.now_ns () - t1) /. 1e6 in
  let rs = Repl.replica_stats rep in
  let lags = Array.of_list !lag_samples in
  Array.sort compare lags;
  let pct p =
    if Array.length lags = 0 then 0
    else
      lags.(Int.min
              (Array.length lags - 1)
              (int_of_float (p *. float_of_int (Array.length lags))))
  in
  let lag_max = if Array.length lags = 0 then 0 else lags.(Array.length lags - 1)
  in
  let applied_per_sec =
    float_of_int (Metrics.get rs.Repl_stats.units_applied)
    /. (float_of_int (Metrics.now_ns () - t0) /. 1e9)
  in
  Format.printf
    "ingest: %d acked rows in %.0f ms; lag p50 %d B p90 %d B max %d B; \
     catch-up %.1f ms%s; %.0f units/s applied@."
    n ingest_ms (pct 0.5) (pct 0.9) lag_max catchup_ms
    (if caught_up then "" else " (NOT CONVERGED)")
    applied_per_sec;
  record ~section:"replication" ~query:"steady-state"
    [
      ("rows", Json.Int n);
      ("ingest_ms", Json.Float ingest_ms);
      ("lag_p50_bytes", Json.Int (pct 0.5));
      ("lag_p90_bytes", Json.Int (pct 0.9));
      ("lag_max_bytes", Json.Int lag_max);
      ("catchup_ms", Json.Float catchup_ms);
      ("converged", Json.Bool caught_up);
      ("applied_units_per_sec", Json.Float applied_per_sec);
      ("snapshots_installed", Json.Int (Metrics.get rs.Repl_stats.snapshots_installed));
      ("reconnects", Json.Int (Metrics.get rs.Repl_stats.reconnects));
      ("torn_detected", Json.Int (Metrics.get rs.Repl_stats.torn_detected));
    ];
  (* failover: kill the primary for good, promote the replica, count
     the acknowledged rows that survived *)
  Server.stop srv;
  Engine.close pdb;
  Repl.promote rep;
  let survivors =
    match Engine.exec rdb "select a from ingest" with
    | Engine.Rows r -> Relation.cardinality r
    | _ -> -1
  in
  let lost = n - survivors in
  exec_ok rdb "insert into ingest values (0, 'post-failover')";
  Format.printf
    "failover: %d/%d acked rows on the promoted replica (%d lost); \
     post-promote write ok@."
    survivors n lost;
  record ~section:"replication" ~query:"failover"
    [
      ("acked_rows", Json.Int n);
      ("replicated_rows", Json.Int survivors);
      ("lost_rows", Json.Int lost);
    ];
  Engine.close rdb

(* ---------- driver ---------- *)

let all_sections =
  [
    "figure8"; "table1"; "partitioning"; "parallel"; "clientsim";
    "pipeline"; "render"; "ablation"; "analyze"; "throughput";
    "transactions"; "governor"; "durability"; "vectorized"; "server";
    "replication"; "micro";
  ]

let run_section ~msf ~repeat = function
  | "figure8" -> bench_figure8 ~msf ~repeat ()
  | "table1" -> bench_table1 ~msf ~repeat ()
  | "partitioning" -> bench_partitioning ~msf ~repeat ()
  | "parallel" -> bench_parallel ~msf ~repeat ()
  | "clientsim" -> bench_clientsim ~msf ~repeat ()
  | "pipeline" -> bench_pipeline ~msf ~repeat ()
  | "render" -> bench_render ~msf ~repeat ()
  | "ablation" -> bench_ablation ~msf ~repeat ()
  | "analyze" -> bench_analyze ~msf ~repeat ()
  | "throughput" -> bench_throughput ~msf ~repeat ()
  | "transactions" -> bench_transactions ~msf ~repeat ()
  | "governor" -> bench_governor ~msf ~repeat ()
  | "durability" -> bench_durability ~msf ~repeat ()
  | "vectorized" -> bench_vectorized ~msf ~repeat ()
  | "server" -> bench_server ~msf ~repeat ()
  | "replication" -> bench_replication ~msf ~repeat ()
  | "micro" -> bench_micro ()
  | other ->
      Format.eprintf "unknown section %s (known: %s)@." other
        (String.concat ", " all_sections);
      exit 2

let () =
  let msf = ref default_msf in
  let repeat = ref default_repeat in
  let json_path = ref None in
  let sections = ref [] in
  let rec parse = function
    | [] -> ()
    | "--msf" :: v :: rest ->
        msf := float_of_string v;
        parse rest
    | "--repeat" :: v :: rest ->
        repeat := int_of_string v;
        parse rest
    | "--json" :: v :: rest ->
        json_path := Some v;
        parse rest
    | section :: rest ->
        sections := section :: !sections;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let sections =
    match List.rev !sections with [] -> all_sections | s -> s
  in
  Format.printf
    "GApply reproduction benchmarks — msf %g, %d repetition(s), median \
     reported@."
    !msf !repeat;
  List.iter (run_section ~msf:!msf ~repeat:!repeat) sections;
  match !json_path with
  | Some path -> write_json ~msf:!msf ~repeat:!repeat path
  | None -> ()
