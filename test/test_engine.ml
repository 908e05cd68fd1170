(* Tests for the TPC-H generator, the Engine facade, the paper workloads
   (on generated data), and the Section 5.1 client-side simulation. *)

open Support

let db_small =
  lazy
    (let db = Engine.create () in
     Engine.load_tpch db ~msf:0.1;
     db)

(* ---------- generator ---------- *)

let test_tpch_determinism () =
  let c1 = Tpch_gen.catalog ~msf:0.1 () in
  let c2 = Tpch_gen.catalog ~msf:0.1 () in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " deterministic")
        true
        (Relation.equal_as_list
           (Table.to_relation (Catalog.find_table c1 name))
           (Table.to_relation (Catalog.find_table c2 name))))
    [ "supplier"; "part"; "partsupp" ]

let test_tpch_cardinalities () =
  let cat = Tpch_gen.catalog ~msf:1.0 () in
  Alcotest.(check int) "suppliers" 100
    (Table.cardinality (Catalog.find_table cat "supplier"));
  Alcotest.(check int) "parts" 2000
    (Table.cardinality (Catalog.find_table cat "part"));
  Alcotest.(check int) "partsupp" 8000
    (Table.cardinality (Catalog.find_table cat "partsupp"))

let test_tpch_referential_integrity () =
  let cat = Tpch_gen.catalog ~msf:0.2 () in
  let suppliers =
    List.map
      (fun row -> Tuple.get row 0)
      (Table.rows (Catalog.find_table cat "supplier"))
  in
  let parts =
    List.map
      (fun row -> Tuple.get row 0)
      (Table.rows (Catalog.find_table cat "part"))
  in
  Table.iter
    (fun row ->
      let s = Tuple.get row 0 and p = Tuple.get row 1 in
      if not (List.exists (Value.equal_total s) suppliers) then
        Alcotest.failf "dangling supplier key %s" (Value.to_string s);
      if not (List.exists (Value.equal_total p) parts) then
        Alcotest.failf "dangling part key %s" (Value.to_string p))
    (Catalog.find_table cat "partsupp")

let test_tpch_group_structure () =
  (* every part has exactly [suppliers_per_part] distinct suppliers *)
  let cat = Tpch_gen.catalog ~msf:0.5 () in
  let db = Engine.create () in
  ignore db;
  let counts = Hashtbl.create 64 in
  Table.iter
    (fun row ->
      let p = Tuple.get row 1 in
      Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p)))
    (Catalog.find_table cat "partsupp");
  Hashtbl.iter
    (fun _ n -> Alcotest.(check int) "4 suppliers per part" 4 n)
    counts

let test_tpch_price_formula () =
  (* (90000 + ((k/10) mod 20001) + 100 * (k mod 1000)) / 100 *)
  Alcotest.(check (float 0.001)) "price of part 1" 901.
    (Tpch_gen.retail_price 1);
  Alcotest.(check (float 0.001)) "price of part 25" 925.02
    (Tpch_gen.retail_price 25);
  Alcotest.(check (float 0.001)) "price of part 1000" 901.
    (Tpch_gen.retail_price 1000)

(* ---------- engine facade ---------- *)

let test_engine_ddl_and_query () =
  let db = Engine.create () in
  (match Engine.exec db "create table t (a int)" with
  | Engine.Message m ->
      Alcotest.(check string) "ddl message" "created table t" m
  | _ -> Alcotest.fail "expected a message");
  ignore (Engine.exec db "insert into t values (1), (2)");
  let r = Engine.query db "select a from t order by a desc" in
  check_rows "engine query" [ [ vi 2 ]; [ vi 1 ] ] r

let test_engine_explain () =
  let db = Lazy.force db_small in
  let contains ~needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1))
    in
    go 0
  in
  match Engine.exec db ("explain " ^ Workloads.q2_gapply) with
  | Engine.Explanation text ->
      Alcotest.(check bool) "mentions gapply" true
        (contains ~needle:"gapply" text)
  | _ -> Alcotest.fail "expected an explanation"

let test_engine_optimizer_toggle () =
  let db = Lazy.force db_small in
  Engine.set_optimize db false;
  let r1 = Engine.query db Workloads.q2_gapply in
  Engine.set_optimize db true;
  let r2 = Engine.query db Workloads.q2_gapply in
  check_rel "optimize on/off agree" r1 r2

let test_engine_partition_toggle () =
  let db = Lazy.force db_small in
  Engine.set_partition_strategy db Compile.Sort_partition;
  let r1 = Engine.query db Workloads.q1_gapply in
  Engine.set_partition_strategy db Compile.Hash_partition;
  let r2 = Engine.query db Workloads.q1_gapply in
  check_rel "partition strategies agree" r1 r2

(* ---------- the paper's workloads on generated data ---------- *)

let strip_order_by (r : Relation.t) = r

let test_workloads_agree_on_tpch () =
  let db = Lazy.force db_small in
  List.iter
    (fun (name, gapply_q, baseline_q) ->
      let with_g = Engine.query db gapply_q in
      let without = Engine.query db baseline_q in
      Alcotest.(check bool)
        (name ^ ": formulations agree on generated data")
        true
        (Relation.equal_as_multiset (strip_order_by with_g)
           (strip_order_by without)))
    (Workloads.figure8_queries @ Workloads.figure8_correlated)

let test_rule_sweep_queries_run () =
  let db = Lazy.force db_small in
  List.iter
    (fun (_, rule, instances) ->
      List.iter
        (fun (label, src) ->
          let plan = Engine.plan_of_sql db src in
          let base = Reference.run (Engine.catalog db) plan in
          (* force the rule: results must not change *)
          match Optimizer.force_rule rule (Engine.catalog db) plan with
          | None ->
              Alcotest.failf "rule %s did not fire on %s (%s)" rule label src
          | Some plan' ->
              Alcotest.(check bool)
                (rule ^ " preserves results on " ^ label)
                true
                (Relation.equal_as_multiset base
                   (Executor.run (Engine.catalog db) plan')))
        instances)
    (Workloads.table1_sweeps ())

(* ---------- \stats report ---------- *)

let test_stats_report_smoke () =
  let db = Lazy.force db_small in
  let contains ~needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1))
    in
    go 0
  in
  let report = Engine.stats_report db "supplier" in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report mentions " ^ needle) true
        (contains ~needle report))
    [ "stats(supplier)"; "rows="; "s_suppkey"; "ndv="; "hist:"; "epoch=" ];
  (* the report itself computed fresh statistics, so a second read
     reports the cache as fresh *)
  Alcotest.(check bool) "second read is fresh" true
    (contains ~needle:"fresh" (Engine.stats_report db "supplier"));
  Alcotest.(check bool) "unknown table raises" true
    (try
       ignore (Engine.stats_report db "nope");
       false
     with Errors.Name_error _ -> true)

(* ---------- statements that fail ---------- *)

let test_unknown_column_is_failed () =
  let db = Lazy.force db_small in
  (match Engine.exec db "select nosuch from supplier" with
  | Engine.Failed (Errors.Name_error _) -> ()
  | _ -> Alcotest.fail "expected Failed (Name_error _)");
  (* again, now that the plan cache has seen the text *)
  match Engine.exec db "select nosuch from supplier" with
  | Engine.Failed (Errors.Name_error _) -> ()
  | _ -> Alcotest.fail "expected Failed (Name_error _) on the second run"

let test_script_continues_after_failure () =
  let db = Lazy.force db_small in
  match
    Engine.exec_script db
      "select nosuch from supplier; select count(*) as n from supplier"
  with
  | [ Engine.Failed (Errors.Name_error _); Engine.Rows r ] ->
      Alcotest.(check int) "the next statement ran" 1 (Relation.cardinality r)
  | _ -> Alcotest.fail "expected [Failed (Name_error _); Rows _]"

(* A statement that does not lex or parse fails alone: parsing resumes
   after its ';'. *)
let test_script_survives_syntax_error () =
  let db = Lazy.force db_small in
  List.iter
    (fun bad ->
      match
        Engine.exec_script db
          (Printf.sprintf
             "select count(*) as n from supplier; %s; select count(*) as m \
              from partsupp;"
             bad)
      with
      | [ Engine.Rows _; Engine.Failed (Errors.Parse_error _); Engine.Rows r ] ->
          Alcotest.(check int) (bad ^ ": the next statement ran") 1
            (Relation.cardinality r)
      | outcomes ->
          Alcotest.failf
            "%s: expected [Rows; Failed (Parse_error _); Rows], got %d outcomes"
            bad (List.length outcomes))
    [ "selec oops"; "select @ from supplier"; "select (1 from supplier" ];
  (* A statement with trailing input fails whole: none of it runs. *)
  let db = Engine.create () in
  ignore
    (Engine.exec_script db
       "create table t (a int); insert into t values (7);");
  List.iter
    (fun bad ->
      (match Engine.exec_script db (bad ^ "; select a from t;") with
      | [ Engine.Failed (Errors.Parse_error _); Engine.Rows _ ] -> ()
      | outcomes ->
          Alcotest.failf "%s: expected [Failed (Parse_error _); Rows], got %d \
                          outcomes"
            bad (List.length outcomes));
      let r = Engine.query db "select a from t" in
      Alcotest.(check (list string))
        (bad ^ ": t and its rows are unchanged")
        [ "7" ]
        (List.map
           (fun row -> Value.to_string (Tuple.get row 0))
           (Relation.rows r)))
    [ "drop table t cascade"; "insert into t values (1) (2)" ]

(* An EXPLAIN that does not bind is a Failed outcome too. *)
let test_script_survives_explain_bind_error () =
  let db = Lazy.force db_small in
  match
    Engine.exec_script db
      "explain select nosuch from supplier; select count(*) as n from supplier"
  with
  | [ Engine.Failed (Errors.Name_error _); Engine.Rows r ] ->
      Alcotest.(check int) "the next statement ran" 1 (Relation.cardinality r)
  | _ -> Alcotest.fail "expected [Failed (Name_error _); Rows _]"

(* The shell's script mode prints the error and runs the rest. *)
let test_cli_script_continues () =
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat Filename.parent_dir_name "bin/gapply_cli.exe")
  in
  if not (Sys.file_exists exe) then Alcotest.failf "%s is not built" exe;
  let script = Filename.temp_file "gapply_cli" ".sql" in
  let out = Filename.temp_file "gapply_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove script; Sys.remove out)
    (fun () ->
      Out_channel.with_open_text script (fun oc ->
          output_string oc
            "select nosuch from supplier;\n\
             select count(*) as n from supplier;\n\
             selec oops;\n\
             select 1 as x from supplier;\n");
      let code =
        Sys.command
          (Printf.sprintf "%s --tpch 0.02 -f %s > %s 2>&1"
             (Filename.quote exe) (Filename.quote script) (Filename.quote out))
      in
      let text = In_channel.with_open_text out In_channel.input_all in
      Alcotest.(check int) ("exit code; output:\n" ^ text) 0 code;
      Alcotest.(check bool) "prints the error" true
        (contains text "error: name error: unknown column nosuch");
      Alcotest.(check bool) "runs the next statement" true
        (contains text "(1 row(s))");
      Alcotest.(check bool) "prints the syntax error" true
        (contains text "expected SELECT");
      Alcotest.(check bool) "runs the statement after it" true
        (contains text "| x |" && contains text "(2 row(s))"))

(* ---------- client-side simulation ---------- *)

let test_client_sim_matches_native () =
  let db = Lazy.force db_small in
  let plan = Engine.plan_of_sql db Workloads.q4_gapply in
  (* find the GApply node (the top node for this query) *)
  let native = Engine.run_plan db plan in
  let simulated, timings = Client_sim.run (Engine.catalog db) plan in
  check_rel "client simulation matches native GApply" native simulated;
  Alcotest.(check bool) "timings are non-negative" true
    (timings.Client_sim.outer_time >= 0.
    && timings.Client_sim.partition_time >= 0.
    && timings.Client_sim.execute_time >= 0.)

let test_client_sim_rejects_non_gapply () =
  let db = Lazy.force db_small in
  let plan = Engine.plan_of_sql db "select s_name from supplier" in
  Alcotest.(check bool) "raises on non-gapply" true
    (try
       ignore (Client_sim.run (Engine.catalog db) plan);
       false
     with Errors.Plan_error _ -> true)

let suite =
  [
    Alcotest.test_case "tpch generator is deterministic" `Quick
      test_tpch_determinism;
    Alcotest.test_case "tpch cardinalities" `Quick test_tpch_cardinalities;
    Alcotest.test_case "tpch referential integrity" `Quick
      test_tpch_referential_integrity;
    Alcotest.test_case "tpch group structure" `Quick test_tpch_group_structure;
    Alcotest.test_case "tpch price formula" `Quick test_tpch_price_formula;
    Alcotest.test_case "engine DDL + query" `Quick test_engine_ddl_and_query;
    Alcotest.test_case "engine explain" `Quick test_engine_explain;
    Alcotest.test_case "engine optimizer toggle" `Quick
      test_engine_optimizer_toggle;
    Alcotest.test_case "engine partition toggle" `Quick
      test_engine_partition_toggle;
    Alcotest.test_case "figure-8 workloads agree" `Quick
      test_workloads_agree_on_tpch;
    Alcotest.test_case "table-1 sweeps fire and preserve results" `Quick
      test_rule_sweep_queries_run;
    Alcotest.test_case "stats report smoke" `Quick test_stats_report_smoke;
    Alcotest.test_case "unknown column is a Failed outcome" `Quick
      test_unknown_column_is_failed;
    Alcotest.test_case "script runs on after a failed statement" `Quick
      test_script_continues_after_failure;
    Alcotest.test_case "script runs on after a syntax error" `Quick
      test_script_survives_syntax_error;
    Alcotest.test_case "script runs on after an EXPLAIN bind error" `Quick
      test_script_survives_explain_bind_error;
    Alcotest.test_case "shell script mode runs on after an error" `Quick
      test_cli_script_continues;
    Alcotest.test_case "client-side simulation matches native" `Quick
      test_client_sim_matches_native;
    Alcotest.test_case "client-side simulation rejects non-gapply" `Quick
      test_client_sim_rejects_non_gapply;
  ]
