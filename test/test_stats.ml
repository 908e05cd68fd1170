(* Statistics layer: equi-depth histogram invariants, NDV error across
   the exact/sketch switchover, exactly-once lazy refresh against the
   catalog's stats epoch, and row-count conservation between the stats
   cache, the table, and both cursor-drain accounting paths. *)

open Support
module Gen = QCheck2.Gen

(* ---------- generators ---------- *)

let stats_schema = schema [ ("a", Datatype.Int); ("b", Datatype.Str) ]

let gen_int_value =
  Gen.frequency
    [ (9, Gen.map vi (Gen.int_range (-50) 50)); (1, Gen.pure vnull) ]

let gen_str_value =
  Gen.frequency
    [
      ( 9,
        Gen.map
          (fun i -> vs (Printf.sprintf "s%02d" i))
          (Gen.int_range 0 30) );
      (1, Gen.pure vnull);
    ]

let gen_relation =
  Gen.map
    (fun rows -> Relation.make stats_schema (List.map row rows))
    (Gen.list_size (Gen.int_range 0 400)
       (Gen.map2 (fun a b -> [ a; b ]) gen_int_value gen_str_value))

(* ---------- equi-depth histogram invariants ---------- *)

let histogram_ok (st : Stats.table_stats) (c : Stats.column_stats) =
  let h = c.Stats.histogram in
  let sum f = Array.fold_left (fun acc b -> acc + f b) 0 h in
  (* bucket rows partition the non-null rows *)
  let rows_ok =
    sum (fun b -> b.Stats.b_rows) = st.Stats.row_count - c.Stats.null_count
  in
  let shape_ok =
    Array.for_all
      (fun b ->
        b.Stats.b_rows >= 1
        && b.Stats.b_distinct >= 1
        && b.Stats.b_distinct <= b.Stats.b_rows
        && Value.compare_total b.Stats.b_lo b.Stats.b_hi <= 0)
      h
  in
  (* a bucket closes only on a value change, so bounds are strictly
     monotone across buckets *)
  let monotone = ref true in
  for i = 0 to Array.length h - 2 do
    if Value.compare_total h.(i).Stats.b_hi h.(i + 1).Stats.b_lo >= 0 then
      monotone := false
  done;
  (* every closed bucket holds at least the target depth, so at most one
     extra bucket beyond the target count can exist *)
  let count_ok = Array.length h <= Stats.histogram_buckets + 1 in
  (* value runs are never split, so with an exact NDV the per-bucket
     distinct counts partition the column's distinct values *)
  let ndv_ok =
    (not c.Stats.ndv_exact)
    || sum (fun b -> b.Stats.b_distinct) = c.Stats.distinct_count
  in
  let extremes_ok =
    Array.length h = 0
    || Value.equal_total c.Stats.min_value h.(0).Stats.b_lo
       && Value.equal_total c.Stats.max_value
            h.(Array.length h - 1).Stats.b_hi
  in
  rows_ok && shape_ok && !monotone && count_ok && ndv_ok && extremes_ok

let prop_histogram_invariants =
  QCheck2.Test.make ~count:300 ~name:"equi-depth histogram invariants"
    gen_relation
    (fun rel ->
      let st = Stats.compute stats_schema rel in
      st.Stats.row_count = Relation.cardinality rel
      && List.for_all (fun (_, c) -> histogram_ok st c) st.Stats.columns)

(* ---------- NDV: exact below the threshold, sketch above ---------- *)

let prop_ndv_exact_below_threshold =
  QCheck2.Test.make ~count:300
    ~name:"NDV below threshold is exact (matches sort_uniq)" gen_relation
    (fun rel ->
      let st = Stats.compute stats_schema rel in
      List.for_all
        (fun (i, name) ->
          let vals = ref [] and nulls = ref 0 in
          Relation.iter
            (fun r ->
              let v = Value.canonical (Tuple.get r i) in
              if Value.is_null v then incr nulls else vals := v :: !vals)
            rel;
          let exact =
            List.length (List.sort_uniq Value.compare_total !vals)
          in
          match Stats.column_stats st name with
          | None -> false
          | Some c ->
              c.Stats.ndv_exact
              && c.Stats.distinct_count = exact
              && c.Stats.null_count = !nulls)
        [ (0, "a"); (1, "b") ])

(* Above [ndv_exact_threshold] distinct values the linear-counting
   sketch takes over; with a 64K-bit bitmap and ~6000 distinct values
   its estimate must land well within 5% relative error. *)
let test_ndv_sketch_bounded_error () =
  let n_distinct = 6000 in
  let sch = schema [ ("k", Datatype.Int) ] in
  let rows =
    List.init (2 * n_distinct) (fun i -> row [ vi (i mod n_distinct) ])
  in
  let st = Stats.compute sch (Relation.make sch rows) in
  match Stats.column_stats st "k" with
  | None -> Alcotest.fail "missing column stats"
  | Some c ->
      Alcotest.(check bool)
        "sketch mode past the exact threshold" false c.Stats.ndv_exact;
      let err =
        Float.abs (float_of_int c.Stats.distinct_count -. float_of_int n_distinct)
        /. float_of_int n_distinct
      in
      if err > 0.05 then
        Alcotest.failf "NDV estimate %d for %d distinct: %.1f%% error"
          c.Stats.distinct_count n_distinct (100. *. err)

(* ---------- lazy refresh: exactly once per version bump ---------- *)

let test_lazy_refresh_once () =
  let cat = Catalog.create () in
  let t = Table.create "t" [ ("k", Datatype.Int); ("v", Datatype.Str) ] in
  Table.insert_all t [ row [ vi 1; vs "a" ]; row [ vi 2; vs "b" ] ];
  Catalog.add_table cat t;
  let e0 = Catalog.stats_epoch cat in
  Alcotest.(check bool)
    "no cached stats before first use" true
    (Option.is_none (Catalog.peek_stats cat "t"));
  let s1 = Catalog.stats_of cat "t" in
  Alcotest.(check int) "first compute bumps the epoch once" (e0 + 1)
    (Catalog.stats_epoch cat);
  Alcotest.(check int) "row count" 2 s1.Stats.row_count;
  Alcotest.(check int) "stamped with the live table version"
    (Table.version t) s1.Stats.built_version;
  ignore (Catalog.stats_of cat "t");
  ignore (Catalog.stats_of cat "t");
  Alcotest.(check int) "fresh reads don't recompute" (e0 + 1)
    (Catalog.stats_epoch cat);
  Table.insert t (row [ vi 3; vs "c" ]);
  Alcotest.(check int) "DML alone doesn't touch the epoch" (e0 + 1)
    (Catalog.stats_epoch cat);
  let s2 = Catalog.stats_of cat "t" in
  Alcotest.(check int) "one recompute per version bump" (e0 + 2)
    (Catalog.stats_epoch cat);
  Alcotest.(check int) "refreshed row count" 3 s2.Stats.row_count;
  ignore (Catalog.stats_of cat "t");
  Alcotest.(check int) "fresh again after the refresh" (e0 + 2)
    (Catalog.stats_epoch cat);
  (* a failed all-or-nothing batch leaves the version — and therefore
     the cached stats — untouched *)
  (try Table.insert_all t [ row [ vi 4; vs "d" ]; row [ vi 5 ] ]
   with Errors.Exec_error _ -> ());
  let s3 = Catalog.stats_of cat "t" in
  Alcotest.(check int) "failed batch: no recompute" (e0 + 2)
    (Catalog.stats_epoch cat);
  Alcotest.(check int) "failed batch: row count unchanged" 3
    s3.Stats.row_count

(* ---------- row-count conservation under DML ---------- *)

type dml = Ins of int | Batch of int | Bad_batch | Clear

let gen_dml =
  Gen.frequency
    [
      (6, Gen.map (fun i -> Ins i) (Gen.int_range (-100) 100));
      (3, Gen.map (fun n -> Batch n) (Gen.int_range 0 20));
      (2, Gen.pure Bad_batch);
      (1, Gen.pure Clear);
    ]

(* Drain a compiled scan through the batch cursor (per-batch
   accounting hook) and through the row-at-a-time boundary adapter, and
   require both to see exactly [Table.cardinality] rows. *)
let scan_accounting_agrees cat t =
  let plan =
    Plan.table_scan ~table:(Table.name t) ~alias:(Table.name t)
      (Table.schema t)
  in
  let compiled = Compile.plan plan in
  let arr = Cursor.to_array (compiled.Compile.run (Env.make cat)) in
  let accounted = ref 0 in
  ignore
    (Batch.to_array
       ~account:(fun _ _ len -> accounted := !accounted + len)
       (compiled.Compile.brun (Env.make cat)));
  let card = Table.cardinality t in
  Array.length arr = card && !accounted = card

let prop_row_count_conservation =
  QCheck2.Test.make ~count:100
    ~name:"stats row count = table cardinality under DML interleavings"
    (Gen.list_size (Gen.int_range 0 30) gen_dml)
    (fun ops ->
      let cat = Catalog.create () in
      let t =
        Table.create "t" [ ("k", Datatype.Int); ("v", Datatype.Str) ]
      in
      Catalog.add_table cat t;
      let step op =
        (match op with
        | Ins i ->
            Table.insert t (row [ vi i; vs "x" ]);
            true
        | Batch n ->
            Table.insert_all t
              (List.init n (fun i -> row [ vi i; vs "y" ]));
            true
        | Bad_batch -> (
            (* all-or-nothing: the valid leading row must not land *)
            let before = Table.cardinality t and v = Table.version t in
            match Table.insert_all t [ row [ vi 0; vs "z" ]; row [ vi 1 ] ] with
            | () -> false
            | exception Errors.Exec_error _ ->
                Table.cardinality t = before && Table.version t = v)
        | Clear ->
            Table.clear t;
            true)
        && (Catalog.stats_of cat "t").Stats.row_count = Table.cardinality t
      in
      List.for_all step ops && scan_accounting_agrees cat t)

let suite =
  [
    Alcotest.test_case "NDV sketch: bounded relative error" `Quick
      test_ndv_sketch_bounded_error;
    Alcotest.test_case "lazy refresh: exactly once per version bump"
      `Quick test_lazy_refresh_once;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_histogram_invariants;
        prop_ndv_exact_below_threshold;
        prop_row_count_conservation;
      ]
