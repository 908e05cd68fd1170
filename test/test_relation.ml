(* Unit tests: schemas, tuples, relations. *)

open Support

let s2 = schema [ ("a", Datatype.Int); ("b", Datatype.Str) ]

let test_schema_find () =
  Alcotest.(check int) "find b" 1 (Schema.find "b" s2);
  Alcotest.check_raises "unknown column"
    (Errors.Name_error "unknown column c") (fun () ->
      ignore (Schema.find "c" s2))

let test_schema_qualified () =
  let s =
    Schema.concat
      (Schema.rename_source "t1" s2)
      (Schema.rename_source "t2" s2)
  in
  Alcotest.(check int) "t2.a" 2 (Schema.find ~qual:"t2" "a" s);
  Alcotest.check_raises "bare a ambiguous"
    (Errors.Name_error "ambiguous column a") (fun () ->
      ignore (Schema.find "a" s))

let test_schema_project () =
  let p = Schema.project [ 1 ] s2 in
  Alcotest.(check int) "arity" 1 (Schema.arity p);
  Alcotest.(check string) "name" "b" (Schema.get p 0).Schema.cname

let test_tuple_ops () =
  let t = row [ vi 1; vs "x"; vnull ] in
  Alcotest.check tuple_testable "project reorders"
    (row [ vnull; vi 1 ])
    (Tuple.project [ 2; 0 ] t);
  Alcotest.(check bool) "tuples with nulls equal under total order" true
    (Tuple.equal (row [ vnull; vi 1 ]) (row [ vnull; vi 1 ]));
  Alcotest.(check bool) "compare lexicographic" true
    (Tuple.compare (row [ vi 1; vi 9 ]) (row [ vi 2; vi 0 ]) < 0)

let test_relation_distinct () =
  let r =
    rel
      [ ("a", Datatype.Int) ]
      [ [ vi 1 ]; [ vi 2 ]; [ vi 1 ]; [ vnull ]; [ vnull ] ]
  in
  let d = Relation.distinct r in
  Alcotest.(check int) "distinct count (nulls collapse)" 3
    (Relation.cardinality d)

let test_relation_multiset_equality () =
  let a = rel [ ("a", Datatype.Int) ] [ [ vi 1 ]; [ vi 2 ]; [ vi 1 ] ] in
  let b = rel [ ("a", Datatype.Int) ] [ [ vi 2 ]; [ vi 1 ]; [ vi 1 ] ] in
  let c = rel [ ("a", Datatype.Int) ] [ [ vi 2 ]; [ vi 2 ]; [ vi 1 ] ] in
  Alcotest.(check bool) "permutation equal" true
    (Relation.equal_as_multiset a b);
  Alcotest.(check bool) "different multiplicities differ" false
    (Relation.equal_as_multiset a c)

let test_relation_sort_stable () =
  let r =
    rel
      [ ("k", Datatype.Int); ("v", Datatype.Int) ]
      [ [ vi 1; vi 10 ]; [ vi 0; vi 20 ]; [ vi 1; vi 30 ] ]
  in
  let sorted =
    Relation.sort_by
      (fun a b -> Value.compare_total (Tuple.get a 0) (Tuple.get b 0))
      r
  in
  Alcotest.check relation_ordered_testable "stable order"
    (rel
       [ ("k", Datatype.Int); ("v", Datatype.Int) ]
       [ [ vi 0; vi 20 ]; [ vi 1; vi 10 ]; [ vi 1; vi 30 ] ])
    sorted

let test_table_insert_and_stats () =
  let cat = mini_catalog () in
  let stats = Catalog.stats_of cat "part" in
  Alcotest.(check int) "row count" 4 stats.Stats.row_count;
  Alcotest.(check int) "distinct prices" 4
    (Stats.distinct_count stats "p_retailprice");
  Alcotest.(check int) "distinct sizes" 2 (Stats.distinct_count stats "p_size");
  let c = Option.get (Stats.column_stats stats "p_retailprice") in
  Alcotest.check value_testable "min price" (vf 10.) c.Stats.min_value;
  Alcotest.check value_testable "max price" (vf 40.) c.Stats.max_value

let test_stats_invalidation () =
  let cat = mini_catalog () in
  ignore (Catalog.stats_of cat "supplier");
  let t = Catalog.find_table cat "supplier" in
  Table.insert t (row [ vi 4; vs "Umbrella" ]);
  Catalog.invalidate_stats cat "supplier";
  let stats = Catalog.stats_of cat "supplier" in
  Alcotest.(check int) "row count after insert" 4 stats.Stats.row_count

let test_table_arity_check () =
  let t = Table.create "t" [ ("a", Datatype.Int) ] in
  Alcotest.(check bool) "bad arity raises" true
    (try
       Table.insert t (row [ vi 1; vi 2 ]);
       false
     with Errors.Exec_error _ -> true)

let test_fk_metadata () =
  let cat = mini_catalog () in
  Alcotest.(check bool) "partsupp -> supplier fk" true
    (Catalog.has_foreign_key cat ~table:"partsupp" ~cols:[ "ps_suppkey" ]
       ~ref_table:"supplier" ~ref_cols:[ "s_suppkey" ]);
  Alcotest.(check bool) "no fk to part on suppkey" false
    (Catalog.has_foreign_key cat ~table:"partsupp" ~cols:[ "ps_suppkey" ]
       ~ref_table:"part" ~ref_cols:[ "p_partkey" ]);
  Alcotest.(check bool) "pk coverage" true
    (Catalog.covers_primary_key cat ~table:"supplier"
       ~cols:[ "s_suppkey"; "s_name" ])

(* ---------- the rendered table ---------- *)

(* The renderer [Relation.to_string] replaced: [Format] per cell,
   [Printf] per float and [string_of_int] per int, kept as the oracle
   for its bytes. *)
let format_render r =
  let cell = function
    | Value.Float f ->
        let s = Printf.sprintf "%.12g" f in
        if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
        then s
        else s ^ ".0"
    | Value.Int i -> string_of_int i
    | v -> Value.to_string v
  in
  let headers =
    Array.map
      (fun (c : Schema.column) ->
        match c.Schema.source with
        | None -> c.Schema.cname
        | Some s -> s ^ "." ^ c.Schema.cname)
      (Relation.schema r)
  in
  let ncols = Array.length headers in
  let width = Array.map String.length headers in
  let cells =
    Array.map
      (fun row ->
        Array.mapi
          (fun i v ->
            let s = cell v in
            if String.length s > width.(i) then width.(i) <- String.length s;
            s)
          (Array.sub row 0 ncols))
      (Relation.rows_array r)
  in
  let line ppf () =
    for i = 0 to ncols - 1 do
      Format.fprintf ppf "+%s" (String.make (width.(i) + 2) '-')
    done;
    Format.fprintf ppf "+@\n"
  in
  let row ppf cells =
    for i = 0 to ncols - 1 do
      Format.fprintf ppf "| %-*s " width.(i) cells.(i)
    done;
    Format.fprintf ppf "|@\n"
  in
  Format.asprintf "%t" (fun ppf ->
      if ncols = 0 then
        Format.fprintf ppf "(%d row(s) over the empty schema)@\n"
          (Array.length cells)
      else begin
        line ppf ();
        row ppf headers;
        line ppf ();
        Array.iter (row ppf) cells;
        line ppf ();
        Format.fprintf ppf "(%d row(s))@\n" (Array.length cells)
      end)

let sym_pool = Strpool.create ()

let gen_string =
  QCheck.Gen.(
    oneof
      [
        oneofl [ ""; "x"; "héllo"; "日本語"; "naïve café"; "a | b"; "-+-" ];
        string_size ~gen:printable (int_range 0 12);
      ])

let gen_float =
  QCheck.Gen.(
    oneof
      [
        float;
        oneofl
          [ nan; infinity; neg_infinity; -0.; 0.; 1e-300; 1e300; 3.; -42.; 0.1;
            1e15; 123456789012.5; max_float; min_float ];
        map float_of_int small_signed_int;
      ])

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (1, return Value.Null);
        (1, map (fun b -> Value.Bool b) bool);
        (2, map (fun i -> Value.Int i) (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]));
        (2, map (fun f -> Value.Float f) gen_float);
        (2, map (fun s -> Value.Str s) gen_string);
        (1, map (fun s -> Value.Sym (sym_pool, Strpool.intern sym_pool s)) gen_string);
      ])

let gen_column =
  QCheck.Gen.(
    map2
      (fun source name -> Schema.column ?source name Datatype.Str)
      (opt (oneofl [ "t"; "ps1"; "très" ]))
      (oneofl [ "a"; "b"; "p_name"; ""; "ü"; "count(*)"; "a_rather_long_column_name" ]))

(* zero to four columns (zero is the empty schema), zero to six rows *)
let gen_relation =
  QCheck.Gen.(
    int_range 0 4 >>= fun ncols ->
    list_repeat ncols gen_column >>= fun cols ->
    int_range 0 6 >>= fun nrows ->
    list_repeat nrows (list_repeat ncols gen_value) >|= fun rows ->
    Relation.make (Schema.of_list cols) (List.map Tuple.of_list rows))

let prop_render_matches_format =
  QCheck.Test.make ~count:1000 ~name:"to_string = the Format renderer, byte for byte"
    (QCheck.make ~print:format_render gen_relation)
    (fun r -> String.equal (Relation.to_string r) (format_render r))

let test_render_size_limit () =
  let r =
    rel [ ("a", Datatype.Int); ("b", Datatype.Str) ] [ [ vi 1; vs "x" ]; [ vnull; vs "yz" ] ]
  in
  let s = Relation.to_string r in
  Alcotest.(check string) "a limit the table fits renders it" s
    (Relation.to_string ~max_bytes:(String.length s) r);
  match Relation.to_string ~max_bytes:(String.length s - 1) r with
  | _ -> Alcotest.fail "a table over the limit must be refused"
  | exception Errors.Exec_error m ->
      Alcotest.(check string) "message names the size and the limit"
        (Printf.sprintf "result table of %d bytes exceeds the %d-byte reply limit"
           (String.length s) (String.length s - 1))
        m

(* MD5 of the rendered Figure 8 Q1-Q4 tables — the bodies the server
   replies with — at msf 0.25, seed 1, taken before numbers were written
   without the C formatter.  The oracle above draws random cells; these
   pin the bytes of the replies the serve benchmark checks. *)
let figure8_digests =
  [
    ("Q1", "0dcba74ca0cc2201a189f14b3e737c43");
    ("Q2", "50ea0abe3e3c8608703de2dd9b6f54c1");
    ("Q3", "e9adb01f476132df759ea78c10422857");
    ("Q4", "e65baa0aa55afb7a00cb8cb14c5cb36a");
  ]

let test_figure8_replies_pinned () =
  let db = Engine.create ~parallelism:1 () in
  Engine.load_tpch ~seed:1 db ~msf:0.25;
  List.iter2
    (fun (name, sql, _) (name', digest) ->
      assert (name = name');
      match Engine.exec db sql with
      | Engine.Rows rel ->
          Alcotest.(check string) (name ^ ": reply body") digest
            (Digest.to_hex (Digest.string (Relation.to_string rel)))
      | _ -> Alcotest.failf "%s: expected rows" name)
    Workloads.figure8_queries figure8_digests

let suite =
  [
    QCheck_alcotest.to_alcotest prop_render_matches_format;
    Alcotest.test_case "Figure 8 reply bodies match pinned digests" `Quick
      test_figure8_replies_pinned;
    Alcotest.test_case "rendered table size limit" `Quick test_render_size_limit;
    Alcotest.test_case "schema find" `Quick test_schema_find;
    Alcotest.test_case "schema qualified resolution" `Quick
      test_schema_qualified;
    Alcotest.test_case "schema project" `Quick test_schema_project;
    Alcotest.test_case "tuple operations" `Quick test_tuple_ops;
    Alcotest.test_case "relation distinct" `Quick test_relation_distinct;
    Alcotest.test_case "relation multiset equality" `Quick
      test_relation_multiset_equality;
    Alcotest.test_case "relation stable sort" `Quick test_relation_sort_stable;
    Alcotest.test_case "table stats" `Quick test_table_insert_and_stats;
    Alcotest.test_case "stats invalidation" `Quick test_stats_invalidation;
    Alcotest.test_case "table arity check" `Quick test_table_arity_check;
    Alcotest.test_case "foreign-key metadata" `Quick test_fk_metadata;
  ]
