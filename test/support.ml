(* Shared fixtures and assertions for the test suite. *)

let vi i = Value.Int i
let vf f = Value.Float f
let vs s = Value.Str s
let vb b = Value.Bool b
let vnull = Value.Null

let row vs = Tuple.of_list vs

let schema cols =
  Schema.of_list
    (List.map (fun (name, ty) -> Schema.column name ty) cols)

let rel cols rows = Relation.make (schema cols) (List.map row rows)

(* ---------- alcotest testables ---------- *)

let value_testable = Alcotest.testable Value.pp Value.equal_total
let truth_testable = Alcotest.testable Truth.pp Truth.equal
let tuple_testable = Alcotest.testable Tuple.pp Tuple.equal

(** Relation equality as multisets (the semantic notion). *)
let relation_testable =
  Alcotest.testable Relation.pp Relation.equal_as_multiset

(** Relation equality including row order (for ORDER BY tests). *)
let relation_ordered_testable =
  Alcotest.testable Relation.pp Relation.equal_as_list

let check_rel msg expected actual =
  Alcotest.check relation_testable msg expected actual

let check_rows msg expected_rows actual =
  (* compare rows only, ignoring schema details *)
  let expected =
    Relation.make (Relation.schema actual) (List.map row expected_rows)
  in
  check_rel msg expected actual

(* ---------- XML ---------- *)

(* A tree whose [Xml.to_string] writes an element without content
   open-and-close, as [Deep_publish.tag_to_buffer] streams it. *)
let rec open_empty = function
  | Xml.Element (tag, attrs, []) -> Xml.Element (tag, attrs, [ Xml.text "" ])
  | Xml.Element (tag, attrs, children) ->
      Xml.Element (tag, attrs, List.map open_empty children)
  | t -> t

(* ---------- a tiny TPC-H-like fixture ---------- *)

(* 3 suppliers; supplier 1 has parts 1,2,3; supplier 2 has parts 2,4;
   supplier 3 supplies nothing.  Part prices: 10.0, 20.0, 30.0, 40.0. *)
let mini_catalog () =
  let cat = Catalog.create () in
  let supplier =
    Table.create "supplier"
      ~primary_key:[ "s_suppkey" ]
      [ ("s_suppkey", Datatype.Int); ("s_name", Datatype.Str) ]
  in
  Table.insert_all supplier
    [
      row [ vi 1; vs "Acme" ];
      row [ vi 2; vs "Globex" ];
      row [ vi 3; vs "Initech" ];
    ];
  let part =
    Table.create "part"
      ~primary_key:[ "p_partkey" ]
      [
        ("p_partkey", Datatype.Int);
        ("p_name", Datatype.Str);
        ("p_retailprice", Datatype.Float);
        ("p_size", Datatype.Int);
        ("p_brand", Datatype.Str);
      ]
  in
  Table.insert_all part
    [
      row [ vi 1; vs "bolt"; vf 10.; vi 1; vs "Brand#A" ];
      row [ vi 2; vs "nut"; vf 20.; vi 2; vs "Brand#B" ];
      row [ vi 3; vs "gear"; vf 30.; vi 1; vs "Brand#A" ];
      row [ vi 4; vs "cog"; vf 40.; vi 2; vs "Brand#B" ];
    ];
  let partsupp =
    Table.create "partsupp"
      ~primary_key:[ "ps_suppkey"; "ps_partkey" ]
      ~foreign_keys:
        [
          {
            Table.fk_columns = [ "ps_suppkey" ];
            fk_table = "supplier";
            fk_ref_columns = [ "s_suppkey" ];
          };
          {
            Table.fk_columns = [ "ps_partkey" ];
            fk_table = "part";
            fk_ref_columns = [ "p_partkey" ];
          };
        ]
      [ ("ps_suppkey", Datatype.Int); ("ps_partkey", Datatype.Int) ]
  in
  Table.insert_all partsupp
    [
      row [ vi 1; vi 1 ];
      row [ vi 1; vi 2 ];
      row [ vi 1; vi 3 ];
      row [ vi 2; vi 2 ];
      row [ vi 2; vi 4 ];
    ];
  Catalog.add_table cat supplier;
  Catalog.add_table cat part;
  Catalog.add_table cat partsupp;
  cat

let scan cat name = Plan.table_scan ~table:name ~alias:name
                      (Table.schema (Catalog.find_table cat name))

(* ---------- cross-checked execution ---------- *)

(** Run [plan] through the physical executor (both partition strategies)
    and the reference evaluator; assert all three agree and return the
    reference result. *)
let run_checked ?(msg = "exec vs reference") cat plan =
  let reference = Reference.run cat plan in
  let hash =
    Executor.run
      ~config:(Compile.config_with ~partition:Compile.Hash_partition ())
      cat plan
  in
  let sort =
    Executor.run
      ~config:(Compile.config_with ~partition:Compile.Sort_partition ())
      cat plan
  in
  check_rel (msg ^ " (hash partitioning)") reference hash;
  check_rel (msg ^ " (sort partitioning)") reference sort;
  reference

(* ---------- metrics conservation ---------- *)

(** The laws an engine's registry must satisfy at rest, as the list of
    violated ones (empty when conserved): every query-path execution is
    one plan-cache hit or miss ([executions], when given; none count
    with the cache off); every begun transaction closed exactly once or
    is still open; every accepted connection is closed or active. *)
let conservation_failures ?executions db =
  let m = Engine.metrics db in
  let get ?label name = Metrics.read m ?label name in
  let law name lhs rhs =
    if lhs = rhs then None else Some (Printf.sprintf "%s: %d <> %d" name lhs rhs)
  in
  let closed o = get ~label:o "gapply_txn_closed_total" in
  let has name = List.mem name (Metrics.names m) in
  List.filter_map Fun.id
    [
      (match executions with
      | Some n ->
          law "hits + misses = executions"
            (get "gapply_plan_cache_hits_total" + get "gapply_plan_cache_misses_total")
            (if Engine.plan_cache_enabled db then n else 0)
      | None -> None);
      law "begun = committed + rolled back + conflicts + failed + open"
        (get "gapply_txn_begun_total")
        (closed "committed" + closed "rolled_back" + closed "conflict"
       + closed "failed" + get "gapply_txn_open");
      (if has "gapply_connections_accepted_total" then
         law "accepted = closed + active"
           (get "gapply_connections_accepted_total")
           (get "gapply_connections_closed_total" + get "gapply_connections_active")
       else None);
    ]

let check_conservation ?executions msg db =
  Alcotest.(check (list string)) msg [] (conservation_failures ?executions db)
