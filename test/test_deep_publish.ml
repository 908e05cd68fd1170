(* Tests for arbitrary-depth publishing: the three-level
   customer -> order -> lineitem view, both strategies, hierarchical
   clustering, and per-level derived aggregates. *)


let cat = lazy (Tpch_gen.catalog ~msf:0.05 ())

let count_elements tag doc =
  let rec go acc = function
    | Xml.Text _ -> acc
    | Xml.Element (t, _, children) ->
        List.fold_left go (if String.equal t tag then acc + 1 else acc)
          children
  in
  go 0 doc

let publish_both cat view =
  let ou =
    Deep_publish.publish ~strategy:Deep_publish.Sorted_outer_union cat view
  in
  let ga =
    Deep_publish.publish ~strategy:Deep_publish.Gapply_pass cat view
  in
  Alcotest.(check bool) "strategies publish the same document" true
    (Xml.equal_unordered ou ga);
  ou

let test_three_level_structure () =
  let cat = Lazy.force cat in
  let doc = publish_both cat Deep_view.customer_orders in
  let customers =
    Table.cardinality (Catalog.find_table cat "customer")
  in
  let orders = Table.cardinality (Catalog.find_table cat "orders") in
  let lineitems = Table.cardinality (Catalog.find_table cat "lineitem") in
  Alcotest.(check int) "all customers" customers
    (count_elements "customer" doc);
  Alcotest.(check int) "all orders" orders (count_elements "order" doc);
  Alcotest.(check int) "all lineitems" lineitems
    (count_elements "lineitem" doc)

let test_derived_aggregates_present () =
  let cat = Lazy.force cat in
  let doc = publish_both cat Deep_view.customer_orders in
  let customers =
    Table.cardinality (Catalog.find_table cat "customer")
  in
  let orders = Table.cardinality (Catalog.find_table cat "orders") in
  Alcotest.(check int) "one order_count per customer" customers
    (count_elements "order_count" doc);
  Alcotest.(check int) "one revenue per order" orders
    (count_elements "revenue" doc);
  Alcotest.(check int) "one line_count per order" orders
    (count_elements "line_count" doc)

let rec find_elements tag doc =
  match doc with
  | Xml.Text _ -> []
  | Xml.Element (t, _, children) ->
      let here = if String.equal t tag then [ doc ] else [] in
      here @ List.concat_map (find_elements tag) children

let text_of = function
  | Xml.Element (_, _, [ Xml.Text s ]) -> s
  | _ -> Alcotest.fail "expected a text element"

let test_revenue_matches_sql () =
  let cat = Lazy.force cat in
  let doc = publish_both cat Deep_view.customer_orders in
  (* total revenue over all orders from the document... *)
  let doc_total =
    List.fold_left
      (fun acc e -> acc +. float_of_string (text_of e))
      0.
      (find_elements "revenue" doc)
  in
  (* ... must equal the SQL total *)
  let sql_total =
    let r =
      Executor.run cat
        (Sql_binder.bind_query cat
           (Sql_parser.parse_query_string
              "select sum(l_extendedprice) from lineitem"))
    in
    match Tuple.get (List.hd (Relation.rows r)) 0 with
    | Value.Float f -> f
    | v -> Alcotest.failf "unexpected %s" (Value.to_string v)
  in
  Alcotest.(check (float 0.5)) "document revenue = SQL revenue" sql_total
    doc_total

let test_nesting_is_correct () =
  let cat = Lazy.force cat in
  let doc = publish_both cat Deep_view.customer_orders in
  (* every lineitem must sit inside an order inside a customer *)
  let rec check_path path = function
    | Xml.Text _ -> ()
    | Xml.Element (tag, _, children) ->
        (if String.equal tag "lineitem" then
           match path with
           | "order" :: "customer" :: _ -> ()
           | _ ->
               Alcotest.failf "lineitem nested under %s"
                 (String.concat "/" path));
        List.iter (check_path (tag :: path)) children
  in
  check_path [] doc

let test_deep_tagger_rejects_unclustered () =
  let cat = Lazy.force cat in
  let plan, enc =
    Deep_publish.outer_union_plan cat Deep_view.customer_orders
  in
  let unordered =
    match plan with Plan.Order_by { input; _ } -> input | p -> p
  in
  let compiled = Compile.plan unordered in
  Alcotest.(check bool) "raises on unclustered stream" true
    (try
       ignore (Deep_publish.tag enc (compiled.Compile.run (Env.make cat)));
       false
     with Errors.Exec_error _ -> true)

let test_encoding_shape () =
  let enc = Deep_publish.build_encoding Deep_view.customer_orders in
  (* 3 element branches + 3 aggregate branches *)
  Alcotest.(check int) "6 branches" 6
    (List.length enc.Deep_publish.e_branches);
  (* key slots: customer(1) + order(1) + lineitem(1) *)
  Alcotest.(check int) "3 key slots" 3
    (List.length enc.Deep_publish.e_key_slots);
  Alcotest.(check int) "node column after keys" 3 enc.Deep_publish.e_node_col

let test_view_validation () =
  let bad =
    {
      Deep_view.root_tag = "r";
      top =
        {
          Deep_view.n_tag = "a";
          n_query = "select 1";
          n_path = [ "x"; "y" ];
          n_own_keys = 2;
          n_fields = [];
          n_aggregates = [];
          n_children =
            [
              {
                Deep_view.n_tag = "b";
                n_query = "select 1";
                n_path = [ "x" ];  (* too short: parent has 2 key cols *)
                n_own_keys = 1;
                n_fields = [];
                n_aggregates = [];
                n_children = [];
              };
            ];
        };
    }
  in
  Alcotest.(check bool) "bad path rejected" true
    (try
       ignore (Deep_view.validate bad);
       false
     with Errors.Plan_error _ -> true)

(* MD5 of the serialized three-level document at msf 0.05, taken before
   the serializer escaped text straight into its buffer. *)
let test_document_pinned () =
  let doc =
    Xml.to_string (Deep_publish.publish (Lazy.force cat) Deep_view.customer_orders)
  in
  Alcotest.(check string) "serialized bytes" "190f74430bb625d456ad38dc61e66369"
    (Digest.to_hex (Digest.string doc))

(* Clustered GApplies with their aggregate rows (NULL own-key slots)
   ahead of the element rows: each GApply branch reaches the final ORDER
   BY as one presorted run.  Unclustered, the input had 813 runs. *)
let test_presorted_runs () =
  let cat = Tpch_gen.catalog ~seed:1 ~msf:0.25 () in
  let runs, bound =
    Publish.presorted_runs cat
      (fst (Deep_publish.gapply_plan cat Deep_view.customer_orders))
  in
  if runs > bound then
    Alcotest.failf "%d runs reach the ORDER BY, bound %d" runs bound

let suite =
  [
    Alcotest.test_case "three-level structure" `Quick
      test_three_level_structure;
    Alcotest.test_case "document matches its pinned digest" `Quick
      test_document_pinned;
    Alcotest.test_case "derived aggregates at every level" `Quick
      test_derived_aggregates_present;
    Alcotest.test_case "revenue matches SQL" `Quick test_revenue_matches_sql;
    Alcotest.test_case "nesting is correct" `Quick test_nesting_is_correct;
    Alcotest.test_case "deep tagger rejects unclustered input" `Quick
      test_deep_tagger_rejects_unclustered;
    Alcotest.test_case "GApply branches reach the ORDER BY presorted" `Quick
      test_presorted_runs;
    Alcotest.test_case "encoding shape" `Quick test_encoding_shape;
    Alcotest.test_case "view validation" `Quick test_view_validation;
  ]
