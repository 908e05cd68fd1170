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

(* A keyed element row with the keys of the open element at its level:
   the view's key does not identify its rows. *)
let test_deep_tagger_rejects_repeated_key () =
  let cat = Lazy.force cat in
  let orders =
    List.hd Deep_view.customer_orders.Deep_view.top.Deep_view.n_children
  in
  let view =
    Deep_view.validate
      {
        Deep_view.root_tag = "orders";
        top =
          { orders with
            Deep_view.n_path = [ "o_custkey" ];
            n_aggregates = [];
            n_children = [] };
        select = None;
      }
  in
  Alcotest.(check bool) "raises on a repeated key" true
    (try
       ignore (Deep_publish.publish cat view);
       false
     with Errors.Exec_error msg ->
       let needle = "duplicate key" in
       let n = String.length needle in
       let rec at i =
         i + n <= String.length msg
         && (String.equal (String.sub msg i n) needle || at (i + 1))
       in
       at 0)

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
      select = None;
    }
  in
  let rejected v =
    try
      ignore (Deep_view.validate v);
      false
    with Errors.Plan_error _ -> true
  in
  Alcotest.(check bool) "bad path rejected" true (rejected bad);
  let leaf n_path n_own_keys =
    { Deep_view.n_tag = "b"; n_query = "select 1"; n_path; n_own_keys;
      n_fields = []; n_aggregates = []; n_children = [] }
  in
  let with_children n_children =
    {
      bad with
      Deep_view.top =
        { bad.Deep_view.top with
          Deep_view.n_path = [ "x" ]; n_own_keys = 1; n_children };
    }
  in
  Alcotest.(check bool) "a leaf without keys accepted" false
    (rejected (with_children [ leaf [ "x" ] 0 ]));
  Alcotest.(check bool) "a node without keys but with children rejected" true
    (rejected
       (with_children
          [ { (leaf [ "x" ] 0) with
              Deep_view.n_children = [ leaf [ "x"; "y" ] 1 ] } ]));
  Alcotest.(check bool) "a negative key count rejected" true
    (rejected (with_children [ leaf [ "x" ] (-1) ]))

(* Two sibling nodes with one tag: customers with all their orders and,
   again, their orders above 1000.  Each node has its own key slot and
   node id, and the tagger tells the open elements apart by node id. *)
let test_same_tag_siblings () =
  let cat = Lazy.force cat in
  let v = Deep_view.customer_orders in
  let orders =
    { (List.hd v.Deep_view.top.Deep_view.n_children) with
      Deep_view.n_children = [] }
  in
  let big =
    { orders with
      Deep_view.n_query =
        orders.Deep_view.n_query ^ " where o_totalprice > 1000";
      n_aggregates = [] }
  in
  let view =
    Deep_view.validate
      { v with
        Deep_view.top =
          { v.Deep_view.top with Deep_view.n_children = [ orders; big ] } }
  in
  let doc = publish_both cat view in
  let count sql =
    Relation.cardinality
      (Executor.run cat
         (Sql_binder.bind_query cat (Sql_parser.parse_query_string sql)))
  in
  Alcotest.(check int) "every order, and again each one above 1000"
    (count "select o_orderkey from orders"
    + count "select o_orderkey from orders where o_totalprice > 1000")
    (count_elements "order" doc)

(* MD5 of the serialized three-level document at msf 0.05, taken before
   the serializer escaped text straight into its buffer. *)
let test_document_pinned () =
  let cat = Lazy.force cat in
  let doc =
    Xml.to_string (Deep_publish.publish cat Deep_view.customer_orders)
  in
  Alcotest.(check string) "serialized bytes" "190f74430bb625d456ad38dc61e66369"
    (Digest.to_hex (Digest.string doc));
  let plan, enc = Deep_publish.gapply_plan cat Deep_view.customer_orders in
  let buf = Buffer.create (1 lsl 16) in
  Deep_publish.tag_to_buffer enc
    ((Compile.plan plan).Compile.run (Env.make cat))
    buf;
  Alcotest.(check string) "streamed bytes" "190f74430bb625d456ad38dc61e66369"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

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

(* ...and the ORDER BY streams each of those branches: its order
   property covers the leading ORDER BY key. *)
let test_branches_stream () =
  let cat = Tpch_gen.catalog ~seed:1 ~msf:0.25 () in
  Support.check_gapply_branches_stream "3-level view"
    (fst (Deep_publish.gapply_plan cat Deep_view.customer_orders))

(* ---------- random views: both strategies against Reference ---------- *)

(* Random views of depth 1-3 with 0-2 children per node, sibling tags
   drawn from two, leaves with or without keys, aggregates on any node
   below the top, and at times a selection on the top node.  Each node
   reads its own table: the ancestors' keys a0.., its own key k (unique
   in the table) when it has one, a field v (NULL at times, else a
   multiple of 0.25, so sums and averages are exact in any order) and a
   string field s (NULL at times, and at times holding bytes XML
   escapes).  A row links to a random element of its parent, and each
   link column is NULL at times: such a row belongs to no element.  The
   tables are dictionary-encoded in some cases, so string fields reach
   the tagger both as [Sym] handles and as plain [Str]. *)

module Gen = QCheck2.Gen

type shape = {
  path : int list;  (* child indices from the top: names the table *)
  tag : string;
  keyed : bool;
  aggs : Expr.agg_fn list;
  kids : shape list;
}

type view_case = {
  view : Deep_view.t;
  tables : (string * string list * Value.t list list) list;
  dict : bool;  (* string columns dictionary-encoded *)
}

let table_name path =
  String.concat "_" ("n" :: List.map string_of_int path)

let rec gen_shape depth path =
  let open Gen in
  let* nkids = if depth > 1 then int_range 0 2 else pure 0 in
  let* kids =
    flatten_l (List.init nkids (fun i -> gen_shape (depth - 1) (path @ [ i ])))
  in
  let* tag = oneofl [ "a"; "b" ] in
  let* keyed = if kids = [] then bool else pure true in
  let* aggs =
    if path = [] then pure []
    else
      list_size (int_range 0 2)
        (oneofl [ Expr.Sum; Expr.Count; Expr.Min; Expr.Max; Expr.Avg ])
  in
  return { path; tag; keyed; aggs; kids }

(* the rows of [sh]'s table, linked to [parents] (the full key paths of
   the parent's rows), then the tables below it *)
let rec gen_tables sh parents =
  let open Gen in
  let depth = List.length sh.path in
  let link path =
    flatten_l
      (List.map
         (fun k -> frequency [ (1, pure Support.vnull); (3, pure k) ])
         path)
  in
  let* ancestors =
    if depth = 0 then list_size (int_range 1 4) (pure [])
    else if parents = [] then pure []
    else list_size (int_range 0 6) (oneofl parents >>= link)
  in
  let* values =
    flatten_l
      (List.map
         (fun _ ->
           pair
             (frequency
                [
                  (1, pure Support.vnull);
                  ( 5,
                    map
                      (fun q -> Support.vf (float_of_int q *. 0.25))
                      (int_range 0 40) );
                ])
             (frequency
                [
                  (1, pure Support.vnull);
                  (4, map Support.vs Support.gen_markup_text);
                ]))
         ancestors)
  in
  let rows =
    List.mapi
      (fun i (anc, (v, s)) ->
        anc @ (if sh.keyed then [ Support.vi (i + 1) ] else []) @ [ v; s ])
      (List.combine ancestors values)
  in
  let paths =
    List.map (fun r -> List.filteri (fun i _ -> i <= depth) r) rows
  in
  let cols =
    List.init depth (Printf.sprintf "a%d")
    @ (if sh.keyed then [ "k" ] else [])
    @ [ "v"; "s" ]
  in
  let+ below = flatten_l (List.map (fun kid -> gen_tables kid paths) sh.kids) in
  (table_name sh.path, cols, rows) :: List.concat below

let rec node_of sh =
  let depth = List.length sh.path in
  let keys =
    List.init depth (Printf.sprintf "a%d") @ if sh.keyed then [ "k" ] else []
  in
  {
    Deep_view.n_tag = sh.tag;
    n_query =
      Printf.sprintf "select %s from %s"
        (String.concat ", " (keys @ [ "v"; "s" ]))
        (table_name sh.path);
    n_path = keys;
    n_own_keys = (if sh.keyed then 1 else 0);
    n_fields =
      (if sh.keyed then [ ("k", "k") ] else []) @ [ ("v", "v"); ("s", "s") ];
    n_aggregates =
      List.mapi
        (fun i fn ->
          { Deep_view.a_fn = fn; a_col = "v"; a_tag = Printf.sprintf "g%d" i })
        sh.aggs;
    n_children = List.map node_of sh.kids;
  }

let gen_view_case =
  let open Gen in
  let* depth = frequency [ (1, pure 1); (1, pure 2); (2, pure 3) ] in
  let* sh = gen_shape depth [] in
  let* tables = gen_tables sh [] in
  let top = node_of sh in
  let* select =
    match top.Deep_view.n_children with
    | [] -> pure None
    | kids ->
        let* kid = oneofl kids in
        let* op = oneofl [ Expr.Gt; Expr.Gte; Expr.Lt; Expr.Lte ] in
        let* bound = map (fun q -> float_of_int q *. 0.25) (int_range 0 40) in
        let* s_guard =
          oneof
            [
              pure (Deep_view.Some_row ("v", op, bound));
              map
                (fun fn -> Deep_view.Agg_holds (fn, "v", op, bound))
                (oneofl [ Expr.Avg; Expr.Min; Expr.Max; Expr.Sum; Expr.Count ]);
            ]
        in
        frequency
          [
            (2, pure None);
            ( 1,
              pure
                (Some
                   {
                     Deep_view.s_query = kid.Deep_view.n_query;
                     s_link = [ "a0" ];
                     s_guard;
                   }) );
          ]
  in
  let* dict = bool in
  return
    {
      view = Deep_view.validate { Deep_view.root_tag = "r"; top; select };
      tables;
      dict;
    }

let rec print_node indent (n : Deep_view.node) =
  Printf.sprintf "%s<%s> %s keys=%d aggs=%d\n%s" indent n.Deep_view.n_tag
    n.Deep_view.n_query n.Deep_view.n_own_keys
    (List.length n.Deep_view.n_aggregates)
    (String.concat ""
       (List.map (print_node (indent ^ "  ")) n.Deep_view.n_children))

let print_view_case c =
  (if c.dict then "dictionary-encoded\n" else "")
  ^ print_node "" c.view.Deep_view.top
  ^ (match c.view.Deep_view.select with
    | None -> ""
    | Some s -> Printf.sprintf "selected by %s\n" s.Deep_view.s_query)
  ^ String.concat ""
      (List.map
         (fun (name, cols, rows) ->
           Printf.sprintf "%s(%s): %s\n" name (String.concat ", " cols)
             (String.concat "; "
                (List.map
                   (fun r -> String.concat "," (List.map Value.to_literal r))
                   rows)))
         c.tables)

let view_catalog c =
  let cat = Catalog.create () in
  let ty = function
    | "v" -> Datatype.Float
    | "s" -> Datatype.Str
    | _ -> Datatype.Int
  in
  Support.with_dict c.dict (fun () ->
      List.iter
        (fun (name, cols, rows) ->
          let t = Table.create name (List.map (fun col -> (col, ty col)) cols) in
          Table.insert_all t (List.map Support.row rows);
          Catalog.add_table cat t)
        c.tables);
  cat

(* The document of a row stream nested without regard to its order: a
   row goes under the element that its chain's ancestor levels name by
   node id and keys, and a row naming no element is dropped.  The
   streaming tagger must build the same tree. *)
let nest (enc : Deep_publish.encoding) rows =
  let ident row (chain : Deep_publish.level array) n =
    List.init n (fun l ->
        ( chain.(l).Deep_publish.l_node,
          Array.map (fun s -> Tuple.get row s) chain.(l).Deep_publish.l_slots ))
  in
  let fields (b : Deep_publish.branch) row =
    List.filter_map
      (fun (tag, idx) ->
        match Tuple.get row idx with
        | Value.Null -> None
        | v -> Some (Xml.element tag [ Xml.text (Value.to_string v) ]))
      b.Deep_publish.b_fields
  in
  let below = Hashtbl.create 64 in
  List.iter
    (fun row ->
      let b =
        match Tuple.get row enc.Deep_publish.e_node_col with
        | Value.Int id -> List.nth enc.Deep_publish.e_branches id
        | _ -> assert false
      in
      let chain = b.Deep_publish.b_chain in
      let levels = Array.length chain in
      let item, parent =
        match b.Deep_publish.b_tag with
        | Some tag ->
            ( `Element (ident row chain levels, tag, fields b row),
              ident row chain (levels - 1) )
        | None -> (`Values (fields b row), ident row chain levels)
      in
      Hashtbl.add below parent item)
    rows;
  let rec content ident =
    List.concat_map
      (function
        | `Element (id, tag, fs) -> [ Xml.element tag (fs @ content id) ]
        | `Values fs -> fs)
      (Hashtbl.find_all below ident)
  in
  Xml.element enc.Deep_publish.e_root_tag (content [])

let prop_views_agree =
  QCheck2.Test.make ~count:1000
    ~name:"random views: GApply = outer union = Reference"
    ~print:print_view_case gen_view_case (fun c ->
      let cat = view_catalog c in
      let run_plan (plan, enc) =
        let rows = Executor.run cat plan in
        if not (Relation.equal_as_multiset rows (Reference.run cat plan)) then
          QCheck2.Test.fail_report "executor rows differ from Reference";
        let cursor () = Seq.to_dispenser (List.to_seq (Relation.rows rows)) in
        let tree = Deep_publish.tag enc (cursor ()) in
        if not (Xml.equal_unordered tree (nest enc (Relation.rows rows))) then
          QCheck2.Test.fail_report "the tree differs from the nested rows";
        let buf = Buffer.create 256 in
        Deep_publish.tag_to_buffer enc (cursor ()) buf;
        if Buffer.contents buf <> Xml.to_string (Support.open_empty tree) then
          QCheck2.Test.fail_report "tag_to_buffer differs from the tree";
        (rows, tree)
      in
      let ga_rows, ga_doc = run_plan (Deep_publish.gapply_plan cat c.view) in
      let ou_rows, ou_doc =
        run_plan (Deep_publish.outer_union_plan cat c.view)
      in
      Relation.equal_as_multiset ga_rows ou_rows
      && Xml.equal_unordered ga_doc ou_doc)

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
    Alcotest.test_case "deep tagger rejects a repeated key" `Quick
      test_deep_tagger_rejects_repeated_key;
    Alcotest.test_case "encoding shape" `Quick test_encoding_shape;
    Alcotest.test_case "view validation" `Quick test_view_validation;
    Alcotest.test_case "sibling nodes sharing a tag" `Quick
      test_same_tag_siblings;
    QCheck_alcotest.to_alcotest prop_views_agree;
    Alcotest.test_case "the ORDER BY streams every GApply branch" `Quick
      test_branches_stream;
  ]
