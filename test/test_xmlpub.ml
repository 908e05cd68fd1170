(* XML publishing tests: serializer, views, both publishing pipelines
   (sorted outer union vs GApply), the constant-space tagger, and the
   FLWR queries of the paper. *)

open Support

let cat = lazy (mini_catalog ())

(* ---------- xml model ---------- *)

let test_serializer () =
  let doc =
    Xml.element "a" ~attrs:[ ("k", "v") ]
      [ Xml.element "b" [ Xml.text "x<y&z" ]; Xml.element "c" [] ]
  in
  Alcotest.(check string) "serialized"
    "<a k=\"v\"><b>x&lt;y&amp;z</b><c/></a>" (Xml.to_string doc)

let test_escape () =
  let plain = "no markup here" in
  Alcotest.(check bool) "nothing to escape: the input itself" true
    (Xml.escape plain == plain);
  Alcotest.(check string) "every special character" "&lt;a&gt; &amp; &quot;b&quot;"
    (Xml.escape "<a> & \"b\"");
  let buf = Buffer.create 16 in
  Buffer.add_string buf "[";
  Xml.escape_into buf "x<y";
  Xml.escape_into buf "";
  Xml.escape_into buf "&";
  Alcotest.(check string) "escape_into appends" "[x&lt;y&amp;" (Buffer.contents buf)

(* The escape kernel against a per-character escaper, on arbitrary
   bytes with the four special ones over-represented. *)
let prop_escape_matches_reference =
  let reference s =
    String.concat ""
      (List.map
         (function
           | '<' -> "&lt;"
           | '>' -> "&gt;"
           | '&' -> "&amp;"
           | '"' -> "&quot;"
           | c -> String.make 1 c)
         (List.of_seq (String.to_seq s)))
  in
  QCheck2.Test.make ~count:1000 ~name:"escape = per-character reference"
    ~print:String.escaped
    QCheck2.Gen.(
      string_of
        (frequency [ (3, char); (1, oneofl [ '<'; '>'; '&'; '"' ]) ]))
    (fun s ->
      let want = reference s in
      let buf = Buffer.create 8 in
      Buffer.add_string buf "pre";
      Xml.escape_into buf s;
      Xml.escape s = want
      && Buffer.contents buf = "pre" ^ want
      && (want <> s || Xml.escape s == s)
      (* [to_string] sizes its output before writing it *)
      && Xml.to_string (Xml.element "t" ~attrs:[ ("k", s) ] [ Xml.text s ])
         = "<t k=\"" ^ want ^ "\">" ^ want ^ "</t>"
      && Xml.to_string (Xml.element "t" ~attrs:[ ("k", s); ("j", s) ] [])
         = "<t k=\"" ^ want ^ "\" j=\"" ^ want ^ "\"/>")

let test_canonicalize_unordered () =
  let d1 = Xml.element "a" [ Xml.element "b" []; Xml.element "c" [] ] in
  let d2 = Xml.element "a" [ Xml.element "c" []; Xml.element "b" [] ] in
  Alcotest.(check bool) "sibling order ignored" true
    (Xml.equal_unordered d1 d2);
  let d3 = Xml.element "a" [ Xml.element "b" [] ] in
  Alcotest.(check bool) "different content differs" false
    (Xml.equal_unordered d1 d3)

(* ---------- publishing the figure-1 view ---------- *)

let spec () = Publish.of_view Xml_view.figure1

let publish_both cat spec =
  let ou = Tagger.publish ~strategy:Tagger.Sorted_outer_union cat spec in
  let ga = Tagger.publish ~strategy:Tagger.Gapply_pass cat spec in
  Alcotest.(check bool) "pipelines publish the same document" true
    (Xml.equal_unordered ou ga);
  ou

let count_elements tag doc =
  let rec go acc = function
    | Xml.Text _ -> acc
    | Xml.Element (t, _, children) ->
        List.fold_left go (if String.equal t tag then acc + 1 else acc)
          children
  in
  go 0 doc

let test_figure1_pipelines_agree () =
  let cat = Lazy.force cat in
  let doc = publish_both cat (spec ()) in
  Alcotest.(check int) "3 suppliers" 3 (count_elements "supplier" doc);
  Alcotest.(check int) "5 parts" 5 (count_elements "part" doc)

let test_parent_without_children_is_published () =
  let cat = Lazy.force cat in
  let doc = publish_both cat (spec ()) in
  (* Initech supplies nothing but must still appear *)
  let rec contains_text needle = function
    | Xml.Text s -> String.equal s needle
    | Xml.Element (_, _, children) -> List.exists (contains_text needle) children
  in
  Alcotest.(check bool) "childless supplier present" true
    (contains_text "Initech" doc)

let test_q1_flwr () =
  let cat = Lazy.force cat in
  let spec = Flwr.compile Flwr.q1 in
  let doc = publish_both cat spec in
  Alcotest.(check int) "an avg_price per supplier with parts" 2
    (count_elements "avg_price" doc)

let test_exists_flwr () =
  let cat = Lazy.force cat in
  let spec = Flwr.compile (Flwr.expensive_part_suppliers 35.) in
  let doc = publish_both cat spec in
  (* only Globex (part at 40) qualifies *)
  Alcotest.(check int) "one supplier" 1 (count_elements "supplier" doc);
  Alcotest.(check int) "its two parts" 2 (count_elements "part" doc)

let test_aggregate_flwr () =
  let cat = Lazy.force cat in
  let spec = Flwr.compile (Flwr.high_average_suppliers 22.) in
  let doc = publish_both cat spec in
  (* Globex has avg 30 > 22; Acme has avg 20 *)
  Alcotest.(check int) "one supplier" 1 (count_elements "supplier" doc)

let test_flwr_rendering () =
  let s = Flwr.to_xquery (Flwr.expensive_part_suppliers 1000.) in
  Alcotest.(check bool) "mentions Where" true
    (String.length s > 0
    && (try
          ignore (String.index s 'W');
          true
        with Not_found -> false))

let test_streaming_tagger_matches_tree () =
  let cat = Lazy.force cat in
  let plan, enc = Publish.outer_union_plan cat (spec ()) in
  let run () =
    let compiled = Compile.plan plan in
    compiled.Compile.run (Env.make cat)
  in
  let tree = Deep_publish.tag enc (run ()) in
  let buf = Buffer.create 256 in
  Tagger.tag_to_buffer enc (run ()) buf;
  Alcotest.(check string) "streaming output equals tree serialization"
    (Xml.to_string tree) (Buffer.contents buf)

let test_tagger_rejects_unclustered_stream () =
  let cat = Lazy.force cat in
  let plan, enc = Publish.outer_union_plan cat (spec ()) in
  (* strip the order-by: the unordered union puts all parents first, so
     child rows arrive while another parent is open *)
  let unordered =
    match plan with
    | Plan.Order_by { input; _ } -> input
    | p -> p
  in
  let compiled = Compile.plan unordered in
  Alcotest.(check bool) "raises on unclustered input" true
    (try
       ignore (Deep_publish.tag enc (compiled.Compile.run (Env.make cat)));
       false
     with Errors.Exec_error _ -> true)

let test_pipelines_on_tpch () =
  let cat = Tpch_gen.catalog ~msf:0.05 () in
  let doc = publish_both cat (Flwr.compile Flwr.q1) in
  Alcotest.(check bool) "non-trivial document" true
    (count_elements "part" doc > 10)

(* MD5 of the streamed Figure-1 documents, taken before the tagger
   wrote markup straight into the buffer.  msf 0.5 is the publish
   benchmark's scale, the smallest at which both group-selection specs
   keep suppliers. *)
let figure1_digests =
  [
    ("view", Publish.of_view Xml_view.figure1, "4961f9ce6e4e968b64f231b8ae9df451");
    ("q1", Flwr.compile Flwr.q1, "4eb7ed73b322ed7afa2b8eb29f273eb4");
    ("q1_extended", Flwr.compile Flwr.q1_extended, "f2a0749aa5a04fb1e464a1678d60604e");
    ( "exists_1890",
      Flwr.compile (Flwr.expensive_part_suppliers 1890.),
      "b753c10c5fef9e6ebc0a167fc21b4fc9" );
    ( "avg_1400",
      Flwr.compile (Flwr.high_average_suppliers 1400.),
      "94b13abc132279f8c74b5cd2e8c9983d" );
  ]

let tpch_half = lazy (Tpch_gen.catalog ~msf:0.5 ())

let test_figure1_documents_pinned () =
  let cat = Lazy.force tpch_half in
  List.iter
    (fun (label, spec, digest) ->
      let plan, enc = Publish.gapply_plan cat spec in
      let buf = Buffer.create (1 lsl 16) in
      Tagger.tag_to_buffer enc ((Compile.plan plan).Compile.run (Env.make cat)) buf;
      let doc = Buffer.contents buf in
      Alcotest.(check string) (label ^ ": streamed bytes") digest
        (Digest.to_hex (Digest.string doc));
      Alcotest.(check string) (label ^ ": tree serialization") doc
        (Xml.to_string (Tagger.publish cat spec)))
    figure1_digests

(* Order-aware publishing: every GApply branch reaches the final ORDER
   BY as one presorted run (clustered groups, node ids ascending in each
   group), so the sort only merges a few runs.  Unclustered, the input
   had 23-39 runs per spec. *)
let test_figure1_presorted_runs () =
  let cat = Lazy.force tpch_half in
  List.iter
    (fun (label, spec, _) ->
      let runs, bound =
        Publish.presorted_runs cat (fst (Publish.gapply_plan cat spec))
      in
      if runs > bound then
        Alcotest.failf "%s: %d runs reach the ORDER BY, bound %d" label runs
          bound)
    figure1_digests

(* ...and the ORDER BY streams each of those branches: its order
   property covers the leading ORDER BY key. *)
let test_figure1_branches_stream () =
  let cat = Lazy.force tpch_half in
  List.iter
    (fun (label, spec, _) ->
      Support.check_gapply_branches_stream label
        (fst (Publish.gapply_plan cat spec)))
    figure1_digests

(* The five Figure-1 specs and the 3-level view at the publish
   workload's scale: both strategies publish the same document, and
   every GApply runs its per-group query as the group-local loop, the
   selecting GApply of a group selection (its EXISTS guard, Distinct top
   row, child rows and aggregates) included.  Each group selection
   keeps some suppliers, so no case
   compares empty documents.  (Streamed bytes = tree bytes and the
   presorted runs are pinned by the tests above and in deep-publish.) *)
let test_pipeline_invariants () =
  let cat = Lazy.force tpch_half in
  let deep = Deep_view.customer_orders in
  let cases =
    List.map
      (fun (label, spec, _) ->
        ( label,
          fst (Publish.gapply_plan cat spec),
          Tagger.publish ~strategy:Tagger.Sorted_outer_union cat spec,
          Tagger.publish ~strategy:Tagger.Gapply_pass cat spec ))
      figure1_digests
    @ [
        ( "3-level",
          fst (Deep_publish.gapply_plan cat deep),
          Deep_publish.publish ~strategy:Deep_publish.Sorted_outer_union cat deep,
          Deep_publish.publish ~strategy:Deep_publish.Gapply_pass cat deep );
      ]
  in
  List.iter
    (fun (label, plan, outer_union_doc, doc) ->
      Alcotest.(check bool) (label ^ ": outer union = GApply document") true
        (Xml.equal_unordered outer_union_doc doc);
      let gapplies, group_local =
        Plan.fold
          (fun (n, local) -> function
            | Plan.G_apply { var; pgq; _ } ->
                (n + 1, if Compile.group_local ~var pgq then local + 1 else local)
            | _ -> (n, local))
          (0, 0) plan
      in
      let selection = List.mem label [ "exists_1890"; "avg_1400" ] in
      Alcotest.(check bool) (label ^ ": has a GApply") true (gapplies > 0);
      Alcotest.(check int) (label ^ ": GApplies on the cursor chain") 0
        (gapplies - group_local);
      if selection then
        Alcotest.(check bool) (label ^ ": some suppliers published") true
          (count_elements "supplier" doc > 0))
    cases

(* Every Int and Float cell of Q1-Q4 and of the five Figure-1 tagger
   streams at the publish workload's scale: [Value.to_string] renders
   it as [Printf]'s %.12g rule and [string_of_int] do. *)
let test_number_cells_render_like_printf () =
  let cat = Lazy.force tpch_half in
  let rows plan = Cursor.to_array ((Compile.plan plan).Compile.run (Env.make cat)) in
  let tables =
    List.map
      (fun (name, sql, _) ->
        (name, rows (Sql_binder.bind_query cat (Sql_parser.parse_query_string sql))))
      Workloads.figure8_queries
    @ List.map
        (fun (label, spec, _) -> (label, rows (fst (Publish.gapply_plan cat spec))))
        figure1_digests
  in
  List.iter
    (fun (name, rows) ->
      Array.iter
        (Array.iter (fun v ->
             let expected =
               match v with
               | Value.Float f -> Some (Test_value.printf_float_rule f)
               | Value.Int i -> Some (string_of_int i)
               | _ -> None
             in
             Option.iter
               (fun e -> Alcotest.(check string) (name ^ ": number cell") e (Value.to_string v))
               expected))
        rows)
    tables

(* ---------- group selection in the GApply plan ---------- *)

(* Section 4.2's "Return $s": select suppliers by their parts without
   publishing the parts.  The selecting child is not among the view's
   children, and both strategies must still filter on it. *)
let test_parent_only_selection () =
  let cat = Lazy.force tpch_half in
  let parents_of where =
    let doc =
      publish_both cat
        (Flwr.compile
           (Flwr.make Xml_view.figure1 ~where ~returns:[ Flwr.Parent_fields ]))
    in
    Alcotest.(check int) "no part elements" 0 (count_elements "part" doc);
    count_elements "supplier" doc
  in
  let count_in q =
    count_elements "supplier" (Tagger.publish cat (Flwr.compile q))
  in
  Alcotest.(check int) "exists: the 37 suppliers of exists_1890" 37
    (count_in (Flwr.expensive_part_suppliers 1890.));
  Alcotest.(check int) "exists: the same suppliers without their parts" 37
    (parents_of (Flwr.Some_child ("part", "p_retailprice", Expr.Gt, 1890.)));
  Alcotest.(check int) "avg: the same suppliers without their parts"
    (count_in (Flwr.high_average_suppliers 1400.))
    (parents_of
       (Flwr.Child_agg_cmp (Expr.Avg, "part", "p_retailprice", Expr.Gt, 1400.)))

(* Node counts outside any per-group query: the plan around the GApply
   operators, and each GApply's outer input, but not its PGQ. *)
let rec count_outside_pgq pred plan =
  let here = if pred plan then 1 else 0 in
  match plan with
  | Plan.G_apply { outer; _ } -> here + count_outside_pgq pred outer
  | p ->
      List.fold_left
        (fun n c -> n + count_outside_pgq pred c)
        here (Plan.children p)

let test_group_selection_plan_shape () =
  let cat = Lazy.force tpch_half in
  List.iter
    (fun (label, q) ->
      let plan, _ = Publish.gapply_plan cat (Flwr.compile q) in
      let count pred =
        Plan.fold (fun n p -> if pred p then n + 1 else n) 0 plan
      in
      Alcotest.(check int) (label ^ ": one scan of partsupp") 1
        (count (function
          | Plan.Table_scan { table = "partsupp"; _ } -> true
          | _ -> false));
      Alcotest.(check int) (label ^ ": one GApply") 1
        (count (function Plan.G_apply _ -> true | _ -> false));
      Alcotest.(check int) (label ^ ": no Distinct/Group_by outside the PGQ") 0
        (count_outside_pgq
           (function Plan.Distinct _ | Plan.Group_by _ -> true | _ -> false)
           plan))
    [
      ("exists_1890", Flwr.expensive_part_suppliers 1890.);
      ("avg_1400", Flwr.high_average_suppliers 1400.);
    ]

(* Both strategies against each other and against the reference
   evaluator, on random suppliers with two children: parts (through
   partsupp) and lineitems.  Either child may carry the predicate, be
   published or not, and have rows whose link is NULL.  Prices are
   multiples of 0.25, so sums and averages are exact in any order.
   Supplier and part names at times hold bytes XML escapes, and in some
   cases the tables are dictionary-encoded, so names reach the tagger
   both as [Sym] handles and as plain [Str]. *)

module Gen = QCheck2.Gen

type selection_case = {
  snames : string list;  (* supplier k's name is element k - 1 *)
  prices : float list;  (* part k's price is element k - 1 *)
  pnames : string list;  (* and its name *)
  partsupp : (int option * int) list;
  lineitems : (int option * int * float) list;
  where : Flwr.predicate;
  publish_parts : bool;
  publish_lineitems : bool;
  derived : bool;
  dict : bool;  (* string columns dictionary-encoded *)
}

let lineitem_child =
  {
    Xml_view.c_tag = "lineitem";
    c_query = "select l_suppkey, l_orderkey, l_extendedprice from lineitem";
    c_link = [ "l_suppkey" ];
    c_fields =
      [ ("l_orderkey", "l_orderkey"); ("l_extendedprice", "l_extendedprice") ];
  }

let two_child_view =
  Xml_view.validate
    {
      Xml_view.figure1 with
      Xml_view.children =
        Xml_view.figure1.Xml_view.children @ [ lineitem_child ];
    }

let selection_catalog c =
  let cat = Catalog.create () in
  let table name cols rows =
    let t = with_dict c.dict (fun () -> Table.create name cols) in
    Table.insert_all t rows;
    Catalog.add_table cat t
  in
  let link = function Some k -> vi k | None -> vnull in
  table "supplier"
    [ ("s_suppkey", Datatype.Int); ("s_name", Datatype.Str) ]
    (List.mapi (fun i name -> row [ vi (i + 1); vs name ]) c.snames);
  table "part"
    [ ("p_partkey", Datatype.Int); ("p_name", Datatype.Str);
      ("p_retailprice", Datatype.Float) ]
    (List.mapi
       (fun i (p, name) -> row [ vi (i + 1); vs name; vf p ])
       (List.combine c.prices c.pnames));
  table "partsupp"
    [ ("ps_suppkey", Datatype.Int); ("ps_partkey", Datatype.Int) ]
    (List.map (fun (s, p) -> row [ link s; vi p ]) c.partsupp);
  table "lineitem"
    [ ("l_suppkey", Datatype.Int); ("l_orderkey", Datatype.Int);
      ("l_extendedprice", Datatype.Float) ]
    (List.map (fun (s, o, p) -> row [ link s; vi o; vf p ]) c.lineitems);
  cat

let selection_query c =
  let children =
    (if c.publish_parts then [ ("part", "p_retailprice", Expr.Avg) ] else [])
    @ (if c.publish_lineitems then [ ("lineitem", "l_extendedprice", Expr.Max) ]
       else [])
  in
  Flwr.make two_child_view ~where:c.where
    ~returns:
      (Flwr.Parent_fields
      :: List.map (fun (tag, _, _) -> Flwr.Nested_children tag) children
      @
      if c.derived then
        List.map
          (fun (tag, col, fn) ->
            Flwr.Child_aggregate (fn, tag, col, tag ^ "_agg"))
          children
      else [])

let gen_selection_case =
  let open Gen in
  let price = map (fun q -> float_of_int q *. 0.25) (int_range 4 80) in
  let* snames = list_size (int_range 1 4) gen_markup_text in
  let nsupp = List.length snames in
  let* prices = list_size (int_range 1 4) price in
  let nparts = List.length prices in
  let* pnames = list_repeat nparts gen_markup_text in
  let link =
    frequency [ (1, pure None); (5, map Option.some (int_range 1 nsupp)) ]
  in
  let* partsupp = list_size (int_range 0 8) (pair link (int_range 1 nparts)) in
  let* lineitems =
    list_size (int_range 0 8) (triple link (int_range 1 20) price)
  in
  let* on_lineitems = bool in
  let tag, col, values =
    if on_lineitems then
      ("lineitem", "l_extendedprice", List.map (fun (_, _, p) -> p) lineitems)
    else
      ( "part", "p_retailprice",
        List.map (fun (_, p) -> List.nth prices (p - 1)) partsupp )
  in
  let values = if values = [] then prices else values in
  let lo = List.fold_left Float.min infinity values in
  let hi = List.fold_left Float.max neg_infinity values in
  let* bound =
    oneof
      [
        pure (lo -. 1.);
        oneofl values;
        map (fun f -> lo +. (f *. (hi -. lo))) (float_bound_inclusive 1.);
        pure (hi +. 1.);
      ]
  in
  let* op = oneofl [ Expr.Gt; Expr.Gte; Expr.Lt; Expr.Lte ] in
  let* where =
    oneof
      [
        pure (Flwr.Some_child (tag, col, op, bound));
        map
          (fun fn -> Flwr.Child_agg_cmp (fn, tag, col, op, bound))
          (oneofl [ Expr.Avg; Expr.Min; Expr.Max; Expr.Sum; Expr.Count ]);
      ]
  in
  let* publish_parts = bool in
  let* publish_lineitems = bool in
  let* derived = bool in
  let* dict = bool in
  return
    { snames; prices; pnames; partsupp; lineitems; where; publish_parts;
      publish_lineitems; derived; dict }

let print_selection_case c =
  let link = function Some k -> string_of_int k | None -> "NULL" in
  let names l = String.concat "; " (List.map (Printf.sprintf "%S") l) in
  Printf.sprintf
    "%s\n%ssuppliers [%s], prices [%s], part names [%s]\npartsupp \
     [%s]\nlineitem [%s]"
    (Flwr.to_xquery (selection_query c))
    (if c.dict then "dictionary-encoded\n" else "")
    (names c.snames)
    (String.concat "; " (List.map string_of_float c.prices))
    (names c.pnames)
    (String.concat "; "
       (List.map
          (fun (s, p) -> Printf.sprintf "(%s,%d)" (link s) p)
          c.partsupp))
    (String.concat "; "
       (List.map
          (fun (s, o, p) -> Printf.sprintf "(%s,%d,%g)" (link s) o p)
          c.lineitems))

let prop_strategies_agree =
  QCheck2.Test.make ~count:300
    ~name:"group selection: GApply = outer union = Reference"
    ~print:print_selection_case gen_selection_case (fun c ->
      let cat = selection_catalog c in
      let spec = Flwr.compile (selection_query c) in
      let run_plan (plan, enc) =
        let rows = Executor.run cat plan in
        if not (Relation.equal_as_multiset rows (Reference.run cat plan)) then
          QCheck2.Test.fail_report "executor rows differ from Reference";
        let cursor () = Seq.to_dispenser (List.to_seq (Relation.rows rows)) in
        let tree = Deep_publish.tag enc (cursor ()) in
        let buf = Buffer.create 256 in
        Tagger.tag_to_buffer enc (cursor ()) buf;
        if Buffer.contents buf <> Xml.to_string (open_empty tree) then
          QCheck2.Test.fail_report "tag_to_buffer differs from the tree";
        (rows, tree)
      in
      let ga_rows, ga_doc = run_plan (Publish.gapply_plan cat spec) in
      let ou_rows, ou_doc = run_plan (Publish.outer_union_plan cat spec) in
      Relation.equal_as_multiset ga_rows ou_rows
      && Xml.equal_unordered ga_doc ou_doc)

let suite =
  [
    Alcotest.test_case "serializer + escaping" `Quick test_serializer;
    Alcotest.test_case "escape allocates only when it must" `Quick test_escape;
    QCheck_alcotest.to_alcotest prop_escape_matches_reference;
    Alcotest.test_case "Figure-1 documents match pinned digests" `Quick
      test_figure1_documents_pinned;
    Alcotest.test_case "unordered canonical comparison" `Quick
      test_canonicalize_unordered;
    Alcotest.test_case "figure-1 pipelines agree" `Quick
      test_figure1_pipelines_agree;
    Alcotest.test_case "childless parent is published" `Quick
      test_parent_without_children_is_published;
    Alcotest.test_case "FLWR Q1 (nested + aggregate)" `Quick test_q1_flwr;
    Alcotest.test_case "FLWR existential selection" `Quick test_exists_flwr;
    Alcotest.test_case "FLWR aggregate selection" `Quick test_aggregate_flwr;
    Alcotest.test_case "FLWR rendering" `Quick test_flwr_rendering;
    Alcotest.test_case "streaming tagger = tree tagger" `Quick
      test_streaming_tagger_matches_tree;
    Alcotest.test_case "tagger rejects unclustered input" `Quick
      test_tagger_rejects_unclustered_stream;
    Alcotest.test_case "pipelines agree on TPC-H data" `Quick
      test_pipelines_on_tpch;
    Alcotest.test_case "GApply branches reach the ORDER BY presorted" `Quick
      test_figure1_presorted_runs;
    Alcotest.test_case "pipeline: same documents, group-local GApplies"
      `Quick test_pipeline_invariants;
    Alcotest.test_case "number cells render like Printf" `Quick
      test_number_cells_render_like_printf;
    Alcotest.test_case "selection by an unpublished child" `Quick
      test_parent_only_selection;
    Alcotest.test_case "group selection scans the child query once" `Quick
      test_group_selection_plan_shape;
    QCheck_alcotest.to_alcotest prop_strategies_agree;
    Alcotest.test_case "the ORDER BY streams every GApply branch" `Quick
      test_figure1_branches_stream;
  ]
