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
  let tree = Tagger.tag enc (run ()) in
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
       ignore (Tagger.tag enc (compiled.Compile.run (Env.make cat)));
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

let test_figure1_documents_pinned () =
  let cat = Tpch_gen.catalog ~msf:0.5 () in
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

let suite =
  [
    Alcotest.test_case "serializer + escaping" `Quick test_serializer;
    Alcotest.test_case "escape allocates only when it must" `Quick test_escape;
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
  ]
