(* publish and publish_deep: the paper's XML publishing pipeline run
   through the embedded API, closed loop on one thread.  Neither touches
   SQL text, the plan cache, the network layer or the WAL. *)

open Workload

type op = {
  work : Layers.catalog -> unit;
  output : unit -> string;  (** the document [work] just produced *)
}

let measure r cfg ~msf ~ops ~setup_checks ~rows =
  let n = Array.length ops in
  let cat =
    timed_setups r cfg (fun () ->
        let cat = Layers.tpch_catalog ~seed:cfg.seed ~msf in
        Array.iter (fun o -> o.work cat) ops;
        (cat, ignore))
  in
  setup_checks cat;
  (* every later document must be byte-identical to the first *)
  let expected =
    Array.map
      (fun o ->
        o.work cat;
        o.output ())
      ops
  in
  let work i = ops.(i mod n).work cat in
  let check i () = String.equal (ops.(i mod n).output ()) expected.(i mod n) in
  Stats.run_for ~seconds:(warmup cfg) work;
  let gc0 = Gc.quick_stat () and cpu0 = own_cpu_s () in
  let w = Stats.closed_loop ~seconds:cfg.seconds ~on_error ~work ~check in
  let gc1 = Gc.quick_stat () and cpu1 = own_cpu_s () in
  account r w;
  latency_metrics r w;
  let ops_done = float_of_int (Stats.attempted w) in
  cpu_metric r w ~cpu_s:(cpu1 -. cpu0 -. Stats.kernel_s w);
  metric r "peak_rss_mb" "MB" (Child.peak_rss_mb (Unix.getpid ()));
  if cfg.trace then begin
    layer r "runtime.minor_mwords_per_op" "Mwords"
      ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. ops_done /. 1e6);
    layer r "runtime.major_gcs_per_kop" "count"
      (1000.
      *. float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)
      /. ops_done);
    layer r "exec.rows_per_op" "count" (rows ());
    layer r "xmlpub.bytes_per_op" "B"
      (Array.fold_left (fun a d -> a +. float_of_int (String.length d)) 0. expected
      /. float_of_int n);
    let tw, spans =
      traced (fun () ->
          Stats.closed_loop ~seconds:cfg.seconds ~on_error
            ~work:(fun i -> Trace.op i (fun () -> work i))
            ~check)
    in
    account r tw;
    print_layer_table ~label:"in process" spans;
    span_layers r spans
      ~names:
        [
          ("xmlpub.plan", "xmlpub.plan_ms");
          ("exec.compile", "exec.compile_ms");
          ("exec.pull", "exec.pull_ms");
          ("xmlpub.tag", "xmlpub.tag_self_ms");
          ("xmlpub.serialize", "xmlpub.serialize_ms");
        ];
    tracing_overhead r ~untraced:w ~traced:tw;
    r.spans <- spans
  end

(* msf 0.5: 50 suppliers with ~80 parts each -- large groups. *)
let publish r cfg =
  let msf = 0.5 in
  let specs = Array.of_list Layers.figure1_specs in
  let buf = Buffer.create (1 lsl 20) in
  let ops =
    Array.map
      (fun d ->
        {
          work =
            (fun cat ->
              Buffer.clear buf;
              Layers.publish cat d buf);
          output = (fun () -> Buffer.contents buf);
        })
      specs
  in
  let rows = ref 0 in
  let setup_checks cat =
    let suppliers = Layers.suppliers ~msf in
    Array.iter
      (fun (d : Layers.doc_spec) ->
        rows := !rows + Layers.publish_rows cat d;
        check r
          (d.label ^ ": GApply document equals the sorted outer union")
          (Layers.publish_matches_outer_union cat d);
        if d.group_selection then begin
          let kept = Layers.published_parents cat d in
          check r
            (Printf.sprintf "%s keeps 20-80%% of %d suppliers (kept %d)"
               d.label suppliers kept)
            (5 * kept >= suppliers && 5 * kept <= 4 * suppliers)
        end)
      specs
  in
  measure r cfg ~msf ~ops ~setup_checks ~rows:(fun () ->
      float_of_int !rows /. float_of_int (Array.length specs))

(* msf 0.25: customer -> orders -> lineitem, 4-10 rows per group -- the
   fixed per-group cost dominates. *)
let publish_deep r cfg =
  let msf = 0.25 in
  let doc = ref "" in
  let ops =
    [|
      {
        work = (fun cat -> doc := Layers.publish_deep cat);
        output = (fun () -> !doc);
      };
    |]
  in
  let rows = ref 0 in
  let setup_checks cat =
    rows := Layers.deep_rows cat;
    check r "deep GApply document equals the sorted outer union"
      (Layers.deep_matches_outer_union cat)
  in
  measure r cfg ~msf ~ops ~setup_checks ~rows:(fun () -> float_of_int !rows)
