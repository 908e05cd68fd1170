(* The benchmark's only adapter onto the engine.

   Every call into lib/ made by perf/ lives here and goes through a
   public facade (Engine, Tpch_gen, Publish, Deep_publish, Tagger, Xml,
   Flwr, Sql_parser, Sql_binder, Optimizer, Compile.plan, Executor,
   Wire, Net_client, Relation.pp), so an engine refactor breaks this
   file and no other.  The spans of the traced run are opened here,
   around each layer's call. *)

(* ---------- embedded publishing ---------- *)

type catalog = Catalog.t

let tpch_catalog ~seed ~msf = Tpch_gen.catalog ~seed ~msf ()
let suppliers ~msf = (Tpch_gen.scale_of_msf msf).Tpch_gen.suppliers

type doc_spec = {
  label : string;
  spec : Publish.spec;
  group_selection : bool;  (** keeps a subset of the suppliers *)
}

(* The five Figure-1 publishing specs.  The group-selection bounds sit
   inside the per-supplier price ranges (max <= 1901, average ~1400),
   so each keeps part of the suppliers; setup checks the share. *)
let figure1_specs =
  let d label ?(group_selection = false) spec = { label; spec; group_selection } in
  [
    d "view" (Publish.of_view Xml_view.figure1);
    d "q1" (Flwr.compile Flwr.q1);
    d "q1_extended" (Flwr.compile Flwr.q1_extended);
    d "exists_1890" ~group_selection:true
      (Flwr.compile (Flwr.expensive_part_suppliers 1890.));
    d "avg_1400" ~group_selection:true
      (Flwr.compile (Flwr.high_average_suppliers 1400.));
  ]

(** Publish one document into [buf]: plan, compile, execute and tag,
    each call in its own span. *)
let publish cat d buf =
  let plan, enc =
    Trace.span "xmlpub.plan" (fun () -> Publish.gapply_plan cat d.spec)
  in
  let compiled = Trace.span "exec.compile" (fun () -> Compile.plan plan) in
  Trace.with_pulls "xmlpub.tag" (fun wrap ->
      Tagger.tag_to_buffer enc (wrap (compiled.Compile.run (Env.make cat))) buf)

let publish_matches_outer_union cat d =
  Xml.equal_unordered
    (Tagger.publish ~strategy:Tagger.Sorted_outer_union cat d.spec)
    (Tagger.publish ~strategy:Tagger.Gapply_pass cat d.spec)

(** Number of top-level elements (suppliers) in the published document. *)
let published_parents cat d =
  match Tagger.publish cat d.spec with
  | Xml.Element (_, _, kids) -> List.length kids
  | Xml.Text _ -> 0

let publish_rows cat d = Executor.run_count cat (fst (Publish.gapply_plan cat d.spec))

(** The three-level customer -> orders -> lineitem document, serialized. *)
let publish_deep cat =
  let v = Deep_view.customer_orders in
  let plan, enc =
    Trace.span "xmlpub.plan" (fun () -> Deep_publish.gapply_plan cat v)
  in
  let compiled = Trace.span "exec.compile" (fun () -> Compile.plan plan) in
  let doc =
    Trace.with_pulls "xmlpub.tag" (fun wrap ->
        Deep_publish.tag enc (wrap (compiled.Compile.run (Env.make cat))))
  in
  Trace.span "xmlpub.serialize" (fun () -> Xml.to_string doc)

let deep_matches_outer_union cat =
  let v = Deep_view.customer_orders in
  Xml.equal_unordered
    (Deep_publish.publish ~strategy:Deep_publish.Sorted_outer_union cat v)
    (Deep_publish.publish ~strategy:Deep_publish.Gapply_pass cat v)

let deep_rows cat =
  Executor.run_count cat
    (fst (Deep_publish.gapply_plan cat Deep_view.customer_orders))

(* ---------- SQL texts ---------- *)

(** Figure 8 Q1-Q4 in their GApply formulation. *)
let figure8 = List.map (fun (n, g, _) -> (n, g)) Workloads.figure8_queries

(** Table 1 rule families, each parameterized by one price bound. *)
let rule_families =
  [
    ("selection", fun b -> Workloads.rule_selection_query ~price_bound:b);
    ("exists", fun b -> Workloads.rule_exists_query ~price_bound:b);
    ("aggregate", fun b -> Workloads.rule_aggregate_selection_query ~avg_bound:b);
    ("invariant", fun b -> Workloads.rule_invariant_query ~price_bound:b);
  ]

let events_ddl = "create table events (id int, k int, v int)"

let events_report =
  "select gapply(select count(*) as n, sum(v) as sv from g) from events \
   group by k : g"

let events_count = "select count(*) as n from events"

(* ---------- engines for the server workloads ---------- *)

type engine = Engine.t

type reply =
  | Rows of { count : int; body : string }
  | Ack of string
  | Shed
  | Error of string

let reply_of_outcome = function
  | Engine.Rows rel ->
      Rows
        {
          count = Relation.cardinality rel;
          body = Format.asprintf "%a" Relation.pp rel;
        }
  | Engine.Message m -> Ack m
  | Engine.Explanation e -> Error ("explanation: " ^ e)
  | Engine.Failed e -> Error (Printexc.to_string e)

(** A strict-durability engine on [dir] holding the seeded TPC-H data
    (plus the empty events table when [events]), checkpointed so a
    server recovers it from one snapshot.  [server_like] applies the
    settings gapply_server runs with. *)
let open_db ?(server_like = false) ~dir ~seed ~msf ~events () =
  let db = Engine.create ~parallelism:1 ~data_dir:dir () in
  if server_like then Engine.set_always_governed db true;
  Engine.load_tpch ~seed db ~msf;
  if events then
    (match Engine.exec db events_ddl with
    | Engine.Message _ -> ()
    | o -> (
        match reply_of_outcome o with
        | Error m -> failwith m
        | _ -> failwith "create table events: unexpected outcome"));
  ignore (Engine.checkpoint db);
  db

let close_db = Engine.close

(** The in-process answer to [sql], rendered as the server renders it. *)
let reference db sql = reply_of_outcome (Engine.exec db sql)

(** The trimmed data cells of a rendered result table, row by row.  The
    header is skipped: it may carry engine-generated column names that
    depend on what the process bound before, and it sets the padding. *)
let data_rows body =
  match
    List.filter
      (fun l -> String.length l > 1 && l.[0] = '|')
      (String.split_on_char '\n' body)
  with
  | [] -> []
  | _header :: rows ->
      List.map
        (fun l -> List.map String.trim (String.split_on_char '|' l))
        rows

(** Whether two rendered result tables hold the same rows. *)
let same_table a b =
  String.equal a b || data_rows a = data_rows b

(** Sum of the integer column [col] of a rendered result table. *)
let column_sum body ~col =
  List.fold_left
    (fun acc cells ->
      match List.nth_opt cells (col + 1) with
      | Some c -> acc + Option.value ~default:0 (int_of_string_opt c)
      | None -> acc)
    0 (data_rows body)

(* ---------- wire client ---------- *)

type conn = Net_client.t

let reply_of_wire = function
  | Wire.Rows { count; body } -> Rows { count; body }
  | Wire.Message m -> Ack m
  | Wire.Overloaded _ -> Shed
  | Wire.Failed { cls; message } -> Error (cls ^ ": " ^ message)
  | _ -> Error "unexpected response kind"

let connect port = Net_client.connect ~port ()
let query c sql = reply_of_wire (Net_client.query c sql)
let quit c = try ignore (Net_client.quit c) with _ -> Net_client.close c

(* ---------- in-process replay of recorded traffic ---------- *)

type session = Engine.session

let session = Engine.new_session

(** What the server does for one statement, split at its layers:
    execute, render the reply table, encode and decode the frame. *)
let replay_served sess sql =
  let o = Trace.span "engine.exec" (fun () -> Engine.exec_session sess sql) in
  match o with
  | Engine.Rows rel ->
      let body =
        Trace.span "net.render" (fun () -> Format.asprintf "%a" Relation.pp rel)
      in
      let resp = Wire.Rows { count = Relation.cardinality rel; body } in
      let tag, payload =
        Trace.span "net.encode" (fun () -> Wire.encode_response resp)
      in
      reply_of_wire
        (Trace.span "net.decode" (fun () -> Wire.decode_response tag payload))
  | o -> reply_of_outcome o

(** A query's cold path, one span per public function. *)
let replay_decomposed db sql =
  let cat = Engine.catalog db in
  let ast = Trace.span "sql.parse" (fun () -> Sql_parser.parse_query_string sql) in
  let plan = Trace.span "sql.bind" (fun () -> Sql_binder.bind_query cat ast) in
  let plan =
    Trace.span "optimizer.optimize" (fun () ->
        (Optimizer.optimize ~cbo:(Engine.cbo_enabled db) cat plan).Optimizer.plan)
  in
  let compiled =
    Trace.span "exec.compile" (fun () ->
        Compile.plan ~config:(Compile.config_with ~parallelism:1 ()) plan)
  in
  Relation.cardinality
    (Trace.span "exec.run" (fun () -> Executor.run_compiled cat compiled))

(** A write, timed as one commit. *)
let replay_commit sess sql =
  reply_of_outcome
    (Trace.span "store.commit" (fun () -> Engine.exec_session sess sql))

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  stats_epoch : int;
  fsyncs : int;
  wal_bytes : int;
}

let counters db =
  let c = Cache_stats.snapshot (Plan_cache.stats (Engine.plan_cache db)) in
  let fsyncs, wal_bytes =
    match Engine.wal_stats db with
    | Some w -> (w.Wal_stats.fsyncs, w.Wal_stats.bytes)
    | None -> (0, 0)
  in
  {
    hits = c.Cache_stats.hits;
    misses = c.Cache_stats.misses;
    evictions = c.Cache_stats.evictions;
    invalidations = c.Cache_stats.invalidations;
    stats_epoch = Catalog.stats_epoch (Engine.catalog db);
    fsyncs;
    wal_bytes;
  }
