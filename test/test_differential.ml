(* Differential harness: every physical configuration computes the
   paper's semantics.

   The oracle is [Reference] (the literal Section 3 formula, sharing no
   machinery with the compiler), run on the bound, unoptimized plan.
   Each case runs under every configuration of [configs], a fixed
   pairwise-covering set over the engine's knobs: for any two knobs,
   every pair of their values appears in at least one configuration.
   Under a configuration a case runs twice:

   - through the engine, with the configuration's optimizer, CBO,
     partitioning and parallelism knobs, on the catalog loaded with or
     without dictionary encoding, and down the plan cache's cold path,
     as a warm hit, or as a prepared handle;
   - as the engine's effective plan, compiled at the configuration's
     batch size.

   Both results must be multiset-equal to the reference, with no
   tolerance; a case that ends in an ORDER BY must also come out sorted
   on its keys, in their directions; and the engines' metrics must stay
   conserved.

   The cases are Q1-Q4, the Figure-1 and 3-level publishing plans (no
   SQL text, so the plan cache does not apply to them), and random
   well-typed SQL from a grammar over the TPC-H tables: GApply with
   nested per-group queries, exists and aggregate group selection (the
   Table 1 families), correlated scalar and EXISTS subqueries, IN
   subqueries, CASE, joins, grouping and ORDER BY.  A random query is generated as an AST and
   printed, so a failure shrinks to a short SQL string.  Run longer
   with QCHECK_LONG=1. *)

module Gen = QCheck2.Gen
open Sql_ast

let ( let* ) = Gen.( let* )

(* ---------- the knobs and their pairwise-covering set ---------- *)

type cache_mode = Cold | Warm | Prepared

type config = {
  optimize : bool;
  cbo : bool;
  partition : Compile.partition_strategy;
  parallelism : int;
  batch_size : int;
  dict : bool;
  cache : cache_mode;
}

let cache_name = function
  | Cold -> "cold"
  | Warm -> "warm"
  | Prepared -> "prepared"

let config_name c =
  Printf.sprintf
    "optimize=%b cbo=%b partition=%s parallelism=%d batch=%d dict=%b cache=%s"
    c.optimize c.cbo
    (match c.partition with
    | Compile.Hash_partition -> "hash"
    | Compile.Sort_partition -> "sort")
    c.parallelism c.batch_size c.dict (cache_name c.cache)

(* One row per configuration, one column per knob: optimize, cbo,
   partition (0 hash, 1 sort), parallelism (0 = 1, 1 = 4), batch size
   (1 / 7 / 128), dictionary, plan cache (cold / warm / prepared).
   Nine rows are the fewest that cover the pairs of the two ternary
   knobs. *)
let covering_rows =
  [
    [ 0; 0; 1; 0; 0; 0; 0 ];
    [ 1; 0; 0; 1; 0; 1; 1 ];
    [ 0; 1; 0; 1; 0; 1; 2 ];
    [ 0; 1; 0; 0; 1; 1; 0 ];
    [ 1; 0; 1; 1; 1; 0; 1 ];
    [ 1; 1; 1; 0; 1; 0; 2 ];
    [ 1; 1; 1; 1; 2; 1; 0 ];
    [ 0; 1; 1; 0; 2; 0; 1 ];
    [ 0; 0; 0; 0; 2; 0; 2 ];
  ]

let knob_levels = [ 2; 2; 2; 2; 3; 2; 3 ]

let configs =
  List.map
    (function
      | [ o; c; p; par; b; d; cache ] ->
          {
            optimize = o = 1;
            cbo = c = 1;
            partition =
              (if p = 0 then Compile.Hash_partition else Compile.Sort_partition);
            parallelism = (if par = 0 then 1 else 4);
            batch_size = List.nth [ 1; 7; Batch.default_size ] b;
            dict = d = 1;
            cache = List.nth [ Cold; Warm; Prepared ] cache;
          }
      | _ -> invalid_arg "covering_rows")
    covering_rows

let test_covering () =
  let levels = Array.of_list knob_levels in
  let rows = List.map Array.of_list covering_rows in
  let k = Array.length levels in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      for a = 0 to levels.(i) - 1 do
        for b = 0 to levels.(j) - 1 do
          if not (List.exists (fun r -> r.(i) = a && r.(j) = b) rows) then
            Alcotest.failf "knobs %d and %d: values (%d, %d) never meet" i j a b
        done
      done
    done
  done

(* ---------- the two catalogs ---------- *)

let msf = 0.02

(* One engine per dictionary setting, each loaded once; a configuration
   sets its knobs on the engine of its setting.  [lookups] counts the
   plan-cache lookups made while the cache was on, for conservation. *)
type world = { db : Engine.t; mutable lookups : int }

let load_world dict =
  let was = Dict.enabled () in
  Fun.protect
    ~finally:(fun () -> Dict.set_enabled was)
    (fun () ->
      Dict.set_enabled dict;
      let db = Engine.create () in
      Engine.load_tpch db ~msf;
      { db; lookups = 0 })

let dict_world = lazy (load_world true)
let plain_world = lazy (load_world false)
let world dict = Lazy.force (if dict then dict_world else plain_world)

let set_knobs cfg db =
  Engine.set_optimize db cfg.optimize;
  Engine.set_cbo db cfg.cbo;
  Engine.set_partition_strategy db cfg.partition;
  Engine.set_parallelism db cfg.parallelism;
  Engine.set_plan_cache_enabled db (cfg.cache <> Cold)

let batch_run cfg db plan =
  Executor.run
    ~config:
      (Compile.config_with ~partition:cfg.partition
         ~parallelism:cfg.parallelism ~batch_size:cfg.batch_size ())
    (Engine.catalog db) plan

(* The results of one SQL case under [cfg], labelled. *)
let run_sql cfg w sql =
  let db = w.db in
  set_knobs cfg db;
  let engine =
    match cfg.cache with
    | Cold -> [ ("cold", Engine.query db sql) ]
    | Warm ->
        w.lookups <- w.lookups + 2;
        let first = Engine.query db sql in
        [ ("first run", first); ("warm hit", Engine.query db sql) ]
    | Prepared ->
        w.lookups <- w.lookups + 2;
        [ ("prepared", Engine.exec_prepared db (Engine.prepare db sql)) ]
  in
  engine
  @ [
      ( Printf.sprintf "effective plan at batch size %d" cfg.batch_size,
        batch_run cfg db (Engine.effective_plan db sql) );
    ]

(* The results of one plan case under [cfg]: the optimizer (when on)
   rewrites it, then the engine runs it under its knobs and the batch
   run at the configuration's size. *)
let run_plan cfg w plan =
  let db = w.db in
  set_knobs cfg db;
  let plan =
    if cfg.optimize then
      (Optimizer.optimize ~cbo:cfg.cbo (Engine.catalog db) plan).Optimizer.plan
    else plan
  in
  [
    ("engine", Engine.run_plan db plan);
    ( Printf.sprintf "batch size %d" cfg.batch_size,
      batch_run cfg db plan );
  ]

(* Every engine the harness uses stays conserved: each lookup made with
   the cache on is one hit or one miss. *)
let conservation_failures w =
  Engine.set_plan_cache_enabled w.db true;
  Support.conservation_failures ~executions:w.lookups w.db

(* The first rows of [r] in sort order, for a failure message. *)
let head r =
  let rows = Array.copy (Relation.rows_array r) in
  Array.sort Tuple.compare rows;
  Relation.to_string
    (Relation.of_array (Relation.schema r)
       (Array.sub rows 0 (min 12 (Array.length rows))))

(* The ORDER BY [plan] ends in, as (output column, descending) pairs;
   [] when it ends in none, or orders on anything but bare columns. *)
let final_order (plan : Plan.t) =
  match plan with
  | Plan.Order_by { keys; input } ->
      let schema = Props.schema_of input in
      let key = function
        | Expr.Col r, dir ->
            Some (Schema.find ?qual:r.Expr.qual r.Expr.name schema, dir = Plan.Desc)
        | _ -> None
      in
      let keys = List.map key keys in
      if List.mem None keys then [] else List.filter_map Fun.id keys
  | _ -> []

(* The first pair of adjacent rows of [r] out of [order], as a message. *)
let misordered order r =
  let rows = Relation.rows_array r in
  let cmp a b =
    List.fold_left
      (fun c (i, desc) ->
        if c <> 0 then c
        else
          let c = Value.compare_total a.(i) b.(i) in
          if desc then -c else c)
      0 order
  in
  let rec go i =
    if i >= Array.length rows then None
    else if cmp rows.(i - 1) rows.(i) > 0 then
      Some
        (Format.asprintf "rows %d and %d are out of ORDER BY order: %a, %a"
           (i - 1) i Tuple.pp rows.(i - 1) Tuple.pp rows.(i))
    else go (i + 1)
  in
  go 1

(* The first disagreement with [reference] over every configuration,
   as a message: [run cfg w] labels the results of one case under
   [cfg], on the engine [w] of its dictionary setting.  A case whose
   plan, [plan w], ends in an ORDER BY must also come out in its
   order. *)
let first_failure ~reference ~plan ~run =
  let expected = Hashtbl.create 2 in
  let reference_of dict =
    match Hashtbl.find_opt expected dict with
    | Some r -> r
    | None ->
        let r = reference (world dict) in
        Hashtbl.add expected dict r;
        r
  in
  let check cfg =
    let expected = reference_of cfg.dict in
    let order = final_order (plan (world cfg.dict)) in
    List.find_map
      (fun (label, actual) ->
        if not (Relation.equal_as_multiset expected actual) then
          Some
            (Printf.sprintf
               "%s, %s: %d rows, reference %d rows\ngot:\n%s\nreference:\n%s"
               (config_name cfg) label
               (Relation.cardinality actual)
               (Relation.cardinality expected)
               (head actual) (head expected))
        else
          Option.map
            (Printf.sprintf "%s, %s: %s" (config_name cfg) label)
            (misordered order actual))
      (run cfg (world cfg.dict))
  in
  match List.find_map check configs with
  | Some _ as failure -> failure
  | None -> (
      match conservation_failures (world true) @ conservation_failures (world false) with
      | [] -> None
      | laws -> Some ("metrics not conserved: " ^ String.concat "; " laws))

let sql_failure sql =
  let plan w = Engine.plan_of_sql w.db sql in
  first_failure ~plan
    ~reference:(fun w -> Reference.run (Engine.catalog w.db) (plan w))
    ~run:(fun cfg w -> run_sql cfg w sql)

let check_sql name sql =
  match sql_failure sql with
  | None -> ()
  | Some msg -> Alcotest.failf "%s\n%s\n%s" name sql msg

(* ---------- fixed cases ---------- *)

let test_figure8 () =
  List.iter
    (fun (name, gapply, baseline) ->
      check_sql (name ^ " (gapply)") gapply;
      check_sql (name ^ " (baseline)") baseline)
    Workloads.figure8_queries

(* Publishing plans are built per catalog, so each configuration runs
   the plan built over its own world's tables. *)
let publishing_plans =
  [
    ("figure-1 view", fun cat -> fst (Publish.gapply_plan cat (Publish.of_view Xml_view.figure1)));
    ( "figure-1 view, outer union",
      fun cat -> fst (Publish.outer_union_plan cat (Publish.of_view Xml_view.figure1)) );
    ("Q1 (nested parts + avg)", fun cat -> fst (Publish.gapply_plan cat (Flwr.compile Flwr.q1)));
    ( "group selection (exists)",
      fun cat ->
        fst (Publish.gapply_plan cat (Flwr.compile (Flwr.expensive_part_suppliers 930.))) );
    ( "group selection (aggregate)",
      fun cat ->
        fst (Publish.gapply_plan cat (Flwr.compile (Flwr.high_average_suppliers 920.5))) );
    ( "group selection (exists), outer union",
      fun cat ->
        fst
          (Publish.outer_union_plan cat
             (Flwr.compile (Flwr.expensive_part_suppliers 930.))) );
    ( "3-level view",
      fun cat -> fst (Deep_publish.gapply_plan cat Deep_view.customer_orders) );
    ( "3-level view, outer union",
      fun cat -> fst (Deep_publish.outer_union_plan cat Deep_view.customer_orders) );
  ]

let test_publishing_plans () =
  List.iter
    (fun (name, build) ->
      let plan w = build (Engine.catalog w.db) in
      (* every GApply of a publishing plan, a group selection's selecting
         one included, runs as the group-local loop *)
      Plan.fold
        (fun () -> function
          | Plan.G_apply { var; pgq; _ } when not (Compile.group_local ~var pgq)
            ->
              Alcotest.failf "%s: a GApply takes the cursor chain" name
          | _ -> ())
        () (plan (world false));
      match
        first_failure ~plan
          ~reference:(fun w -> Reference.run (Engine.catalog w.db) (plan w))
          ~run:(fun cfg w -> run_plan cfg w (plan w))
      with
      | None -> ()
      | Some msg -> Alcotest.failf "%s\n%s" name msg)
    publishing_plans

(* ---------- a grammar of well-typed SQL over the TPC-H tables ---------- *)

type ty = I | F | S

(* A column: its type, its literal range (ints and floats) or sample
   literals (strings), and the key domain it joins or correlates on. *)
type column = {
  name : string;
  table : string;
  ty : ty;
  range : int * int;
  samples : string list;
  dom : string option;
}

let col ?dom ?(range = (0, 0)) ?(samples = []) table name ty =
  { name; table; ty; range; samples; dom }

let columns_of = function
  | "part" ->
      [
        col "part" "p_partkey" I ~range:(1, 40) ~dom:"partkey";
        col "part" "p_size" I ~range:(1, 50) ~dom:"size";
        col "part" "p_retailprice" F ~range:(900, 945);
        col "part" "p_brand" S ~samples:[ "Brand#3"; "Brand#25" ] ~dom:"brand";
        col "part" "p_mfgr" S ~samples:[ "Manufacturer#3" ];
        col "part" "p_name" S ~samples:[ "c"; "m" ];
      ]
  | "partsupp" ->
      [
        col "partsupp" "ps_suppkey" I ~range:(1, 2) ~dom:"suppkey";
        col "partsupp" "ps_partkey" I ~range:(1, 40) ~dom:"partkey";
        col "partsupp" "ps_availqty" I ~range:(1, 9999);
        col "partsupp" "ps_supplycost" F ~range:(1, 1000);
      ]
  | "supplier" ->
      [
        col "supplier" "s_suppkey" I ~range:(1, 2) ~dom:"suppkey";
        col "supplier" "s_nationkey" I ~range:(0, 24);
        col "supplier" "s_name" S ~samples:[ "Supplier#000000002" ];
        col "supplier" "s_acctbal" F ~range:(-1000, 10000);
      ]
  | "customer" ->
      [
        col "customer" "c_custkey" I ~range:(1, 3) ~dom:"custkey";
        col "customer" "c_nationkey" I ~range:(0, 24);
        col "customer" "c_name" S ~samples:[ "Customer#000000002" ];
        col "customer" "c_acctbal" F ~range:(-1000, 10000);
      ]
  | "orders" ->
      [
        col "orders" "o_orderkey" I ~range:(1, 30) ~dom:"orderkey";
        col "orders" "o_custkey" I ~range:(1, 3) ~dom:"custkey";
        col "orders" "o_orderdate" S ~samples:[ "1995-06-15"; "1997" ];
        col "orders" "o_totalprice" F ~range:(1000, 200000);
      ]
  | "lineitem" ->
      [
        col "lineitem" "l_orderkey" I ~range:(1, 30) ~dom:"orderkey";
        col "lineitem" "l_linenumber" I ~range:(1, 7);
        col "lineitem" "l_partkey" I ~range:(1, 40) ~dom:"partkey";
        col "lineitem" "l_quantity" I ~range:(1, 50);
        col "lineitem" "l_extendedprice" F ~range:(900, 47000);
      ]
  | t -> invalid_arg t

(* FROM lists with their foreign-key join predicates, simplest first so
   a failure shrinks towards a single table. *)
let sources =
  [
    ([ "part" ], []);
    ([ "lineitem" ], []);
    ([ "partsupp"; "part" ], [ ("ps_partkey", "p_partkey") ]);
    ([ "orders"; "lineitem" ], [ ("o_orderkey", "l_orderkey") ]);
    ([ "customer"; "orders" ], [ ("c_custkey", "o_custkey") ]);
    ([ "lineitem"; "part" ], [ ("l_partkey", "p_partkey") ]);
    ( [ "partsupp"; "part"; "supplier" ],
      [ ("ps_partkey", "p_partkey"); ("ps_suppkey", "s_suppkey") ] );
    ([ "supplier" ], []);
  ]

(* References are unqualified inside a group (the group variable's
   columns keep their names) and qualified in correlated subqueries. *)
let ref_of ?q c = Col_ref (q, c.name)
let conj = function
  | [] -> None
  | p :: ps -> Some (List.fold_left (fun a b -> Binop (And, a, b)) p ps)

let gen_lit c : expr Gen.t =
  let lo, hi = c.range in
  match c.ty with
  | I -> Gen.map (fun i -> Lit_int i) (Gen.int_range lo hi)
  | F -> Gen.map (fun i -> Lit_float (float_of_int i +. 0.5)) (Gen.int_range lo hi)
  | S -> Gen.map (fun s -> Lit_string s) (Gen.oneofl c.samples)

let gen_cmp = Gen.oneofl [ Lt; Gt; Eq; Lte; Gte; Neq ]

let gen_col cs = Gen.oneofl cs
let of_ty ty cs = List.filter (fun c -> c.ty = ty) cs

(* An atom comparing a column with a literal, or a NULL test. *)
let gen_atom ?q cs : expr Gen.t =
  Gen.(
    frequency
      [
        ( 4,
          let* c = gen_col cs in
          let* op = gen_cmp in
          let+ l = gen_lit c in
          Binop (op, ref_of ?q c, l) );
        (1, map (fun c -> Is_not_null (ref_of ?q c)) (gen_col cs));
        (1, map (fun c -> Is_null (ref_of ?q c)) (gen_col cs));
      ])

(* Boolean structure over [atom]. *)
let gen_bool atom : expr Gen.t =
  Gen.(
    sized_size (frequency [ (3, return 0); (2, return 1); (1, return 2) ])
    @@ fix (fun self n ->
           if n = 0 then atom
           else
             oneof
               [
                 atom;
                 map2 (fun a b -> Binop (And, a, b)) (self (n - 1)) (self (n - 1));
                 map2 (fun a b -> Binop (Or, a, b)) (self (n - 1)) (self (n - 1));
                 map (fun a -> Not a) (self (n - 1));
               ]))

let star = Fun_call ("count", false, [ Star ])

(* An aggregate of type [ty] over [cs]; floats are only compared or
   min/max-ed, never summed, so every order of summation is exact. *)
let gen_agg ?q ty cs : expr Gen.t option =
  let ints = of_ty I cs in
  let agg name c = Fun_call (name, false, [ ref_of ?q c ]) in
  let opts =
    match ty with
    | I ->
        [ Gen.return star ]
        @ (if ints = [] then []
           else
             [
               Gen.map (agg "sum") (gen_col ints);
               Gen.map (agg "max") (gen_col ints);
               Gen.map (fun c -> Fun_call ("count", true, [ ref_of ?q c ])) (gen_col cs);
             ])
    | F ->
        (if ints = [] then [] else [ Gen.map (agg "avg") (gen_col ints) ])
        @ (match of_ty F cs with
          | [] -> []
          | fs -> [ Gen.map (agg "min") (gen_col fs); Gen.map (agg "max") (gen_col fs) ])
    | S -> (
        match of_ty S cs with
        | [] -> []
        | ss -> [ Gen.map (agg "min") (gen_col ss); Gen.map (agg "max") (gen_col ss) ])
  in
  if opts = [] then None else Some (Gen.oneof opts)

let select ?(distinct = false) ?where ?(group_by = []) ?group_var ?having items from =
  Select { distinct; items; from; where; group_by; group_var; having }

let from_var v = [ From_table (v, None) ]

(* A per-group WHERE over group [var]: row tests, aggregate group
   selections and rows compared with a per-group aggregate (Q2-Q4's
   scalar subqueries) under AND/OR/NOT, and an exists group selection
   (Table 1).  EXISTS may only be a top-level conjunct. *)
let gen_group_pred var cs : expr option Gen.t =
  let exists =
    Gen.map2
      (fun p neg -> Exists (select ?where:p [ Item_star ] (from_var var), neg))
      (Gen.opt ~ratio:0.5 (gen_bool (gen_atom cs))) Gen.bool
  in
  let agg_selection =
    let* c = gen_col (of_ty I cs @ of_ty F cs) in
    Gen.(
      let* agg = Option.get (gen_agg c.ty cs) in
      let* op = gen_cmp in
      let+ l = gen_lit c in
      Binop (op, Scalar_subquery (select [ Item (agg, None) ] (from_var var)), l))
  and row_vs_agg =
    Gen.(
      let* c = gen_col (of_ty I cs) in
      let* op = gen_cmp in
      let+ fn = oneofl [ "avg"; "max"; "min" ] in
      Binop
        ( op,
          ref_of c,
          Scalar_subquery
            (select [ Item (Fun_call (fn, false, [ ref_of c ]), None) ] (from_var var)) ))
  in
  Gen.map2
    (fun p e -> conj (Option.to_list p @ Option.to_list e))
    (Gen.opt ~ratio:0.5 (gen_bool (Gen.oneof [ gen_atom cs; agg_selection; row_vs_agg ])))
    (Gen.opt ~ratio:0.5 exists)

(* One UNION ALL branch of a per-group query producing [slots]: rows of
   the group or one aggregate row, each slot a column, an aggregate or
   NULL. *)
let gen_branch var cs slots : query Gen.t =
  let slot_item mk ty = Gen.oneof (mk ty @ [ Gen.return Lit_null ]) in
  let row_slot ty = match of_ty ty cs with [] -> [] | xs -> [ Gen.map ref_of (gen_col xs) ] in
  let agg_slot ty = Option.to_list (gen_agg ty cs) in
  let items mk =
    Gen.flatten_l
      (List.mapi
         (fun i ty ->
           Gen.map (fun e -> Item (e, Some (Printf.sprintf "c%d" i))) (slot_item mk ty))
         slots)
  in
  Gen.(
    let* items = oneof [ items row_slot; items agg_slot ] in
    let+ where = gen_group_pred var cs in
    select ?where items (from_var var))

let gen_slots cs : ty list Gen.t =
  let tys = List.sort_uniq compare (List.map (fun c -> c.ty) cs) in
  Gen.list_size (Gen.int_range 1 3) (Gen.oneofl (I :: tys))

let union = function
  | [] -> invalid_arg "union"
  | q :: qs -> List.fold_left (fun a b -> Union_all (a, b)) q qs

(* A per-group query over [var]: a UNION ALL of branches, or (at the
   outer level) a nested GApply regrouping the group on one column
   other than the outer [keys] (an output column per name). *)
let rec gen_pgq ?(keys = []) ~nest var cs : query Gen.t =
  let flat =
    Gen.(
      let* slots = gen_slots cs in
      map union (list_size (int_range 1 3) (gen_branch var cs slots)))
  in
  if not nest then flat
  else
    Gen.oneof
      [
        flat;
        (let* k = gen_col (List.filter (fun c -> not (List.mem c.name keys)) cs) in
         let inner = var ^ "h" in
         Gen.(
           let* pgq = gen_pgq ~nest:false inner cs in
           let+ where = opt ~ratio:0.5 (gen_bool (gen_atom cs)) in
           select ?where
             [ Item_gapply (pgq, []) ]
             (from_var var) ~group_by:[ (None, k.name) ] ~group_var:inner));
      ]

let gen_source =
  Gen.map
    (fun (tables, joins) ->
      let cs = List.concat_map columns_of tables in
      let find n = List.find (fun c -> c.name = n) cs in
      let join_preds =
        List.map (fun (a, b) -> Binop (Eq, ref_of (find a), ref_of (find b))) joins
      in
      (List.map (fun t -> From_table (t, None)) tables, cs, join_preds))
    (Gen.oneofl sources)

let where_of join_preds extra = conj (join_preds @ Option.to_list extra)

(* A subquery on a table [x] whose key domain matches a column of the
   outer query: a correlated EXISTS, a column compared with a correlated
   scalar aggregate, or [NOT] IN.  Outer references are qualified by
   table name. *)
let gen_correlated cs : expr Gen.t option =
  let pairs =
    List.concat_map
      (fun oc ->
        match oc.dom with
        | None -> []
        | Some d ->
            List.concat_map
              (fun t ->
                List.filter_map
                  (fun ic -> if ic.dom = Some d then Some (oc, t, ic) else None)
                  (columns_of t))
              [ "part"; "partsupp"; "supplier"; "customer"; "orders"; "lineitem" ])
      cs
  in
  if pairs = [] then None
  else
    Some
      Gen.(
        let* oc, t, ic = oneofl pairs in
        let inner = columns_of t in
        let corr = Binop (Eq, ref_of ~q:"x" ic, ref_of ~q:oc.table oc) in
        let from = [ From_table (t, Some "x") ] in
        oneof
          [
            (let* p = opt ~ratio:0.5 (gen_bool (gen_atom ~q:"x" inner)) in
             let+ neg = bool in
             Exists (select ?where:(where_of [ corr ] p) [ Item_star ] from, neg));
            (let* c = gen_col (of_ty I cs @ of_ty F cs) in
             let* op = gen_cmp in
             let ty = c.ty in
             let+ agg =
               match gen_agg ~q:"x" ty inner with
               | Some g -> g
               | None -> return star
             in
             Binop
               ( op,
                 ref_of ~q:c.table c,
                 Scalar_subquery (select ~where:corr [ Item (agg, None) ] from) ));
            (let* p = opt ~ratio:0.5 (gen_bool (gen_atom ~q:"x" inner)) in
             let+ neg = bool in
             In_subquery
               ( ref_of ~q:oc.table oc,
                 select ?where:p [ Item (ref_of ~q:"x" ic, None) ] from,
                 neg ));
          ])

let order_by keys q = if keys = [] then q else Order_by (q, keys)

(* Up to two ORDER BY keys over the output columns [cols]. *)
let gen_order cols =
  if cols = [] then Gen.return []
  else
    Gen.(
      let* n = int_bound (min 2 (List.length cols)) in
      list_repeat n
        (pair (map (fun c -> Col_ref (None, c)) (oneofl cols)) (oneofl [ Asc; Desc ])))

(* A WHERE over a source's columns: a boolean of atoms, or a subquery. *)
let gen_filter cs : expr option Gen.t =
  Gen.oneof
    ([ Gen.opt ~ratio:0.5 (gen_bool (gen_atom cs)) ]
    @ match gen_correlated cs with Some g -> [ Gen.map Option.some g ] | None -> [])

(* A GApply over a source, grouped on one or two columns. *)
let gen_gapply_query =
  Gen.(
    let* from, cs, joins = gen_source in
    let* keys = list_size (int_range 1 2) (gen_col cs) in
    let keys = List.sort_uniq compare (List.map (fun c -> c.name) keys) in
    let* pgq = gen_pgq ~keys ~nest:(List.length cs > 2) "g" cs in
    let* filter = gen_filter cs in
    let+ order = gen_order keys in
    order_by order
      (select ?where:(where_of joins filter) [ Item_gapply (pgq, []) ] from
         ~group_by:(List.map (fun k -> (None, k)) keys)
         ~group_var:"g"))

(* A projected column, or (named [e<i>]) an integer sum or a CASE over
   it. *)
let gen_item cs i c =
  let computed e = Item (e, Some (Printf.sprintf "e%d" i)) in
  Gen.(
    frequency
      ([
         (3, return (Item (ref_of c, None)));
         (1, map (fun p -> computed (Case ([ (p, ref_of c) ], None))) (gen_atom cs));
       ]
      @
      if c.ty = I then
        [ (1, map (fun n -> computed (Binop (Add, ref_of c, Lit_int n))) (int_range 1 9)) ]
      else []))

(* Select-project-join, with a subquery at times. *)
let gen_spj_query =
  Gen.(
    let* from, cs, joins = gen_source in
    let* cols = list_size (int_range 1 3) (gen_col cs) in
    let cols = List.sort_uniq compare cols in
    let* items = flatten_l (List.mapi (gen_item cs) cols) in
    let* distinct = bool in
    let* filter = gen_filter cs in
    let names =
      List.filter_map (function Item (Col_ref (_, n), None) -> Some n | _ -> None) items
    in
    let+ order = gen_order names in
    order_by order (select ~distinct ?where:(where_of joins filter) items from))

(* Grouping with aggregates and a HAVING at times. *)
let gen_group_query =
  Gen.(
    let* from, cs, joins = gen_source in
    let* k = gen_col cs in
    let* aggs =
      list_size (int_range 1 2)
        (let* ty = oneofl [ I; F; S ] in
         match gen_agg ty cs with Some g -> g | None -> return star)
    in
    let* filter = opt ~ratio:0.5 (gen_bool (gen_atom cs)) in
    let* having =
      opt
        (let* op = gen_cmp in
         oneof
           [
             map (fun n -> Binop (op, star, Lit_int n)) (int_range 0 8);
             (let* c = gen_col (of_ty I cs) in
              let+ l = gen_lit c in
              Binop (op, Fun_call ("max", false, [ ref_of c ]), l));
           ])
    in
    let+ order = gen_order [ k.name ] in
    order_by order
      (select ?where:(where_of joins filter) ?having
         (Item (ref_of k, None) :: List.map (fun a -> Item (a, None)) aggs)
         from ~group_by:[ (None, k.name) ]))

let gen_query = Gen.oneof [ gen_gapply_query; gen_spj_query; gen_group_query ]

(* The constructs of a query, to check the grammar reaches each. *)
let rec constructs_of_query = function
  | Select s ->
      let here =
        (if List.length s.from > 1 then [ "join" ] else [])
        @ (if s.group_by <> [] && s.group_var = None then [ "group by" ] else [])
      in
      here
      @ List.concat_map
          (function
            | Item_gapply (q, _) ->
                "gapply"
                :: (if List.mem "gapply" (constructs_of_query q) then [ "nested gapply" ]
                    else [])
                @ constructs_of_query q
            | Item (e, _) -> constructs_of_expr e
            | Item_star -> [])
          s.items
      @ List.concat_map constructs_of_expr (Option.to_list s.where @ Option.to_list s.having)
  | Union_all (a, b) -> constructs_of_query a @ constructs_of_query b
  | Order_by (q, _) -> "order by" :: constructs_of_query q

and constructs_of_expr = function
  | Exists ((Select { from = [ From_table (_, Some _) ]; _ } as q), _) ->
      "correlated exists" :: constructs_of_query q
  | Exists (q, _) -> "exists group selection" :: constructs_of_query q
  | In_subquery (_, q, _) -> "in subquery" :: constructs_of_query q
  | Case _ -> [ "case" ]
  | Binop (_, Scalar_subquery (Select { from = [ From_table (_, None) ]; _ }), (Lit_int _ | Lit_float _)) ->
      [ "aggregate group selection" ]
  | Binop (_, a, b) -> constructs_of_expr a @ constructs_of_expr b
  | Scalar_subquery (Select { from = [ From_table (_, Some _) ]; _ }) ->
      [ "correlated scalar subquery" ]
  | Scalar_subquery q -> constructs_of_query q
  | Not e | Neg e | Is_null e | Is_not_null e -> constructs_of_expr e
  | _ -> []

let test_grammar_coverage () =
  let seen =
    List.concat_map constructs_of_query
      (Gen.generate ~rand:(Random.State.make [| 21 |]) ~n:200 gen_query)
  in
  List.iter
    (fun c ->
      if not (List.mem c seen) then Alcotest.failf "no generated query has %s" c)
    [
      "gapply"; "nested gapply"; "exists group selection";
      "aggregate group selection"; "correlated scalar subquery";
      "correlated exists"; "in subquery"; "case"; "join"; "group by"; "order by";
    ]

(* The harness reaches the group-local loop's Apply shape, not just its
   syntax: some generated query optimizes, under the default knobs and
   under CBO off alike, to a GApply whose PGQ is group-local and holds
   an Apply (a row compared with its group's aggregate, or an EXISTS
   over the group). *)
let test_reaches_loop_apply () =
  let db = (world false).db in
  let loop_apply plan =
    Plan.fold
      (fun found -> function
        | Plan.G_apply { var; pgq; _ } ->
            found
            || Compile.group_local ~var pgq
               && Plan.fold
                    (fun a p -> a || match p with Plan.Apply _ -> true | _ -> false)
                    false pgq
        | _ -> found)
      false plan
  in
  let reaches sql =
    List.for_all
      (fun cbo ->
        Engine.set_optimize db true;
        Engine.set_cbo db cbo;
        loop_apply (Engine.effective_plan db sql))
      [ true; false ]
  in
  let queries =
    Gen.generate ~rand:(Random.State.make [| 21 |]) ~n:200 gen_query
  in
  let found = List.exists (fun q -> reaches (query_to_string q)) queries in
  Engine.set_cbo db true;
  if not found then
    Alcotest.fail "no generated query runs an Apply in the group-local loop"

let prop_random_sql =
  QCheck2.Test.make ~count:40 ~long_factor:25
    ~name:"random SQL = Reference under every covering configuration"
    ~print:query_to_string gen_query
    (fun q ->
      match sql_failure (query_to_string q) with
      | None -> true
      | Some msg -> QCheck2.Test.fail_report msg)

let suite =
  [
    Alcotest.test_case "the configurations cover every pair of knob values" `Quick
      test_covering;
    Alcotest.test_case "Q1-Q4 = Reference under every configuration" `Quick
      test_figure8;
    Alcotest.test_case "publishing plans = Reference under every configuration" `Quick
      test_publishing_plans;
    Alcotest.test_case "the grammar reaches every construct" `Quick
      test_grammar_coverage;
    Alcotest.test_case "random queries reach the loop's Apply shape" `Quick
      test_reaches_loop_apply;
    QCheck_alcotest.to_alcotest prop_random_sql;
  ]
