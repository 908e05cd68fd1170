(* Logical-to-physical compilation.

   [plan] turns a logical plan into a [compiled] value once; the returned
   [brun] closure can then be executed many times under different
   environments — which is exactly what Apply (per outer row) and GApply
   (per group) do.

   GApply execution follows the paper's two phases (Section 3): a
   partition phase (by sorting or hashing, per [config]) over the outer
   stream, then a nested-loops execution phase that binds each group to
   the relation-valued variable and re-runs the compiled per-group
   query.

   Execution is vectorized: every operator is a cursor over [Batch.t]
   row arrays of up to [config.batch_size] rows and consumes its
   children batch-wise.  The row-at-a-time [run] exists only as the
   adapter at the tagger/client boundary, derived once from the wrapped
   [brun] through [Batch.to_cursor]. *)

type partition_strategy = Sort_partition | Hash_partition

type config = {
  partition : partition_strategy;
  apply_cache : bool;
      (* evaluate uncorrelated Apply inners once per run (see the Apply
         case below); disabled only by the ablation benchmark *)
  use_indexes : bool;
      (* probe a matching hash index on the inner side of an equi-join
         instead of building a per-query hash table *)
  parallelism : int;
      (* total domains (submitter included) for the partition and
         execution phases of GApply/Group_by: 1 = sequential,
         0 = automatic (Domain.recommended_domain_count) *)
  batch_size : int;  (* rows per batch, >= 1 *)
  observe : Obs.t option;
      (* per-operator metrics sink (EXPLAIN ANALYZE / --analyze).  None
         compiles exactly the uninstrumented operators — zero overhead
         on the per-batch path when tracing is off. *)
}

let default_config =
  {
    partition = Hash_partition;
    apply_cache = true;
    use_indexes = true;
    parallelism = 1;
    batch_size = Batch.default_size;
    observe = None;
  }

let config_with ?(partition = Hash_partition) ?(apply_cache = true)
    ?(use_indexes = true) ?(parallelism = 1)
    ?(batch_size = Batch.default_size) ?observe () =
  if batch_size < 1 then
    invalid_arg
      (Printf.sprintf "Compile.config_with: batch_size %d < 1" batch_size);
  { partition; apply_cache; use_indexes; parallelism; batch_size; observe }

(* the Obs node of the operator currently being compiled (used by the
   GApply / Group_by cases to report their partition phase) *)
let obs_current config =
  match config.observe with None -> None | Some sink -> Obs.current sink

type compiled = {
  schema : Schema.t;
  run : Env.t -> Cursor.t;
  brun : Env.t -> Batch.cursor;
}

(* ---------- helpers ---------- *)

let key_indexes schema (refs : Expr.col_ref list) : int array =
  Array.of_list
    (List.map
       (fun (r : Expr.col_ref) ->
         Schema.find ?qual:r.Expr.qual r.Expr.name schema)
       refs)

let project_key (idxs : int array) (row : Tuple.t) : Tuple.t =
  Array.map (fun i -> row.(i)) idxs

(* Compare two rows in place on key columns [idxs], most significant
   first; [desc.(k)] reverses key [k]. *)
let compare_on (idxs : int array) (desc : bool array) : Tuple.t -> Tuple.t -> int
    =
  let n = Array.length idxs in
  let rec go a b k =
    if k = n then 0
    else
      let i = Array.unsafe_get idxs k in
      let c =
        Value.compare_total (Array.unsafe_get a i) (Array.unsafe_get b i)
      in
      if c = 0 then go a b (k + 1) else if Array.unsafe_get desc k then -c else c
  in
  fun a b -> go a b 0

(* The one row sort (ORDER BY and sort partitioning): stable, in place
   on the operator's own materialized array.  Stability is the
   tiebreak — equal keys keep input order — and the pool's merge sort
   is stable too, so both paths give the same answer. *)
let sort_rows ?pool cmp (rows : Tuple.t array) =
  match pool with
  | Some pool -> Domain_pool.parallel_sort pool cmp rows
  | None -> Array.stable_sort cmp rows

(* below this many rows the per-domain partial tables of the parallel
   partition phase cost more than they save *)
let parallel_partition_threshold = 1024

(* Group rows by a key function.  Group order is deterministic —
   reverse of first-seen key order, as this engine has always produced —
   and each group's rows stay in input order.

   With a pool, the partition phase runs per-domain partial tables over
   contiguous input chunks and merges them in chunk order.  Each partial
   is re-reversed into its chunk's first-seen order before merging, so
   the global key-encounter order equals the sequential first-seen
   order; the final double reversal then reproduces the sequential
   output exactly.

   Under a governor ([gov]), every chunk first passes a cancellation /
   deadline check and charges the hash table's per-row structure
   overhead against the memory ceiling — this is the accounting that
   makes a hash-partition blow-up trip *during* partitioning, which the
   engine then retries sort-based (see Governor). *)
let group_rows ?pool ?gov ~op ~(idxs : int array) (rows : Tuple.t array) :
    (Tuple.t * Tuple.t list) list =
  let chunk pos len : (Tuple.t * Tuple.t list) list =
    Governor.check gov ~op;
    Governor.charge gov ~op (len * Governor.hash_partition_overhead_per_row);
    match idxs with
    | [| i0 |] ->
        (* single grouping column: hash the value itself — no per-row
           key-tuple allocation; the key tuple is built once per group *)
        let tbl : Tuple.t list ref Value.Tbl.t = Value.Tbl.create 64 in
        let order = ref [] in
        for k = pos to pos + len - 1 do
          let row = rows.(k) in
          let v = Array.unsafe_get row i0 in
          match Value.Tbl.find_opt tbl v with
          | Some bucket -> bucket := row :: !bucket
          | None ->
              Value.Tbl.add tbl v (ref [ row ]);
              order := v :: !order
        done;
        List.rev_map
          (fun v -> ([| v |], List.rev !(Value.Tbl.find tbl v)))
          !order
        |> List.rev
    | _ ->
        let tbl : Tuple.t list ref Tuple.Tbl.t = Tuple.Tbl.create 64 in
        let order = ref [] in
        for k = pos to pos + len - 1 do
          let row = rows.(k) in
          let key = project_key idxs row in
          match Tuple.Tbl.find_opt tbl key with
          | Some bucket -> bucket := row :: !bucket
          | None ->
              Tuple.Tbl.add tbl key (ref [ row ]);
              order := key :: !order
        done;
        List.rev_map
          (fun key -> (key, List.rev !(Tuple.Tbl.find tbl key)))
          !order
        |> List.rev
  in
  let n = Array.length rows in
  match pool with
  | Some pool when n >= parallel_partition_threshold ->
      let nchunks = Domain_pool.num_domains pool in
      let size = (n + nchunks - 1) / nchunks in
      let ranges =
        Array.init nchunks (fun i -> (i * size, min size (n - (i * size))))
        |> Array.to_list
        |> List.filter (fun (_, len) -> len > 0)
        |> Array.of_list
      in
      let partials =
        Domain_pool.parallel_map_array pool
          (fun (pos, len) -> chunk pos len)
          ranges
      in
      (* the chunk-order merge re-reads every partial into one table:
         charge its structure overhead too (the parallel hash path
         really does hold partials + merged table at once) *)
      Governor.charge gov ~op
        (n * Governor.hash_partition_merge_overhead_per_row);
      let tbl : Tuple.t list list ref Tuple.Tbl.t = Tuple.Tbl.create 64 in
      let order = ref [] in
      Array.iter
        (fun partial ->
          (* chunk output is reverse-first-seen; walk it first-seen *)
          List.iter
            (fun (key, members) ->
              match Tuple.Tbl.find_opt tbl key with
              | Some parts -> parts := members :: !parts
              | None ->
                  Tuple.Tbl.add tbl key (ref [ members ]);
                  order := key :: !order)
            (List.rev partial))
        partials;
      List.rev_map
        (fun key -> (key, List.concat (List.rev !(Tuple.Tbl.find tbl key))))
        !order
      |> List.rev
  | _ -> chunk 0 n

(* Aggregate accumulators live in arrays so the per-row step is an
   indexed loop, not a List.iter2 closure pair. *)
let agg_states specs = Array.map (fun (spec, _) -> Agg_state.create spec) specs

let agg_add (specs : (Expr.agg * Eval.compiled option) array) states frames
    row =
  for j = 0 to Array.length specs - 1 do
    let v =
      match snd (Array.unsafe_get specs j) with
      | None -> Value.Null
      | Some c -> c frames row
    in
    Agg_state.add (Array.unsafe_get states j) v
  done

(* Aggregate a row sequence into one output row of finished values. *)
let run_aggregates specs (frames : Eval.frames) (rows : Tuple.t list) :
    Tuple.t =
  let states = agg_states specs in
  List.iter (fun row -> agg_add specs states frames row) rows;
  Array.map Agg_state.finish states

let compile_agg_args schema (aggs : (Expr.agg * string) list) =
  Array.of_list
    (List.map
       (fun ((a : Expr.agg), _) ->
         (a, Option.map (Eval.compile schema) a.Expr.arg))
       aggs)

(* Nested-loops expansion, shared by every join form and by Apply: each
   left row is paired with the rows [matches lrow] yields (push-style,
   in match order) and the joined rows passing [keep] are packed into
   output batches of exactly [size] rows (the last one may be short).
   Left rows are expanded one at a time, only until a batch is full, so
   a large expansion — a cross product, an inner returning thousands of
   rows per outer row — streams in [size]-row batches instead of
   materializing a whole left batch's product; one left row expanding
   past [size] spills into further batches queued for the next pulls.
   Keeping every batch at [size] rows also keeps its array on OCaml's
   minor heap (see [Batch.default_size]). *)
let expand ~size ~keep (matches : Tuple.t -> (Tuple.t -> unit) -> unit)
    (lbc : Batch.cursor) : Batch.cursor =
  let left = ref { Batch.rows = [||]; pos = 0; len = 0 } and li = ref 0 in
  let exhausted = ref false in
  let ready = Queue.create () in
  let out = ref [||] and n = ref 0 in
  let flush () =
    if !n > 0 then begin
      Queue.push { Batch.rows = !out; pos = 0; len = !n } ready;
      n := 0
    end
  in
  let push row =
    if !n = 0 then out := Array.make size Tuple.empty;
    Array.unsafe_set !out !n row;
    incr n;
    if !n = size then flush ()
  in
  let rec next () =
    if not (Queue.is_empty ready) then Some (Queue.pop ready)
    else if !li < !left.Batch.len then begin
      let b = !left in
      while Queue.is_empty ready && !li < b.Batch.len do
        let lrow = Batch.get b !li in
        incr li;
        matches lrow (fun rrow ->
            let joined = Tuple.concat lrow rrow in
            if keep joined then push joined)
      done;
      next ()
    end
    else if !exhausted then None
    else
      match lbc () with
      | Some b ->
          left := b;
          li := 0;
          next ()
      | None ->
          exhausted := true;
          flush ();
          next ()
  in
  next

let keep_all (_ : Tuple.t) = true

(* ---------- the compiler ---------- *)

(* [plan] is the public entry: with a metrics sink in the config it
   registers one Obs node per operator (the metric tree mirrors the plan
   tree, since [compile] recurses through [plan] for every child) and
   wraps the operator's batch cursor with the metering pull; without a
   sink it is exactly [compile].

   Every operator additionally gets the resource governor's cooperative
   wrapper: when the environment carries a governor, each batch pull
   checks the cancellation token and the wall-clock deadline (and
   reports the fault harness's Open/Next/Close sites).  Ungoverned runs
   pay one [match] per operator invocation and nothing per batch.

   The row-at-a-time [run] is derived here, once, from the wrapped
   [brun]. *)
let rec plan ?(config = default_config) ?(outer : Schema.t list = [])
    (p : Plan.t) : compiled =
  let op = Plan.op_name p in
  let finish node (schema, b) =
    let brun env =
      let pull = b env in
      let pull =
        match node with
        | None -> pull
        | Some (sink, n) ->
            Obs.instrument_batch sink n
              ~len:(fun (bt : Batch.t) -> bt.Batch.len)
              pull
      in
      Governor.guard env.Env.governor ~op pull
    in
    { schema; brun; run = (fun env -> Batch.to_cursor (brun env)) }
  in
  match config.observe with
  | None -> finish None (compile ~config ~outer p)
  | Some sink ->
      Obs.enter sink ~op (fun node ->
          finish (Some (sink, node)) (compile ~config ~outer p))

and compile ~config ~(outer : Schema.t list) (p : Plan.t) :
    Schema.t * (Env.t -> Batch.cursor) =
  let schema = Props.schema_of ~outer p in
  let size = config.batch_size in
  match p with
  | Plan.Table_scan { table; _ } ->
      (* visibility is resolved per run from the environment's snapshot,
         so the compiled closure is snapshot-agnostic and one cached
         plan serves every session *)
      ( schema,
        fun env ->
          let t = Catalog.find_table env.Env.catalog table in
          Batch.of_array ~size
            (match env.Env.snapshot with
            | None -> Relation.rows_array (Table.to_relation t)
            | Some snap -> Mvcc.visible_rows snap t) )
  | Plan.Group_scan { var; _ } ->
      ( schema,
        fun env ->
          Batch.of_array ~size (Relation.rows_array (Env.find_group env var))
      )
  | Plan.Select { pred; input } ->
      let c = plan ~config ~outer input in
      let test = Eval.compile_pred c.schema pred in
      (schema, fun env -> Batch.filter (test env.Env.frames) (c.brun env))
  | Plan.Project { items; input } ->
      let c = plan ~config ~outer input in
      let compiled_items =
        Array.of_list (List.map (fun (e, _) -> Eval.compile c.schema e) items)
      in
      let nitems = Array.length compiled_items in
      (* evaluate items into a preallocated output row — no intermediate
         list on the per-row path *)
      let project frames row =
        let out = Array.make nitems Value.Null in
        for j = 0 to nitems - 1 do
          Array.unsafe_set out j ((Array.unsafe_get compiled_items j) frames row)
        done;
        (out : Tuple.t)
      in
      (schema, fun env -> Batch.map (project env.Env.frames) (c.brun env))
  | Plan.Join { pred; left; right; _ } -> compile_join ~config ~outer pred left right
  | Plan.Alias { input; _ } -> (schema, (plan ~config ~outer input).brun)
  | Plan.Group_by { keys; aggs; input } ->
      let c = plan ~config ~outer input in
      let idxs = key_indexes c.schema keys in
      let specs = compile_agg_args c.schema aggs in
      let obs_node = obs_current config in
      ( schema,
        fun env ->
          Batch.deferred (fun () ->
              let pool = Domain_pool.for_parallelism config.parallelism in
              let gov = env.Env.governor in
              let rows =
                Batch.to_array
                  ?account:(Governor.batch_accountant gov ~op:"groupby.input")
                  (c.brun env)
              in
              let groups =
                group_rows ?pool ?gov ~op:"groupby.partition" ~idxs rows
              in
              Option.iter
                (fun n -> Obs.add_partitions n (List.length groups))
                obs_node;
              let finish (key, members) =
                Tuple.concat key (run_aggregates specs env.Env.frames members)
              in
              Batch.of_array ~size
                (match (pool, groups) with
                | Some pool, _ :: _ :: _ ->
                    (* groups are independent: aggregate each on the
                       pool, emitting results in group order *)
                    Domain_pool.parallel_map_array pool finish
                      (Array.of_list groups)
                | _ -> Array.of_list (List.map finish groups))) )
  | Plan.Aggregate { aggs; input } ->
      let c = plan ~config ~outer input in
      let specs = compile_agg_args c.schema aggs in
      ( schema,
        fun env ->
          Batch.deferred (fun () ->
              (* stream batches straight into the accumulators — no
                 materialized input, but each batch is still charged as
                 if buffered, so a memory ceiling means the same thing
                 here as at every other materialization point *)
              let account =
                Governor.batch_accountant env.Env.governor
                  ~op:"aggregate.input"
              in
              let states = agg_states specs in
              let frames = env.Env.frames in
              let bc = c.brun env in
              let rec drain () =
                match bc () with
                | None -> ()
                | Some b ->
                    (match account with
                    | None -> ()
                    | Some f -> f b.Batch.rows b.Batch.pos b.Batch.len);
                    Batch.iter (fun row -> agg_add specs states frames row) b;
                    drain ()
              in
              drain ();
              Batch.of_array [| Array.map Agg_state.finish states |]) )
  | Plan.Distinct input ->
      let c = plan ~config ~outer input in
      (* one seen-set per invocation *)
      let make_pred env =
        let seen = Tuple.Tbl.create 64 in
        let account =
          Governor.accountant env.Env.governor ~op:"distinct.hash"
        in
        fun row ->
          if Tuple.Tbl.mem seen row then false
          else begin
            Option.iter (fun f -> f row) account;
            Tuple.Tbl.add seen row ();
            true
          end
      in
      (schema, fun env -> Batch.filter (make_pred env) (c.brun env))
  | Plan.Order_by { keys; input } ->
      let c = plan ~config ~outer input in
      (* a bare-column key is compared in place; any other key is
         evaluated once per row into a trailing column of a widened row,
         which the same comparator sorts and the output drops *)
      let arity = Schema.arity c.schema in
      let exprs =
        List.filter_map
          (function
            | Expr.Col _, _ -> None | e, _ -> Some (Eval.compile c.schema e))
          keys
      in
      let next = ref arity in
      let idx = function
        | Expr.Col r, _ -> Schema.find ?qual:r.Expr.qual r.Expr.name c.schema
        | _ -> incr next; !next - 1
      in
      let cmp =
        compare_on
          (Array.of_list (List.map idx keys))
          (Array.of_list (List.map (fun (_, dir) -> dir = Plan.Desc) keys))
      in
      ( schema,
        fun env ->
          Batch.deferred (fun () ->
              let gov = env.Env.governor in
              let rows =
                Batch.to_array
                  ?account:(Governor.batch_accountant gov ~op:"orderby.input")
                  (c.brun env)
              in
              Governor.charge gov ~op:"orderby.sort"
                (Array.length rows * Governor.sort_partition_overhead_per_row);
              let pool = Domain_pool.for_parallelism config.parallelism in
              match exprs with
              | [] ->
                  sort_rows ?pool cmp rows;
                  Batch.of_array ~size rows
              | _ ->
                  let frames = env.Env.frames in
                  let widen row =
                    Array.append row
                      (Array.of_list (List.map (fun ce -> ce frames row) exprs))
                  in
                  let wide = Array.map widen rows in
                  sort_rows ?pool cmp wide;
                  Batch.of_array ~size
                    (Array.map (fun row -> Array.sub row 0 arity) wide)) )
  | Plan.Union_all branches ->
      let cs = List.map (plan ~config ~outer) branches in
      (schema, fun env -> Batch.concat (List.map (fun c () -> c.brun env) cs))
  | Plan.Apply { outer = outer_plan; inner } ->
      let co = plan ~config ~outer outer_plan in
      let ci = plan ~config ~outer:(co.schema :: outer) inner in
      (* Correlation detection: if no outer reference of [inner] binds to
         *this* Apply's row (they all resolve in enclosing frames, or
         there are none), the inner result is constant across the outer
         rows of one run and is evaluated once — the standard
         uncorrelated-subquery caching a production engine performs.
         This matters enormously for per-group queries like Q2, where
         the inner is an aggregate of the whole group.  The cached inner
         is lazy: an empty outer never runs it. *)
      let correlated =
        List.exists
          (fun (r : Expr.col_ref) ->
            Schema.find_all ?qual:r.Expr.qual r.Expr.name co.schema <> [])
          (Plan.outer_refs inner)
      in
      let matches =
        if correlated || not config.apply_cache then fun env orow yield ->
          Batch.drain_iter yield
            (ci.brun (Env.push_frame co.schema orow env))
        else fun env ->
          let inner_rows =
            lazy
              (Batch.to_array
                 ?account:
                   (Governor.batch_accountant env.Env.governor
                      ~op:"apply.cache")
                 (ci.brun env))
          in
          fun _ yield -> Array.iter yield (Lazy.force inner_rows)
      in
      ( schema,
        fun env ->
          Batch.deferred (fun () ->
              expand ~size ~keep:keep_all (matches env) (co.brun env)) )
  | Plan.Exists { input; negated } ->
      let c = plan ~config ~outer input in
      ( schema,
        fun env ->
          Batch.deferred (fun () ->
              let nonempty = c.brun env () <> None in
              Batch.of_array
                (if nonempty <> negated then [| Tuple.empty |] else [||])) )
  | Plan.G_apply { gcols; var; outer = outer_plan; pgq; cluster } ->
      let co = plan ~config ~outer outer_plan in
      let cp = plan ~config ~outer pgq in
      let idxs = key_indexes co.schema gcols in
      let obs_node = obs_current config in
      (* each group is materialised as a temporary relation (rows are
         copied into it, as the paper's execution phase describes) — so
         the width of the outer input is a real cost and the
         projection-before-GApply rule matters *)
      let make_bind env gov =
        let group_account = Governor.accountant gov ~op:"gapply.group" in
        fun (key, members) ->
          let arr = Array.of_list members in
          (match group_account with
          | None ->
              for i = 0 to Array.length arr - 1 do
                arr.(i) <- Tuple.copy arr.(i)
              done
          | Some account ->
              for i = 0 to Array.length arr - 1 do
                account arr.(i);
                arr.(i) <- Tuple.copy arr.(i)
              done);
          (key, Env.bind_group var (Relation.of_array co.schema arr) env)
      in
      ( schema,
        fun env ->
          Batch.deferred (fun () ->
              let pool = Domain_pool.for_parallelism config.parallelism in
              let gov = env.Env.governor in
              let rows =
                Batch.to_array
                  ?account:
                    (Governor.batch_accountant gov ~op:"gapply.materialize")
                  (co.brun env)
              in
              let groups = partition ~config ?pool ?gov ~idxs rows in
              Option.iter
                (fun n -> Obs.add_partitions n (List.length groups))
                obs_node;
              (* the Section 3.1 clustering guarantee: emit groups in key
                 order; sort partitioning already provides it, hash
                 partitioning orders the (small) group list *)
              let groups =
                if cluster && config.partition = Hash_partition then
                  List.sort (fun (a, _) (b, _) -> Tuple.compare a b) groups
                else groups
              in
              let bind = make_bind env gov in
              let run_group g =
                let key, env' = bind g in
                Batch.map (Tuple.concat key) (cp.brun env')
              in
              match (pool, groups) with
              | Some pool, _ :: _ :: _ ->
                  (* parallel execution phase: groups share no state (the
                     per-group semantics are order-independent), so each
                     group's compiled PGQ runs on the pool against its
                     own immutable Env.  Results are materialised per
                     group and concatenated in group order, keeping the
                     output tuple-identical to the sequential path —
                     including the clustering guarantee above. *)
                  let exec_account =
                    Governor.batch_accountant gov ~op:"gapply.exec"
                  in
                  let per_group =
                    Domain_pool.parallel_map_array pool
                      (fun g -> Batch.to_array ?account:exec_account (run_group g))
                      (Array.of_list groups)
                  in
                  Batch.concat
                    (List.map
                       (fun rows () -> Batch.of_array ~size rows)
                       (Array.to_list per_group))
              | _ -> Batch.concat (List.map (fun g () -> run_group g) groups))
      )

(* Partition phase of GApply.  Hash partitioning groups rows in
   first-seen order; sort partitioning additionally clusters the output
   by the grouping columns (the property the constant-space tagger
   needs).  With a pool, hashing merges per-domain partial partitions
   and sorting becomes a parallel merge sort; both orderings are
   identical to the sequential result.

   Memory accounting mirrors the real structures: hashing pays per-row
   table overhead (plus a merge pass when parallel) through
   [group_rows]; sorting only pays the merge buffer and the group
   lists.  The governor's graceful degradation leans on exactly this
   asymmetry. *)
and partition ~config ?pool ?gov ~idxs (rows : Tuple.t array) :
    (Tuple.t * Tuple.t list) list =
  match config.partition with
  | Hash_partition ->
      group_rows ?pool ?gov ~op:"gapply.partition(hash)" ~idxs rows
  | Sort_partition ->
      Governor.check gov ~op:"gapply.partition(sort)";
      Governor.charge gov ~op:"gapply.partition(sort)"
        (Array.length rows * Governor.sort_partition_overhead_per_row);
      (* sort the rows on the key columns, then cut a group wherever
         adjacent keys differ; each group's key is projected once *)
      let cmp = compare_on idxs (Array.make (Array.length idxs) false) in
      sort_rows ?pool cmp rows;
      let groups = ref [] and members = ref [] in
      for i = Array.length rows - 1 downto 0 do
        members := rows.(i) :: !members;
        if i = 0 || cmp rows.(i - 1) rows.(i) <> 0 then begin
          groups := (project_key idxs rows.(i), !members) :: !groups;
          members := []
        end
      done;
      !groups

(* Joins: hash join on extracted equi-pairs when possible, nested loops
   otherwise.  NULL join keys never match (SQL semantics), so rows with a
   NULL key are dropped from both build and probe sides of the hash
   join.

   Every form consumes the left side batch-wise through [expand]; they
   differ only in the match source.  Nested loops iterate the
   materialized right side; a single-component key probes a [Value.Tbl]
   (hash build) or the index's [Value]-keyed bucket directly, with no
   per-row key tuple. *)
and compile_join ~config ~outer pred left right :
    Schema.t * (Env.t -> Batch.cursor) =
  let cl = plan ~config ~outer left in
  let cr = plan ~config ~outer right in
  let schema = Schema.concat cl.schema cr.schema in
  let size = config.batch_size in
  let { Join_analysis.equi; residual } =
    Join_analysis.split ~left:cl.schema ~right:cr.schema pred
  in
  let residual_test =
    match residual with
    | [] -> None
    | ps -> Some (Eval.compile_pred schema (Expr.conjoin ps))
  in
  let keep env =
    match residual_test with
    | None -> keep_all
    | Some test -> test env.Env.frames
  in
  if equi = [] then
    ( schema,
      fun env ->
        Batch.deferred (fun () ->
            let right_rows =
              Batch.to_array
                ?account:
                  (Governor.batch_accountant env.Env.governor
                     ~op:"join.materialize")
                (cr.brun env)
            in
            expand ~size ~keep:(keep env)
              (fun _ yield -> Array.iter yield right_rows)
              (cl.brun env)) )
  else
    let left_keys =
      List.map (fun (a, _, _) -> Eval.compile cl.schema a) equi
    in
    let right_keys =
      List.map (fun (_, b, _) -> Eval.compile cr.schema b) equi
    in
    (* components from plain '=' pairs reject NULL keys; null-safe
       ('<=>') components let NULLs match each other *)
    let strict = Array.of_list (List.map (fun (_, _, ns) -> not ns) equi) in
    let key_rejected (key : Tuple.t) =
      let rejected = ref false in
      Array.iteri
        (fun i v ->
          if strict.(i) && Value.is_null v then rejected := true)
        (key : Tuple.t :> Value.t array);
      !rejected
    in
    (* index nested-loop candidate: the right side is a base-table scan
       and every right-side key is a bare column *)
    let index_candidate =
      match right with
      | Plan.Table_scan { table; _ } ->
          let cols =
            List.map
              (fun (_, b, _) ->
                match b with
                | Expr.Col r -> Some r.Expr.name
                | _ -> None)
              equi
          in
          if List.for_all Option.is_some cols then
            Some (table, List.map Option.get cols)
          else None
      | _ -> None
    in
    let index_probe env =
      if not config.use_indexes then None
      else
        match index_candidate with
        | None -> None
        | Some (table, cols) -> (
            match Catalog.find_index_on env.Env.catalog ~table ~cols with
            | None -> None
            | Some _
              when match env.Env.snapshot with
                   | Some snap -> Mvcc.staged_for snap table <> None
                   | None -> false ->
                (* the session has its own uncommitted rows on the inner
                   table: the index only covers committed rows, so bail
                   to the hash build, whose scan sees the staged rows *)
                None
            | Some index ->
                let base = Catalog.find_table env.Env.catalog table in
                (* freshen once when the probe cursor is built; a
                   version check makes the fresh case a wait-free no-op.
                   Rebuilds swap the store atomically, so capturing the
                   view here pins this query to one consistent build
                   even if a writer commits mid-probe. *)
                Index.refresh index base;
                let iview = Index.view index in
                (* offsets at or beyond the snapshot horizon belong to
                   transactions committed after this session's snapshot:
                   filter them out (the captured build may be fresher
                   than the snapshot, never staler) *)
                let visible =
                  match env.Env.snapshot with
                  | None -> max_int
                  | Some snap -> Mvcc.visible_count snap base
                in
                (* re-order the probe to the index's column order *)
                let by_col =
                  List.map2
                    (fun c ((_, _, ns), lk) -> (c, (lk, not ns)))
                    cols
                    (List.combine equi left_keys)
                in
                let probe =
                  List.map (fun c -> List.assoc c by_col)
                    (Index.columns index)
                in
                let frames = env.Env.frames in
                Some
                  (match probe with
                  | [ (ce, strict) ] ->
                      (* single-component key: no per-probe part list *)
                      fun lrow yield ->
                        let v = ce frames lrow in
                        if not (strict && Value.is_null v) then
                          Index.view_iter_single iview v (fun off ->
                              if off < visible then
                                yield (Table.get_row base off))
                  | probe ->
                      fun lrow yield ->
                        let parts =
                          List.map
                            (fun (ce, strict) -> (ce frames lrow, strict))
                            probe
                        in
                        if
                          not
                            (List.exists
                               (fun (v, strict) -> strict && Value.is_null v)
                               parts)
                        then
                          let key = Tuple.of_list (List.map fst parts) in
                          Index.view_iter_bucket iview key (fun off ->
                              if off < visible then
                                yield (Table.get_row base off))))
    in
    (* build the hash table from the right side; buckets are finalized
       into insertion-order arrays once the build drain finishes, so the
       per-row probe yields matches without allocating (no [List.rev]
       per probe) *)
    let build_lookup env (drain : (Tuple.t -> unit) -> unit) :
        Tuple.t -> (Tuple.t -> unit) -> unit =
      let frames = env.Env.frames in
      let build_account =
        Governor.accountant env.Env.governor ~op:"join.build"
      in
      let finalize bucket = Array.of_list (List.rev !bucket) in
      match (left_keys, right_keys) with
      | [ lk ], [ rk ] ->
          (* single-component key: hash the value itself *)
          let strict0 = strict.(0) in
          let acc : Tuple.t list ref Value.Tbl.t = Value.Tbl.create 256 in
          drain (fun rrow ->
              let v = rk frames rrow in
              if not (strict0 && Value.is_null v) then begin
                Option.iter (fun f -> f rrow) build_account;
                match Value.Tbl.find_opt acc v with
                | Some bucket -> bucket := rrow :: !bucket
                | None -> Value.Tbl.add acc v (ref [ rrow ])
              end);
          let tbl : Tuple.t array Value.Tbl.t =
            Value.Tbl.create (2 * Value.Tbl.length acc)
          in
          Value.Tbl.iter
            (fun v bucket -> Value.Tbl.replace tbl v (finalize bucket))
            acc;
          fun lrow yield ->
            let v = lk frames lrow in
            if not (strict0 && Value.is_null v) then
              match Value.Tbl.find_opt tbl v with
              | None -> ()
              | Some bucket -> Array.iter yield bucket
            else ()
      | _ ->
          let lks = Array.of_list left_keys in
          let rks = Array.of_list right_keys in
          let key_of ks row =
            (Array.map (fun ce -> ce frames row) ks : Tuple.t)
          in
          let acc : Tuple.t list ref Tuple.Tbl.t = Tuple.Tbl.create 256 in
          drain (fun rrow ->
              let key = key_of rks rrow in
              if not (key_rejected key) then begin
                Option.iter (fun f -> f rrow) build_account;
                match Tuple.Tbl.find_opt acc key with
                | Some bucket -> bucket := rrow :: !bucket
                | None -> Tuple.Tbl.add acc key (ref [ rrow ])
              end);
          let tbl : Tuple.t array Tuple.Tbl.t =
            Tuple.Tbl.create (2 * Tuple.Tbl.length acc)
          in
          Tuple.Tbl.iter
            (fun key bucket -> Tuple.Tbl.replace tbl key (finalize bucket))
            acc;
          fun lrow yield ->
            let key = key_of lks lrow in
            if not (key_rejected key) then
              match Tuple.Tbl.find_opt tbl key with
              | None -> ()
              | Some bucket -> Array.iter yield bucket
            else ()
    in
    ( schema,
      fun env ->
        match index_probe env with
        | Some probe ->
            Batch.deferred (fun () ->
                expand ~size ~keep:(keep env) probe (cl.brun env))
        | None ->
            Batch.deferred (fun () ->
                let lookup =
                  build_lookup env (fun f -> Batch.drain_iter f (cr.brun env))
                in
                expand ~size ~keep:(keep env) lookup (cl.brun env)) )
