(* Logical-to-physical compilation.

   [plan] turns a logical plan into a [compiled] value once; the returned
   [brun] closure can then be executed many times under different
   environments — which is exactly what Apply (per outer row) and GApply
   (per group) do.

   GApply execution follows the paper's two phases (Section 3): a
   partition phase (by sorting or hashing, per [config]) over the outer
   stream, which lays the groups out as slices of one member array
   ([groups]; hashing numbers the rows through a key table and places
   them with a counting sort), then an execution phase over the
   groups.  A group-local
   per-group query ([local_branches]: Project/Aggregate/Select chains
   over the group, over a Distinct projection of it, or over an Apply
   pairing the group's members with an uncorrelated scalar aggregate or
   EXISTS over the group; possibly kept or dropped whole by an EXISTS
   guard) runs as one loop per group that tests the guard, then
   filters, folds and projects the slice directly, running an Apply's
   inner once per group (under EXPLAIN ANALYZE, over counting copies
   of its closures); any other is compiled once and re-run per group
   with the slice bound to the relation-valued variable.

   Execution is vectorized: every operator is a cursor over [Batch.t]
   row arrays of up to [config.batch_size] rows and consumes its
   children batch-wise.  The row-at-a-time [run] exists only as the
   adapter at the tagger/client boundary, derived once from the wrapped
   [brun] through [Batch.to_cursor]. *)

type partition_strategy = Sort_partition | Hash_partition

(* The gapply_groups_total family: groups each GApply execution ran
   through the group-local loop or through its PGQ's cursor chain. *)
type gapply_groups = { loop : Metrics.counter; chain : Metrics.counter }

let gapply_groups reg =
  let path p =
    Metrics.counter_in reg ~label:("path", p)
      ~help:"GApply groups run as the group-local loop or as a cursor chain."
      "gapply_groups_total"
  in
  { loop = path "loop"; chain = path "chain" }

type config = {
  partition : partition_strategy;
  parallelism : int;
      (* total domains (submitter included) for the partition and
         execution phases of GApply/Group_by: 1 = sequential,
         0 = automatic (Domain.recommended_domain_count) *)
  batch_size : int;  (* rows per batch, >= 1 *)
  observe : Obs.t option;
      (* per-operator metrics sink (EXPLAIN ANALYZE / --analyze).  None
         compiles exactly the uninstrumented operators — zero overhead
         on the per-batch path when tracing is off. *)
  groups : gapply_groups option;  (* where GApply counts its groups *)
}

let default_config =
  {
    partition = Hash_partition;
    parallelism = 1;
    batch_size = Batch.default_size;
    observe = None;
    groups = None;
  }

let config_with ?(partition = Hash_partition) ?(parallelism = 1)
    ?(batch_size = Batch.default_size) ?observe ?groups () =
  if batch_size < 1 then
    invalid_arg
      (Printf.sprintf "Compile.config_with: batch_size %d < 1" batch_size);
  { partition; parallelism; batch_size; observe; groups }

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

(* The one row sort (ORDER BY and sort partitioning), in place and
   run-adaptive as compile.mli states; ties keep input order. *)
let min_run = 8

let sort_rows ?pool cmp (rows : 'a array) =
  let n = Array.length rows in
  (* [starts]: run starts after 0, latest first; [None]: runs too short *)
  let rec scan i starts nruns =
    if i >= n then Some starts
    else if cmp (Array.unsafe_get rows (i - 1)) (Array.unsafe_get rows i) <= 0
    then scan (i + 1) starts nruns
    else if (nruns + 1) * min_run > i + (min_run * min_run) then None
    else scan (i + 1) (i :: starts) (nruns + 1)
  in
  match scan 1 [] 1 with
  | Some [] -> ()
  | Some starts ->
      Domain_pool.merge_runs ?pool cmp rows
        (Array.of_list (0 :: List.rev (n :: starts)))
  | None -> (
      match pool with
      | Some pool -> Domain_pool.parallel_sort pool cmp rows
      | None -> Array.stable_sort cmp rows)

(* below this many rows the per-domain partial tables of the parallel
   partition phase cost more than they save *)
let parallel_partition_threshold = 1024

(* ---------- the partition layout ---------- *)

(* A partitioned input: every member row in one array (the input's
   own, reordered in place), each group a contiguous slice of it.
   Group [g] has key [keys.(g)] and members
   [members.(starts.(g)) .. members.(starts.(g + 1) - 1)]; groups are
   numbered in the partition's output order and members keep their
   input order.  A group is bound to its variable as a view over the
   array ([group_view]), so nothing is copied per group. *)
type groups = {
  members : Tuple.t array;
  keys : Tuple.t array;
  starts : int array;  (* one entry per group, then [Array.length members] *)
}

let group_count gs = Array.length gs.keys

let group_view gs g : Batch.t =
  let pos = gs.starts.(g) in
  { Batch.rows = gs.members; pos; len = gs.starts.(g + 1) - pos }

(* Number rows [pos .. pos+len-1] by their key on [idxs]: write into
   [ids] the id each row's key gets in a key table of the chunk's own,
   and return those keys by id (first-seen order).  One column keys the
   table by the bare value; several go through {!Tuple.number_rows}. *)
let number_chunk ~(idxs : int array) (rows : Tuple.t array) ids pos len =
  match idxs with
  | [| i0 |] ->
      let tbl : unit Value.Tbl.t = Value.Tbl.create 64 in
      for k = pos to pos + len - 1 do
        let v = Array.unsafe_get (Array.unsafe_get rows k) i0 in
        Array.unsafe_set ids k (Value.Tbl.intern tbl v ())
      done;
      Array.init (Value.Tbl.length tbl) (fun g -> [| Value.Tbl.key tbl g |])
  | _ ->
      let tbl : unit Tuple.Tbl.t = Tuple.Tbl.create 64 in
      Tuple.number_rows tbl () ~positions:idxs rows ~ids ~pos ~len;
      Array.init (Tuple.Tbl.length tbl) (Tuple.Tbl.key tbl)

(* Hash partitioning, in place.  Group order is deterministic — reverse
   of first-seen key order — and each group's rows stay in input order.

   Every row gets a group id from a key table, then a counting sort over
   the ids lays the members out group after group.  The input is cut
   into chunks numbered on their own — one chunk sequentially, one per
   domain with a pool — and the chunks' keys are merged in chunk order
   into one table, which renumbers them.  Walking each chunk's keys in
   its first-seen order makes the merged first-seen order the
   sequential one, so every chunk count gives the same layout.

   Under a governor ([gov]), every chunk first passes a cancellation /
   deadline check and charges the partition's per-row structure
   overhead against the memory ceiling, before it is numbered — this
   is the accounting that makes a hash-partition blow-up trip *during*
   partitioning, which the engine then retries sort-based (see
   Governor). *)
let group_rows ?pool ?gov ~op ~(idxs : int array) (rows : Tuple.t array) :
    groups =
  let n = Array.length rows in
  let ids = Array.make n 0 in
  let chunk (pos, len) =
    Governor.check gov ~op;
    Governor.charge gov ~op (len * Governor.hash_partition_overhead_per_row);
    number_chunk ~idxs rows ids pos len
  in
  let first_seen =
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
        let keys = Domain_pool.parallel_map_array pool chunk ranges in
        (* the chunk-order merge keys every chunk's groups into one table:
           charge its structure overhead too (the parallel hash path
           really does hold the chunks' tables and the merged one at
           once) *)
        Governor.charge gov ~op
          (n * Governor.hash_partition_merge_overhead_per_row);
        let tbl : unit Tuple.Tbl.t = Tuple.Tbl.create 64 in
        Array.iteri
          (fun c (pos, len) ->
            let merged =
              Array.map (fun key -> Tuple.Tbl.intern tbl key ()) keys.(c)
            in
            for k = pos to pos + len - 1 do
              ids.(k) <- merged.(ids.(k))
            done)
          ranges;
        Array.init (Tuple.Tbl.length tbl) (Tuple.Tbl.key tbl)
    | _ -> chunk (0, n)
  in
  (* the counting sort: first-seen group [g] is output group [ng - 1 - g],
     and each row's id becomes its place in the layout *)
  let ng = Array.length first_seen in
  let next = Array.make ng 0 in
  Array.iter (fun g -> next.(g) <- next.(g) + 1) ids;
  let keys = Array.make ng Tuple.empty and starts = Array.make (ng + 1) 0 in
  for o = 0 to ng - 1 do
    let g = ng - 1 - o in
    keys.(o) <- first_seen.(g);
    starts.(o + 1) <- starts.(o) + next.(g);
    next.(g) <- starts.(o)
  done;
  for k = 0 to n - 1 do
    let g = Array.unsafe_get ids k in
    let at = Array.unsafe_get next g in
    Array.unsafe_set ids k at;
    Array.unsafe_set next g (at + 1)
  done;
  (* move every row to its place, one cycle of the permutation at a
     time; a row in place has [ids.(k) = k] *)
  for k = 0 to n - 1 do
    while Array.unsafe_get ids k <> k do
      let d = Array.unsafe_get ids k in
      let row = Array.unsafe_get rows d in
      Array.unsafe_set rows d (Array.unsafe_get rows k);
      Array.unsafe_set ids k (Array.unsafe_get ids d);
      Array.unsafe_set ids d d;
      Array.unsafe_set rows k row
    done
  done;
  { members = rows; keys; starts }

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

let compile_agg_args schema (aggs : (Expr.agg * string) list) =
  Array.of_list
    (List.map
       (fun ((a : Expr.agg), _) ->
         (a, Option.map (Eval.compile schema) a.Expr.arg))
       aggs)

(* Pack the rows a producer pushes into batches of exactly [size] rows
   (the last one may be short).  Each [step push] call produces the next
   piece of output — any number of rows, possibly none — and returns
   [false] once there is nothing left.  Pieces are produced only until a
   batch is full, so the output streams in [size]-row batches; a piece
   spilling past [size] rows fills further batches, queued for the next
   pulls.  Keeping every batch at [size] rows also keeps its array on
   OCaml's minor heap (see [Batch.default_size]). *)
let pack ~size (step : (Tuple.t -> unit) -> bool) : Batch.cursor =
  let ready = Queue.create () in
  let out = ref [||] and n = ref 0 and exhausted = ref false in
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
    else if !exhausted then None
    else begin
      if not (step push) then begin
        exhausted := true;
        flush ()
      end;
      next ()
    end
  in
  next

(* Nested-loops expansion, shared by every join form and by Apply: each
   left row's matches come as one array (a hash bucket, an index probe's
   visible rows, the materialized right side, an Apply inner's rows), and
   [emit push lrow rrow] writes the output row of each match, in match
   order, into [size]-row batches.  Left rows are expanded one at a time,
   only until a batch is full, so a large expansion — a cross product,
   an inner returning thousands of rows per outer row — streams instead
   of materializing a whole left batch's product. *)
let expand ~size ~(emit : (Tuple.t -> unit) -> Tuple.t -> Tuple.t -> unit)
    (matches : Tuple.t -> Tuple.t array) (lbc : Batch.cursor) : Batch.cursor =
  let left = ref { Batch.rows = [||]; pos = 0; len = 0 } and li = ref 0 in
  pack ~size (fun push ->
      if !li < !left.Batch.len then begin
        let lrow = Batch.get !left !li in
        incr li;
        let ms = matches lrow in
        for i = 0 to Array.length ms - 1 do
          emit push lrow (Array.unsafe_get ms i)
        done;
        true
      end
      else
        match lbc () with
        | Some b ->
            left := b;
            li := 0;
            true
        | None -> false)

(* One scratch key over the key expressions [ks], refilled for every
   row it is given: a caller reads the key before the next row and
   copies it to keep it. *)
let key_of frames (ks : Eval.compiled array) =
  let scratch = Array.make (Array.length ks) Value.Null in
  fun row ->
    for j = 0 to Array.length ks - 1 do
      Array.unsafe_set scratch j ((Array.unsafe_get ks j) frames row)
    done;
    (scratch : Tuple.t)

(* Whether a join key matches nothing: a NULL in a [strict] ('=')
   component. *)
let key_rejected strict (key : Tuple.t) =
  let rejected = ref false in
  for i = 0 to Array.length key - 1 do
    if strict.(i) && Value.is_null (Array.unsafe_get key i) then
      rejected := true
  done;
  !rejected

(* A join's hash build in one pass over a key table: a key's first row
   goes in as a one-row bucket, and only the rows of keys that repeat
   are collected on the side, with their key's id, and appended to their
   bucket once the build side is drained.  A key-unique build side (an
   FK join's referenced table; its key is not enforced unique, so this
   is never assumed) fills one table and finalizes nothing.  Buckets
   keep insertion order.  The table is sized for the [size] rows [fill]
   adds at most, and [keep] is the key it stores for a new key (a copy
   when [fill] hands out a reused scratch key).  Returns the probe: a
   key's bucket, [[||]] when none. *)
let hash_build (type k) (module H : Keytbl.S with type key = k) ~size
    ~(keep : k -> k) (fill : (k -> Tuple.t -> unit) -> unit) :
    k -> Tuple.t array =
  let tbl = H.create size and more = ref [] in
  fill (fun key row ->
      let g = H.find_id tbl key in
      if g >= 0 then more := (g, row) :: !more
      else H.add tbl (keep key) [| row |]);
  if !more <> [] then begin
    (* latest first, so consing puts each key's rows in build order *)
    let extra = Array.make (H.length tbl) [] in
    List.iter (fun (g, row) -> extra.(g) <- row :: extra.(g)) !more;
    Array.iteri
      (fun g rows ->
        if rows <> [] then
          H.set_value tbl g (Array.append (H.value tbl g) (Array.of_list rows)))
      extra
  end;
  fun key ->
    let g = H.find_id tbl key in
    if g < 0 then [||] else H.value tbl g

let emit_concat push lrow rrow = push (Tuple.concat lrow rrow)

(* A join's output row for a match.  With [cols] (the bare-column map of
   a Project right above, as indexes into [lrow ++ rrow]) only the kept
   cells are written, straight from the two rows.  A residual predicate
   is tested on the concatenated row first. *)
let join_emit ~nl ~(cols : int array option) ~residual =
  match (cols, residual) with
  | None, None -> emit_concat
  | None, Some test ->
      fun push lrow rrow ->
        let joined = Tuple.concat lrow rrow in
        if test joined then push joined
  | Some cols, None ->
      let k = Array.length cols in
      fun push (lrow : Tuple.t) (rrow : Tuple.t) ->
        let out = Array.make k Value.Null in
        for j = 0 to k - 1 do
          let c = Array.unsafe_get cols j in
          Array.unsafe_set out j (if c < nl then lrow.(c) else rrow.(c - nl))
        done;
        push (out : Tuple.t)
  | Some cols, Some test ->
      fun push lrow rrow ->
        let joined = Tuple.concat lrow rrow in
        if test joined then push (Array.map (Array.get joined) cols)

(* The execution phase of GApply / Group_by over a partition's groups,
   taken in [order]: [emit g push] pushes group [g]'s output rows.
   Every group first passes a cancellation / deadline check.
   Sequentially the rows are packed into [size]-row batches as they are
   pulled.  With a pool, groups share no state (the per-group semantics
   are order-independent), so each group's rows are collected on the
   pool ([account] charges them) and concatenated in group order: the
   same rows in the same order as the sequential path. *)
let run_groups ~size ?pool ?gov ~op ?account (order : int array) emit :
    Batch.cursor =
  let n = Array.length order in
  match pool with
  | Some pool when n >= 2 ->
      let collect g =
        Governor.check gov ~op;
        let acc = ref [] in
        emit g (fun row -> acc := row :: !acc);
        let rows = Array.of_list (List.rev !acc) in
        Option.iter (fun f -> f rows 0 (Array.length rows)) account;
        rows
      in
      Batch.of_array ~size
        (Array.concat
           (Array.to_list
              (Domain_pool.parallel_map_array pool collect order)))
  | _ ->
      let i = ref 0 in
      pack ~size (fun push ->
          !i < n
          && begin
               Governor.check gov ~op;
               emit order.(!i) push;
               incr i;
               true
             end)

(* ---------- group-local per-group queries ---------- *)

(* Whether an outer reference of [inner] binds to the row of an Apply
   whose outer input has [schema] — then the inner is re-run per outer
   row; otherwise it is constant across them. *)
let correlated ~schema inner =
  List.exists
    (fun (r : Expr.col_ref) ->
      Schema.find_all ?qual:r.Expr.qual r.Expr.name schema <> [])
    (Plan.outer_refs inner)

(* A group-local PGQ: its [branches], the operands of [body] (a UNION
   ALL, or the one branch), and the [Exists] that keeps or drops the
   whole group when the PGQ is [Apply (guard, body)]. *)
type local_pgq = {
  guard : Plan.t option;
  body : Plan.t;
  branches : Plan.t list;
}

(* The shape of a group-local PGQ over [var]: a UNION ALL (or one
   branch) of [Project? (Aggregate? (Select* source))] chains, possibly
   guarded as [Apply (Exists test, _)].  A source is [Group_scan var],
   [Distinct (Project? (Select* (Group_scan var)))] or
   [Apply (Select* (Group_scan var), inner)] with an uncorrelated inner
   [Aggregate (Select* (Group_scan var))] or [Exists test]; a [test] is
   [Select* (Aggregate? (Select* (Group_scan var)))]. *)
let local_branches ~var (pgq : Plan.t) : local_pgq option =
  let rec selects = function
    | Plan.Select { input; _ } -> selects input
    | Plan.Group_scan { var = v; _ } -> String.equal v var
    | _ -> false
  in
  let rec test = function
    | Plan.Select { input; _ } -> test input
    | Plan.Aggregate { input; _ } -> selects input
    | p -> selects p
  in
  let projected = function
    | Plan.Project { input; _ } -> selects input
    | p -> selects p
  in
  let rec source = function
    | Plan.Select { input; _ } -> source input
    | Plan.Distinct input -> projected input
    | Plan.Apply
        {
          outer = o;
          inner =
            (Plan.Aggregate { input; _ } | Plan.Exists { input; _ }) as i;
        } ->
        selects o
        && (match i with Plan.Exists _ -> test input | _ -> selects input)
        && not (correlated ~schema:(Props.schema_of o) i)
    | p -> selects p
  in
  let below_project = function
    | Plan.Aggregate { input; _ } -> source input
    | p -> source p
  in
  let branch = function
    | Plan.Project { input; _ } -> below_project input
    | p -> below_project p
  in
  let local guard body =
    let branches = match body with Plan.Union_all bs -> bs | p -> [ p ] in
    if List.for_all branch branches then Some { guard; body; branches }
    else None
  in
  match pgq with
  | Plan.Apply { outer = Plan.Exists { input; _ } as guard; inner }
    when test input ->
      local (Some guard) inner
  | p -> local None p

let group_local ~var pgq = Option.is_some (local_branches ~var pgq)

(* One compiled branch, with the Obs node of each of its operators when
   observed. *)
type local_branch = {
  source : source;
  preds : (Eval.frames -> Tuple.t -> bool) array;  (* innermost first *)
  aggs : (Expr.agg * Eval.compiled option) array option;
  items : Eval.compiled array option;  (* None: no Project *)
  select_nodes : Obs.node option array;  (* like [preds] *)
  agg_node : Obs.node option;
  project_node : Obs.node option;
}

(* The rows a branch's Selects read: the group's members; the
   first-seen rows of a Distinct's input ([projected], a branch of
   Selects and a Project over the members); or an Apply's output — each
   member passing [outer]'s Selects, followed by the values of an
   Aggregate inner or alone when an EXISTS inner holds.  [outer] and an
   Aggregate inner are branches over the group themselves: Selects
   only, and Selects with [aggs]. *)
and source =
  | Scan of Obs.node option
  | Distinct of local_distinct
  | Apply of local_apply

and local_distinct = {
  projected : local_branch;
  distinct_node : Obs.node option;
}

and local_apply = {
  outer : local_branch;
  width : int;  (* the members' arity *)
  inner : local_inner;
  apply_node : Obs.node option;
}

and local_inner = Values of local_branch | Test of local_exists

(* [EXISTS probe] over the group, or [NOT EXISTS]: [probe] is Selects
   over the members, or Selects and [aggs] for an Aggregate, whose
   folded row must then pass [having], the Selects over the Aggregate. *)
and local_exists = {
  probe : local_branch;
  having : (Eval.frames -> Tuple.t -> bool) array;  (* innermost first *)
  having_nodes : Obs.node option array;  (* like [having] *)
  negated : bool;
  exists_node : Obs.node option;
  drain : int option;
      (* [Some size] when counted: the probe's chain drains the
         [size]-row batch of its first survivor, so [holds] reads it *)
}

let scan_branch node =
  {
    source = Scan node; preds = [||]; aggs = None; items = None;
    select_nodes = [||]; agg_node = None; project_node = None;
  }

(* What an Apply pairs each of one group's outer members with: no row
   (it emits nothing), the empty row (the member passes unchanged), or
   the inner's values, held in the tail of one scratch row per group
   that each member is copied into. *)
type pairing = Nothing | Unchanged | Widened of Tuple.t

(* How many of [preds] a row passes, innermost first, counting from
   [k]: all of them (= [Array.length preds]) keeps it.  Top-level, so
   the per-row call allocates no closure. *)
let rec level preds frames row k =
  if k < Array.length preds && (Array.unsafe_get preds k) frames row then
    level preds frames row (k + 1)
  else k

(* The offset in [v] of the first member passing every Select of [b]. *)
let first_row b frames (v : Batch.t) =
  let np = Array.length b.preds and stop = v.Batch.pos + v.Batch.len in
  let rec go i =
    if i >= stop then None
    else if level b.preds frames (Array.unsafe_get v.Batch.rows i) 0 = np
    then Some (i - v.Batch.pos)
    else go (i + 1)
  in
  go v.Batch.pos

(* [key] followed by the branch's projection of [row] (or [row] itself
   without a Project), written into one fresh row. *)
let branch_row b key frames row =
  match b.items with
  | None -> Tuple.concat key row
  | Some items ->
      let k = Array.length key in
      let out = Array.make (k + Array.length items) Value.Null in
      Array.blit key 0 out 0 k;
      for j = 0 to Array.length items - 1 do
        Array.unsafe_set out (k + j) ((Array.unsafe_get items j) frames row)
      done;
      out

(* Apply [a]'s pairing with an Aggregate inner's [values] (charged under
   "apply.cache", as the cached inner is). *)
let widened a gov values =
  if Option.is_some gov then
    Governor.charge gov ~op:"apply.cache" (Governor.tuple_bytes values);
  let k = Array.length values in
  let scratch = Array.make (a.width + k) Value.Null in
  Array.blit values 0 scratch a.width k;
  Widened scratch

(* A Distinct's seen-set, with the governor's charge for each row it
   keeps: one per Distinct cursor, and one per group and call in the
   group-local loop, so groups run in parallel share none. *)
type seen_set = {
  seen : unit Tuple.Tbl.t;
  charge : (Tuple.t -> unit) option;
}

let seen_set gov =
  {
    seen = Tuple.Tbl.create 16;
    charge = Governor.accountant gov ~op:"distinct.hash";
  }

(* Add [row] to [s]; whether it was new (its id is the old length). *)
let first_seen s row =
  let n = Tuple.Tbl.length s.seen in
  Tuple.Tbl.intern s.seen row () = n
  && begin
       Option.iter (fun charge -> charge row) s.charge;
       true
     end

(* Whether [items] over [row] equal [last]'s cells from [j] on.
   Top-level, so the per-member call allocates no closure. *)
let rec same_cells items frames row (last : Tuple.t) j =
  j = Array.length items
  || Value.equal_total (Array.unsafe_get last j)
       ((Array.unsafe_get items j) frames row)
     && same_cells items frames row last (j + 1)

(* Whether branch [b]'s projection of [row] equals the row the group's
   Distinct kept [last], and so is no new row: known without a hash or a
   fresh row, the common case of a Distinct over columns the group
   shares. *)
let repeats_last last b frames row =
  match last with
  | None -> false
  | Some last -> (
      match b.items with
      | None -> Tuple.equal last row
      | Some items -> same_cells items frames row last 0)

(* One group through one branch: filter, fold and project the rows of
   its source over the group's slice [v] in one loop, pushing
   [key ++ values] rows in the order the branch's cursor chain yields
   them.  An Aggregate charges the rows it folds under
   "aggregate.input", as its cursor does. *)
let rec run_branch b gov frames key (v : Batch.t) push =
  let np = Array.length b.preds in
  match b.aggs with
  | None ->
      each_row b gov frames v (fun row ->
          if level b.preds frames row 0 = np then
            push (branch_row b key frames row))
  | Some specs ->
      let states = agg_states specs in
      let governed = Option.is_some gov and bytes = ref 0 in
      each_row b gov frames v (fun row ->
          if level b.preds frames row 0 = np then begin
            agg_add specs states frames row;
            if governed then bytes := !bytes + Governor.tuple_bytes row
          end);
      Governor.charge gov ~op:"aggregate.input" !bytes;
      push (branch_row b key frames (Array.map Agg_state.finish states))

(* [f] on every row of [b]'s source over [v], in order.  An Apply runs
   its inner once per group, when the first member passes its outer
   Selects (the cursor chain's cached inner is as lazy), and hands [f]
   its scratch row: [f] must not keep the row it is given. *)
and each_row b gov frames (v : Batch.t) f =
  let stop = v.Batch.pos + v.Batch.len in
  match b.source with
  | Scan _ ->
      for i = v.Batch.pos to stop - 1 do
        f (Array.unsafe_get v.Batch.rows i)
      done
  | Apply a ->
      let nop = Array.length a.outer.preds in
      let pairing = ref None in
      for i = v.Batch.pos to stop - 1 do
        let row = Array.unsafe_get v.Batch.rows i in
        if level a.outer.preds frames row 0 = nop then
          let p =
            match !pairing with
            | Some p -> p
            | None ->
                let p = pair a gov frames v in
                pairing := Some p;
                p
          in
          match p with
          | Nothing -> ()
          | Unchanged -> f row
          | Widened scratch ->
              Array.blit row 0 scratch 0 a.width;
              f scratch
      done
  | Distinct d ->
      let seen = seen_set gov and np = Array.length d.projected.preds in
      let last = ref None in
      for i = v.Batch.pos to stop - 1 do
        let row = Array.unsafe_get v.Batch.rows i in
        if
          level d.projected.preds frames row 0 = np
          && not (repeats_last !last d.projected frames row)
        then begin
          let out = branch_row d.projected Tuple.empty frames row in
          if first_seen seen out then begin
            last := Some out;
            f out
          end
        end
      done

(* Apply [a]'s inner over group [v]: Exists's test, or the folded
   values. *)
and pair a gov frames (v : Batch.t) =
  match a.inner with
  | Test e -> if holds e gov frames v then Unchanged else Nothing
  | Values inner ->
      let values = ref Tuple.empty in
      run_branch inner gov frames Tuple.empty v (fun row -> values := row);
      widened a gov !values

(* Whether EXISTS [e] (or NOT EXISTS) holds for group [v]: some member
   passes its probe's Selects — the scan stops there, or at the end of
   its batch when [e] drains — or the folded row passes its
   [having]. *)
and holds e gov frames (v : Batch.t) =
  let b = e.probe in
  let found =
    match b.aggs with
    | None -> (
        match (first_row b frames v, e.drain) with
        | Some i, Some size ->
            let stop = min v.Batch.len (((i / size) + 1) * size) in
            for j = v.Batch.pos + i + 1 to v.Batch.pos + stop - 1 do
              ignore (level b.preds frames v.Batch.rows.(j) 0)
            done;
            true
        | first, _ -> Option.is_some first)
    | Some _ ->
        let hit = ref false in
        run_branch b gov frames Tuple.empty v (fun row ->
            hit := level e.having frames row 0 = Array.length e.having);
        !hit
  in
  found <> e.negated

(* ---------- counting the loop ---------- *)

(* One branch's counts as its cursor chain makes them, per level of its
   Selects (0 = its source's rows, k = past the k-th Select): the rows
   that reach it and their batches — a Select yields one batch per
   input batch with a survivor.  [batch] numbers the batch of the row
   being tested, never reusing a number, and [fill] counts its rows;
   [groups] counts the groups with a source row, [group] is the last
   one's number (the copy's [ran]). *)
type meter = {
  rows : int array;
  batches : int array;
  last : int array;  (* each level's latest batch *)
  mutable batch : int;
  mutable fill : int;
  mutable groups : int;
  mutable group : int;
}

let meter n =
  let a () = Array.make n 0 in
  { rows = a (); batches = a (); last = a (); batch = 0; fill = 0;
    groups = 0; group = 0 }

let tick m k =
  Array.unsafe_set m.rows k (Array.unsafe_get m.rows k + 1);
  if Array.unsafe_get m.last k <> m.batch then begin
    Array.unsafe_set m.last k m.batch;
    Array.unsafe_set m.batches k (Array.unsafe_get m.batches k + 1)
  end

(* A counting copy of a group-local PGQ, used by one domain: per
   operator its Obs node, (invocations, rows, batches) and time; the
   groups it [ran]; the batches the guarded Apply [packed] its rows
   into; the time of the guard ([ns.(0)]) and of each branch. *)
type counting = {
  mutable readers :
    (Obs.node * (unit -> int * int * int) * (unit -> int)) list;
  mutable ran : int;
  mutable packed : int;
  ns : int array;
}

(* Add the time since [t0] to [c.ns.(i)]; returns the time now. *)
let lap c i t0 =
  let now = Metrics.now_ns () in
  c.ns.(i) <- c.ns.(i) + (now - t0);
  now

let register c ~time node read =
  Option.iter (fun n -> c.readers <- (n, read, time) :: c.readers) node

(* [b] with counting Selects after a counting test that every row
   passes, over a fresh meter [m], and a reader in [c] timed by [time]
   for each operator.  Returns it, the meter [unit] of the group scan
   under its source (whose [groups] count the branch's invocations:
   each reads the group's first member first) and its output reader. *)
let rec counted ~size c ~time b =
  let m = meter (Array.length b.preds + 1) in
  (* a group scan yields [size]-row chunks of the slice; an Apply packs
     its output into [size]-row batches *)
  let ordinal _ _ =
    if m.group <> c.ran || m.fill = size then begin
      if m.group <> c.ran then m.groups <- m.groups + 1;
      m.group <- c.ran;
      m.batch <- m.batch + 1;
      m.fill <- 0
    end;
    m.fill <- m.fill + 1;
    tick m 0;
    true
  in
  let source, level0, unit, node =
    match b.source with
    | Scan node -> (b.source, ordinal, m, node)
    | Distinct d ->
        (* a Distinct keeps its input's batches *)
        let projected, unit, _ = counted ~size c ~time d.projected in
        let keeps _ _ = m.batch <- unit.batch; tick m 0; true in
        (Distinct { d with projected }, keeps, unit, d.distinct_node)
    | Apply a ->
        let outer, unit, _ = counted ~size c ~time a.outer in
        let inner =
          match a.inner with
          | Values i -> Values (match counted ~size c ~time i with i, _, _ -> i)
          | Test e ->
              (* the Apply yields rows in the groups its Exists holds for *)
              let hits () = m.groups in
              Test (counted_exists ~size c ~time ~hits e)
        in
        (Apply { a with outer; inner }, ordinal, unit, a.apply_node)
  in
  let at k () = (unit.groups, m.rows.(k), m.batches.(k)) in
  (* an Aggregate, and a Project over it, yield a row per invocation *)
  let once () = (unit.groups, unit.groups, unit.groups) in
  let out = if Option.is_some b.aggs then once else at (Array.length b.preds) in
  let add = register c ~time in
  add node (at 0);
  Array.iteri (fun k node -> add node (at (k + 1))) b.select_nodes;
  add b.agg_node out;
  add b.project_node out;
  let select k test =
    let k = k + 1 in
    fun frames row -> test frames row && (tick m k; true)
  in
  let preds = Array.append [| level0 |] (Array.mapi select b.preds) in
  ({ b with source; preds }, unit, out)

(* Exists [e] counted in [c], yielding a row in [hits ()] groups. *)
and counted_exists ~size c ~time ~hits e =
  let probe, unit, _ = counted ~size c ~time e.probe in
  let passed = Array.make (Array.length e.having) 0 in
  let add = register c ~time in
  let at k () = (unit.groups, passed.(k), passed.(k)) in
  Array.iteri (fun k node -> add node (at k)) e.having_nodes;
  add e.exists_node (fun () -> (unit.groups, hits (), hits ()));
  let having k test frames row =
    test frames row && (passed.(k) <- passed.(k) + 1; true)
  in
  { e with probe; having = Array.mapi having e.having; drain = Some size }

(* ---------- compiling the loop ---------- *)

(* [f] with the Obs node of operator [p] when observed, registered under
   the node being compiled, as [plan] does. *)
let observed config p f =
  match config.observe with
  | None -> f None
  | Some sink -> Obs.enter sink ~op:(Plan.op_name p) (fun n -> f (Some n))

(* Compile one branch of a group-local PGQ, registering the Obs node of
   each operator around its inputs', as [plan] does.  Returns the branch
   and its output schema. *)
let rec compile_branch ~config ~outer p : local_branch * Schema.t =
  observed config p @@ fun node ->
  let input () = compile_branch ~config ~outer (List.hd (Plan.children p)) in
  match p with
  | Plan.Select { pred; _ } ->
      let b, schema = input () in
      ( {
          b with
          preds = Array.append b.preds [| Eval.compile_pred schema pred |];
          select_nodes = Array.append b.select_nodes [| node |];
        },
        schema )
  | Plan.Aggregate { aggs; _ } ->
      let b, schema = input () in
      ( { b with aggs = Some (compile_agg_args schema aggs); agg_node = node },
        Props.schema_of ~outer p )
  | Plan.Project { items; _ } ->
      let b, schema = input () in
      let items = List.map (fun (e, _) -> Eval.compile schema e) items in
      ( { b with items = Some (Array.of_list items); project_node = node },
        Props.schema_of ~outer p )
  | Plan.Distinct _ ->
      let b, schema = input () in
      let source = Distinct { projected = b; distinct_node = node } in
      ({ (scan_branch None) with source }, schema)
  | Plan.Apply { outer = o; inner } ->
      let ob, oschema = compile_branch ~config ~outer o in
      let inner_outer = oschema :: outer in
      let inner =
        match inner with
        | Plan.Exists _ -> Test (compile_exists ~config ~outer:inner_outer inner)
        | _ -> Values (fst (compile_branch ~config ~outer:inner_outer inner))
      in
      let source =
        Apply
          { outer = ob; width = Schema.arity oschema; inner; apply_node = node }
      in
      ({ (scan_branch None) with source }, Props.schema_of ~outer p)
  | _ -> (scan_branch node, Props.schema_of ~outer p)

and compile_exists ~config ~outer p =
  observed config p @@ fun exists_node ->
  (* the Selects over an Aggregate probe, compiled around it *)
  let rec having_over = function
    | Plan.Select { input; _ } -> having_over input
    | Plan.Aggregate _ -> true
    | _ -> false
  in
  let rec compile_probe p =
    match p with
    | Plan.Select { input; pred } when having_over input ->
        observed config p @@ fun node ->
        let b, schema, having, having_nodes = compile_probe input in
        ( b,
          schema,
          Array.append having [| Eval.compile_pred schema pred |],
          Array.append having_nodes [| node |] )
    | p ->
        let b, schema = compile_branch ~config ~outer p in
        (b, schema, [||], [||])
  in
  match p with
  | Plan.Exists { input; negated } ->
      let probe, _, having, having_nodes = compile_probe input in
      { probe; having; having_nodes; negated; exists_node; drain = None }
  | _ -> invalid_arg "Compile.compile_exists: not an Exists"

(* Compile a group-local PGQ (its shape [l] from [local_branches]) into
   [run gov frames groups key view push], which runs one of a GApply
   execution's [groups] groups through every branch in turn — once its
   guard holds, when it has one.  With a metrics sink it registers the
   Obs nodes that the PGQ's cursor chain would and counts what they
   count on copies of the branches ([counted]), recorded once per
   execution, so a GApply abandoned before its last group (under an
   EXISTS) records nothing for its PGQ. *)
let compile_local ~config ~outer pgq (l : local_pgq) =
  let compile_all () =
    Array.of_list
      (List.map (fun p -> fst (compile_branch ~config ~outer p)) l.branches)
  in
  match config.observe with
  | None -> (
      let branches = compile_all () in
      let run gov frames key v push =
        Array.iter (fun b -> run_branch b gov frames key v push) branches
      in
      let run =
        match l.guard with
        | None -> run
        | Some guard ->
            let e = compile_exists ~config ~outer guard in
            fun gov frames key v push ->
              if holds e gov frames v then run gov frames key v push
      in
      fun gov frames _groups -> run gov frames)
  | Some sink ->
      let size = config.batch_size in
      let body () =
        match l.body with
        | Plan.Union_all _ ->
            observed config l.body (fun n -> (n, compile_all ()))
        | _ -> (None, compile_all ())
      in
      let apply_node, guard, (union_node, branches) =
        match l.guard with
        | None -> (None, None, body ())
        | Some g ->
            observed config pgq (fun n ->
                let e = compile_exists ~config ~outer g in
                (n, Some e, body ()))
      in
      let copy () =
        let ns = Array.make (Array.length branches + 1) 0 in
        let c = { readers = []; ran = 0; packed = 0; ns } in
        let time i () = c.ns.(i) and all_ns () = Array.fold_left ( + ) 0 c.ns in
        let count i b = counted ~size c ~time:(time (i + 1)) b in
        let counted = Array.mapi count branches in
        (* the body ran in the groups whose guard held *)
        let held () = match counted.(0) with _, unit, _ -> unit.groups in
        let guard =
          Option.map (counted_exists ~size c ~time:(time 0) ~hits:held) guard
        in
        let sum (_, r, b) (_, _, out) =
          match out () with _, r', b' -> (held (), r + r', b + b')
        in
        let body () = Array.fold_left sum (held (), 0, 0) counted in
        register c ~time:(fun () -> all_ns () - c.ns.(0)) union_node body;
        (* the guarded Apply packs the body's rows into [size]-row batches *)
        register c ~time:all_ns apply_node (fun () ->
            match body () with _, rows, _ -> (c.ran, rows, c.packed));
        (c, Array.map (fun (b, _, _) -> b) counted, guard)
      in
      let run (c, branches, guard) gov frames key v push =
        c.ran <- c.ran + 1;
        let t = ref (Metrics.now_ns ()) in
        let passes =
          match guard with
          | None -> true
          | Some e ->
              let h = holds e gov frames v in
              t := lap c 0 !t;
              h
        in
        if passes then begin
          let pushed = ref 0 in
          let push =
            if Option.is_none guard then push
            else fun row -> incr pushed; push row
          in
          for i = 0 to Array.length branches - 1 do
            run_branch branches.(i) gov frames key v push;
            t := lap c (i + 1) !t
          done;
          c.packed <- c.packed + ((!pushed + size - 1) / size)
        end
      in
      let flush (c, _, _) =
        List.iter
          (fun (node, read, time) ->
            let invocations, rows, batches = read () in
            if invocations > 0 then
              Obs.record sink node ~invocations ~rows ~batches
                ~time_ns:(time ()))
          c.readers
      in
      fun gov frames groups ->
        (* one copy per domain (its id keys it), all recorded after the
           last group; with a trace hook, one per group, recorded after
           it *)
        let copies = Atomic.make [] and left = Atomic.make groups in
        let rec mine d =
          let l = Atomic.get copies in
          match List.assq d l with
          | c -> c
          | exception Not_found ->
              ignore (Atomic.compare_and_set copies l ((d, copy ()) :: l));
              mine d
        in
        let traced = Obs.traced sink in
        fun key v push ->
          let c = if traced then copy () else mine (Domain.self () :> int) in
          run c gov frames key v push;
          if traced then flush c
          else if Atomic.fetch_and_add left (-1) = 1 then
            List.iter (fun (_, c) -> flush c) (Atomic.get copies)

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
let rec plan ?(config = default_config) ?(outer : Schema.t list = []) ?cols
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
  | None -> finish None (compile ~config ~outer ?cols p)
  | Some sink ->
      Obs.enter sink ~op (fun node ->
          finish (Some (sink, node)) (compile ~config ~outer ?cols p))

(* [cols] is only ever passed for a [Join]: see the [Project] case *)
and compile ~config ~(outer : Schema.t list) ?cols (p : Plan.t) :
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
          (* batches are views of the table's own rows, which no
             operator writes into *)
          let rows, len =
            match env.Env.snapshot with
            | None -> Table.published t
            | Some snap -> Mvcc.visible_view snap t
          in
          Batch.of_view ~size { Batch.rows; pos = 0; len } )
  | Plan.Group_scan { var; _ } ->
      ( schema,
        fun env -> Batch.of_view ~size (Env.find_group env var) )
  | Plan.Select { pred; input } ->
      let c = plan ~config ~outer input in
      let test = Eval.compile_pred c.schema pred in
      (schema, fun env -> Batch.filter (test env.Env.frames) (c.brun env))
  | Plan.Project { items; input = Plan.Join _ as join }
    when List.for_all (function Expr.Col _, _ -> true | _ -> false) items ->
      (* bare columns of a join (repeats allowed): the join writes only
         these cells, and the projection passes its batches through *)
      let joined = Props.schema_of ~outer join in
      let cols =
        List.filter_map
          (function
            | Expr.Col r, _ ->
                Some (Schema.find ?qual:r.Expr.qual r.Expr.name joined)
            | _ -> None)
          items
      in
      (schema, (plan ~config ~outer ~cols:(Array.of_list cols) join).brun)
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
      (* a rename-only projection (item i is input column i) passes the
         input rows through: no operator writes into a row's cells *)
      let input_col i = function
        | Expr.Col r, _ -> Schema.find ?qual:r.qual r.name c.schema = i
        | _ -> false
      in
      if nitems = Schema.arity c.schema
         && List.for_all Fun.id (List.mapi input_col items)
      then (schema, c.brun)
      else (schema, fun env -> Batch.map (project env.Env.frames) (c.brun env))
  | Plan.Join { pred; left; right; _ } ->
      compile_join ~config ~outer ?cols pred left right
  | Plan.Alias { input; _ } -> (schema, (plan ~config ~outer input).brun)
  | Plan.Group_by { keys; aggs; input } ->
      (* the group-local loop over [Aggregate (Group_scan)]: fold each
         group's slice into one [key ++ aggregates] row *)
      let c = plan ~config ~outer input in
      let idxs = key_indexes c.schema keys in
      let fold =
        { (scan_branch None) with aggs = Some (compile_agg_args c.schema aggs) }
      in
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
              let gs =
                group_rows ?pool ?gov ~op:"groupby.partition" ~idxs rows
              in
              let ngroups = group_count gs in
              Option.iter (fun n -> Obs.add_partitions n ngroups) obs_node;
              let frames = env.Env.frames in
              (* the input was charged as it was materialized; the
                 fold charges nothing more *)
              run_groups ~size ?pool ?gov ~op:"groupby.exec"
                (Array.init ngroups Fun.id)
                (fun g push ->
                  run_branch fold None frames gs.keys.(g) (group_view gs g)
                    push)) )
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
      ( schema,
        fun env ->
          Batch.filter (first_seen (seen_set env.Env.governor)) (c.brun env) )
  | Plan.Order_by { keys; input } ->
      let orders, branches = order_inputs ~config ~outer input in
      (* a bare-column key is compared in place; any other key is
         evaluated once per row into a trailing column of a widened row,
         which the same comparator sorts and the output drops *)
      let arity = Schema.arity schema in
      let exprs =
        List.filter_map
          (function
            | Expr.Col _, _ -> None | e, _ -> Some (Eval.compile schema e))
          keys
      in
      let next = ref arity in
      let idx = function
        | Expr.Col r, _ -> Schema.find ?qual:r.Expr.qual r.Expr.name schema
        | _ -> incr next; !next - 1
      in
      let idxs = Array.of_list (List.map idx keys) in
      let desc = Array.of_list (List.map (fun (_, dir) -> dir = Plan.Desc) keys) in
      let cmp = compare_on idxs desc and diff = Order_merge.diff_on idxs desc in
      (* per branch, how many leading keys its order property covers *)
      let prefix order =
        let rec go k = function
          | i :: rest when k < Array.length idxs && idxs.(k) = i && not desc.(k)
            ->
              go (k + 1) rest
          | _ -> k
        in
        go 0 order
      in
      let prefixes = Array.of_list (List.map prefix orders) in
      ( schema,
        fun env ->
          Batch.deferred (fun () ->
              let gov = env.Env.governor in
              let account = Governor.batch_accountant gov ~op:"orderby.input" in
              let pool = Domain_pool.for_parallelism config.parallelism in
              let widen =
                match exprs with
                | [] -> Fun.id
                | _ ->
                    let frames = env.Env.frames in
                    Batch.map (fun row ->
                        Array.append row
                          (Array.of_list (List.map (fun ce -> ce frames row) exprs)))
              in
              (* sort a copy of rows, already charged as materialized *)
              let sort rows =
                Governor.charge gov ~op:"orderby.sort"
                  (Array.length rows * Governor.sort_partition_overhead_per_row);
                sort_rows ?pool cmp rows;
                Batch.of_array ~size rows
              in
              (* a branch with no covered key is materialized and sorted
                 whole; any other streams through its segments *)
              let sorted p bc =
                if p = 0 then sort (Batch.to_array ?account bc)
                else Order_merge.segments ~size ~p ~diff ~sort ?account bc
              in
              let merged =
                Order_merge.merge ~cmp
                  (Array.map2 (fun p bc -> sorted p (widen bc)) prefixes
                     (branches env))
              in
              match exprs with
              | [] -> merged
              | _ -> Batch.map (fun row -> Array.sub row 0 arity) merged) )
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
      let matches =
        if correlated ~schema:co.schema inner then
          fun env orow ->
          Batch.to_array (ci.brun (Env.push_frame co.schema orow env))
        else fun env ->
          let inner_rows =
            lazy
              (Batch.to_array
                 ?account:
                   (Governor.batch_accountant env.Env.governor
                      ~op:"apply.cache")
                 (ci.brun env))
          in
          fun _ -> Lazy.force inner_rows
      in
      ( schema,
        fun env ->
          Batch.deferred (fun () ->
              expand ~size ~emit:emit_concat (matches env) (co.brun env)) )
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
      let idxs = key_indexes co.schema gcols in
      let obs_node = obs_current config in
      (* a group-local PGQ runs as one loop per group; any other PGQ
         runs its cursor chain once per group, over the group's view *)
      let exec =
        match local_branches ~var pgq with
        | Some l -> `Loop (compile_local ~config ~outer pgq l)
        | None -> `Chain (plan ~config ~outer pgq)
      in
      let path_groups =
        Option.map
          (fun c -> match exec with `Loop _ -> c.loop | `Chain _ -> c.chain)
          config.groups
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
              let gs = partition ~config ?pool ?gov ~idxs rows in
              Option.iter
                (fun n -> Obs.add_partitions n (group_count gs))
                obs_node;
              Option.iter (fun c -> Metrics.add c (group_count gs)) path_groups;
              (* the Section 3.1 clustering guarantee: emit groups in key
                 order; sort partitioning already provides it, hash
                 partitioning orders the (small) array of group numbers *)
              let order = Array.init (group_count gs) Fun.id in
              if cluster && config.partition = Hash_partition then
                Array.stable_sort
                  (fun a b -> Tuple.compare gs.keys.(a) gs.keys.(b))
                  order;
              (* binding a group charges its members as materialized *)
              let group_account =
                Governor.batch_accountant gov ~op:"gapply.group"
              in
              let view g =
                let v = group_view gs g in
                Option.iter
                  (fun f -> f v.Batch.rows v.Batch.pos v.Batch.len)
                  group_account;
                v
              in
              let account =
                Governor.batch_accountant gov ~op:"gapply.exec"
              in
              let run_groups =
                run_groups ~size ?pool ?gov ~op:"gapply.exec" ?account order
              in
              match exec with
              | `Loop run ->
                  let run = run gov env.Env.frames (group_count gs) in
                  run_groups (fun g push -> run gs.keys.(g) (view g) push)
              | `Chain cp -> (
                  let run_group g =
                    Governor.check gov ~op:"gapply.exec";
                    let env' = Env.bind_view var (view g) env in
                    Batch.map (Tuple.concat gs.keys.(g)) (cp.brun env')
                  in
                  match pool with
                  | Some _ when Array.length order >= 2 ->
                      run_groups (fun g push ->
                          Batch.drain_iter push (run_group g))
                  | _ ->
                      (* streams: one group's batches at a time *)
                      Batch.concat
                        (Array.to_list
                           (Array.map (fun g () -> run_group g) order))))
      )

(* The branches of an ORDER BY's input, a UNION ALL's or the input
   itself, each with its order property; [open env] opens them.  A
   UNION ALL keeps its own node and guard: the branches' cursors are
   one invocation of it, metered and checked on every pull. *)
and order_inputs ~config ~outer input :
    int list list * (Env.t -> Batch.cursor array) =
  match input with
  | Plan.Union_all branches ->
      let op = Plan.op_name input in
      observed config input @@ fun node ->
      let cs = Array.of_list (List.map (plan ~config ~outer) branches) in
      let meter =
        match (config.observe, node) with
        | Some sink, Some n ->
            Obs.instrument_batches sink n ~len:(fun (b : Batch.t) -> b.len)
        | _ -> Fun.id
      in
      ( List.map (Props.order_of ~outer) branches,
        fun env ->
          Array.map
            (Governor.guard env.Env.governor ~op)
            (meter (Array.map (fun c -> c.brun env) cs)) )
  | _ ->
      let c = plan ~config ~outer input in
      ([ Props.order_of ~outer input ], fun env -> [| c.brun env |])

(* Partition phase of GApply.  Hash partitioning returns groups in
   reverse first-seen key order; sort partitioning returns them in key
   order, clustering the output (the property the constant-space tagger
   needs).  With a pool, hashing numbers the rows per domain and merges
   the numberings, and sorting becomes a parallel merge sort; both
   layouts are identical to the sequential result.

   Memory accounting: hashing pays a per-row structure overhead (plus a
   merge pass when parallel) through [group_rows]; sorting only pays
   the merge buffer and the group slices.  The governor's graceful
   degradation leans on exactly this asymmetry. *)
and partition ~config ?pool ?gov ~idxs (rows : Tuple.t array) : groups =
  match config.partition with
  | Hash_partition ->
      group_rows ?pool ?gov ~op:"gapply.partition(hash)" ~idxs rows
  | Sort_partition ->
      Governor.check gov ~op:"gapply.partition(sort)";
      Governor.charge gov ~op:"gapply.partition(sort)"
        (Array.length rows * Governor.sort_partition_overhead_per_row);
      (* sort the rows in place on the key columns, then start a group
         wherever adjacent keys differ; each key is projected once *)
      let cmp = compare_on idxs (Array.make (Array.length idxs) false) in
      sort_rows ?pool cmp rows;
      let n = Array.length rows in
      let starts = ref [ n ] and keys = ref [] in
      for i = n - 1 downto 0 do
        if i = 0 || cmp rows.(i - 1) rows.(i) <> 0 then begin
          starts := i :: !starts;
          keys := project_key idxs rows.(i) :: !keys
        end
      done;
      {
        members = rows;
        keys = Array.of_list !keys;
        starts = Array.of_list !starts;
      }

(* Joins: hash join on extracted equi-pairs when possible, nested loops
   otherwise.  NULL join keys never match (SQL semantics), so rows with a
   NULL key are dropped from both build and probe sides of the hash
   join.

   Every form consumes the left side batch-wise through [expand]; they
   differ only in the match source, which returns a left row's matches
   as an array.  Nested loops return the materialized right side; a hash
   probe returns its bucket; an index probe returns the rows of its
   bucket's visible prefix.  A single-component hash build and probe
   key a [Value.Tbl] by the value itself, with no per-row key tuple;
   every other key (a multi-component hash join, any index probe) fills
   one reused scratch key per row ([key_of]), which the build copies
   only for a new key.

   With [cols] (passed down by a bare-column Project right above) each
   match writes only the kept cells, and the compiled schema is the
   projected one; see [join_emit]. *)
and compile_join ~config ~outer ?cols pred left right :
    Schema.t * (Env.t -> Batch.cursor) =
  let cl = plan ~config ~outer left in
  let cr = plan ~config ~outer right in
  let joined = Schema.concat cl.schema cr.schema in
  let schema =
    match cols with
    | None -> joined
    | Some cols -> Schema.project (Array.to_list cols) joined
  in
  let size = config.batch_size in
  let { Join_analysis.equi; residual } =
    Join_analysis.split ~left:cl.schema ~right:cr.schema pred
  in
  let residual_test =
    match residual with
    | [] -> None
    | ps -> Some (Eval.compile_pred joined (Expr.conjoin ps))
  in
  let nl = Schema.arity cl.schema in
  let emit env =
    join_emit ~nl ~cols
      ~residual:(Option.map (fun test -> test env.Env.frames) residual_test)
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
            expand ~size ~emit:(emit env) (fun _ -> right_rows) (cl.brun env)) )
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
              (* the table's published rows, captured once per cursor
                 after the refresh, so they cover every offset of the
                 build; offsets at or beyond the snapshot horizon
                 belong to transactions committed after this session's
                 snapshot and are cut off (the captured build may be
                 fresher than the snapshot, never staler) *)
              let rows, published = Table.published base in
              let limit =
                match env.Env.snapshot with
                | None -> published
                | Some snap -> min published (Mvcc.visible_count snap base)
              in
              (* a bucket's offsets ascend, so its visible rows are
                 the prefix below [limit] *)
              let fetch (offs : int array) : Tuple.t array =
                let k = ref (Array.length offs) in
                while !k > 0 && offs.(!k - 1) >= limit do
                  decr k
                done;
                if !k = 0 then [||]
                else begin
                  let out = Array.make !k Tuple.empty in
                  for i = 0 to !k - 1 do
                    Array.unsafe_set out i rows.(offs.(i))
                  done;
                  out
                end
              in
              (* the probe key and its strictness in the index's column
                 order *)
              let by_col =
                List.combine cols
                  (List.combine left_keys (Array.to_list strict))
              in
              let lks, strict =
                List.split
                  (List.map
                     (fun c -> List.assoc c by_col)
                     (Index.columns index))
              in
              let probe_key = key_of env.Env.frames (Array.of_list lks)
              and strict = Array.of_list strict in
              Some
                (fun lrow ->
                  let key = probe_key lrow in
                  if key_rejected strict key then [||]
                  else fetch (Index.view_find iview key)))
    in
    (* build the hash table from the materialized right side in one
       pass, sized for it, probed for a left row's bucket array (see
       [hash_build]) *)
    let build_lookup env (rows : Tuple.t array) : Tuple.t -> Tuple.t array =
      let size = Array.length rows and drain f = Array.iter f rows in
      let frames = env.Env.frames in
      let build_account =
        Governor.accountant env.Env.governor ~op:"join.build"
      in
      match (left_keys, right_keys) with
      | [ lk ], [ rk ] ->
          (* single-component key: hash the value itself *)
          let strict0 = strict.(0) in
          let find =
            hash_build (module Value.Tbl) ~size ~keep:Fun.id (fun add ->
                drain (fun rrow ->
                    let v = rk frames rrow in
                    if not (strict0 && Value.is_null v) then begin
                      Option.iter (fun f -> f rrow) build_account;
                      add v rrow
                    end))
          in
          fun lrow ->
            let v = lk frames lrow in
            if strict0 && Value.is_null v then [||] else find v
      | _ ->
          let build_key = key_of frames (Array.of_list right_keys) in
          let probe_key = key_of frames (Array.of_list left_keys) in
          let find =
            hash_build (module Tuple.Tbl) ~size ~keep:Array.copy (fun add ->
                drain (fun rrow ->
                    let key = build_key rrow in
                    if not (key_rejected strict key) then begin
                      Option.iter (fun f -> f rrow) build_account;
                      add key rrow
                    end))
          in
          fun lrow ->
            let key = probe_key lrow in
            if key_rejected strict key then [||] else find key
    in
    ( schema,
      fun env ->
        match index_probe env with
        | Some probe ->
            Batch.deferred (fun () ->
                expand ~size ~emit:(emit env) probe (cl.brun env))
        | None ->
            Batch.deferred (fun () ->
                let lookup =
                  build_lookup env (Batch.to_array (cr.brun env))
                in
                expand ~size ~emit:(emit env) lookup (cl.brun env)) )

(* [cols] stays internal: only a Project passes it to its join *)
let plan ?config ?outer p = plan ?config ?outer p
