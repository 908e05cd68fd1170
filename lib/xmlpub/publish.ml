(* Publishing plans: turn a view (plus optional derived aggregates and a
   group predicate) into executable relational plans under the two
   strategies the paper compares:

   - [outer_union_plan]: the "sorted outer union" of Section 2 — one
     UNION ALL branch per element type, null-padded to a common schema,
     ordered by the parent key so a constant-space tagger can consume the
     stream.  Derived aggregates re-join/re-group the child query
     (the redundancy the paper criticises).

   - [gapply_plan]: the child branches and every derived aggregate are
     produced by a single GApply pass over the child query; the stream is
     then ordered the same way, and the same tagger applies.  A group
     predicate is evaluated inside the per-group query (Section 4.2's
     object selection), over the child query joined to its parents.

   Both plans produce rows under the same [encoding], so the tagger (and
   the tests) can check they publish identical documents. *)

type derived_agg = {
  d_child : int;          (* which child's rows it aggregates *)
  d_fn : Expr.agg_fn;
  d_col : string;         (* aggregated column of the child query *)
  d_tag : string;         (* element tag of the derived value *)
}

type group_pred =
  | Agg_cmp of
      Xml_view.child_spec * Expr.agg_fn * string * Expr.binop * float
      (* selecting child, aggregate over its column, comparison, constant *)
  | Child_exists of Xml_view.child_spec * string * Expr.binop * float
      (* keep parents having some child row with column op constant *)

(* The child a group predicate filters on; it need not be published. *)
let selecting_child = function
  | Agg_cmp (c, _, _, _, _) | Child_exists (c, _, _, _) -> c

type spec = {
  view : Xml_view.t;
  derived : derived_agg list;
  pred : group_pred option;
}

let of_view view = { view; derived = []; pred = None }

(* ---------- the common row encoding ---------- *)

type branch_desc = {
  b_id : int;
  b_tag : string option;  (* [None] for derived-value branches *)
  b_fields : (string * int) list;  (* (element tag, output column index) *)
}

type encoding = {
  e_key_count : int;
  e_node_col : int;
  e_root_tag : string;
  e_parent : branch_desc;        (* node id 0 *)
  e_branches : branch_desc list; (* children then derived, ids 1.. *)
  e_arity : int;
}

let build_encoding (spec : spec) : encoding =
  let v = spec.view in
  let k = List.length v.Xml_view.parent.Xml_view.p_key in
  let node_col = k in
  let next = ref (k + 1) in
  let alloc fields =
    List.map
      (fun (_, tag) ->
        let i = !next in
        incr next;
        (tag, i))
      fields
  in
  let parent =
    {
      b_id = 0;
      b_tag = Some v.Xml_view.parent.Xml_view.p_tag;
      b_fields = alloc v.Xml_view.parent.Xml_view.p_fields;
    }
  in
  let children =
    List.mapi
      (fun i (c : Xml_view.child_spec) ->
        { b_id = i + 1; b_tag = Some c.Xml_view.c_tag;
          b_fields = alloc c.Xml_view.c_fields })
      v.Xml_view.children
  in
  let nchildren = List.length children in
  let derived =
    List.mapi
      (fun j (d : derived_agg) ->
        {
          b_id = nchildren + 1 + j;
          b_tag = None;
          b_fields = alloc [ (d.d_col, d.d_tag) ];
        })
      spec.derived
  in
  {
    e_key_count = k;
    e_node_col = node_col;
    e_root_tag = v.Xml_view.root_tag;
    e_parent = parent;
    e_branches = children @ derived;
    e_arity = !next;
  }

(* ---------- plan-building helpers ---------- *)

let bind catalog src = Sql_binder.bind_query catalog (Sql_parser.parse_query_string src)

let key_names k = List.init k (fun i -> Printf.sprintf "xk%d" i)

(* A null-padded branch projection: key values, the node id, and this
   branch's payload in its allotted slots. *)
let branch_projection ~(enc : encoding) ~key_exprs ~(branch : branch_desc)
    ~(payload : Expr.t list) plan =
  let items = Array.make enc.e_arity (Expr.null, "pad") in
  List.iteri
    (fun i e -> items.(i) <- (e, List.nth (key_names enc.e_key_count) i))
    key_exprs;
  items.(enc.e_node_col) <- (Expr.int branch.b_id, "xnode");
  List.iteri
    (fun fi (_, col_idx) ->
      items.(col_idx) <- (List.nth payload fi, Printf.sprintf "xp%d" col_idx))
    branch.b_fields;
  Array.iteri
    (fun i (e, name) ->
      if String.equal name "pad" then
        items.(i) <- (e, Printf.sprintf "xp%d" i))
    items;
  Plan.project (Array.to_list items) plan

let field_exprs fields = List.map (fun (col, _) -> Expr.column col) fields

let cmp_expr col op v = Expr.Binary (op, Expr.column col, Expr.float v)

(* Qualifying-key plan for a group predicate, producing columns named
   qk0..qk{k-1}. *)
let qualifying_keys catalog (spec : spec) : Plan.t option =
  match spec.pred with
  | None -> None
  | Some pred ->
      let c = selecting_child pred in
      let plan =
        match pred with
        | Child_exists (_, col, op, value) ->
            Plan.distinct
              (Plan.project
                 (List.mapi
                    (fun j link -> (Expr.column link, Printf.sprintf "qk%d" j))
                    c.Xml_view.c_link)
                 (Plan.select (cmp_expr col op value)
                    (bind catalog c.Xml_view.c_query)))
        | Agg_cmp (_, fn, col, op, value) ->
            let keys =
              List.map (fun link -> Expr.col link) c.Xml_view.c_link
            in
            let agg = Expr.agg fn (Some (Expr.column col)) in
            let grouped =
              Plan.group_by keys [ (agg, "qagg") ]
                (bind catalog c.Xml_view.c_query)
            in
            Plan.project
              (List.mapi
                 (fun j link -> (Expr.column link, Printf.sprintf "qk%d" j))
                 c.Xml_view.c_link)
              (Plan.select
                 (Expr.Binary (op, Expr.column "qagg", Expr.float value))
                 grouped)
      in
      Some plan

(* Semi-join [plan] (whose key columns are [on_cols]) with the
   qualifying keys. *)
let semijoin ~keys_plan ~on_cols plan =
  let pred =
    Expr.conjoin
      (List.mapi
         (fun j col ->
           Expr.( ==^ )
             (Expr.column (Printf.sprintf "qk%d" j))
             (Expr.column col))
         on_cols)
  in
  let joined = Plan.join pred keys_plan plan in
  (* drop the qk columns again *)
  let schema = Props.schema_of plan in
  Plan.project
    (List.map
       (fun (c : Schema.column) ->
         (Expr.Col (Expr.col ?qual:c.Schema.source c.Schema.cname),
          c.Schema.cname))
       (Schema.to_list schema))
    joined

let maybe_semijoin ~keys_plan ~on_cols plan =
  match keys_plan with
  | None -> plan
  | Some keys_plan -> semijoin ~keys_plan ~on_cols plan

let order_and_union ~(enc : encoding) branches =
  let keys =
    List.init enc.e_key_count (fun i ->
        (Expr.column (Printf.sprintf "xk%d" i), Plan.Asc))
  in
  Plan.order_by
    (keys @ [ (Expr.column "xnode", Plan.Asc) ])
    (Plan.union_all branches)

(* The parent elements' branch, from [plan] (the parent query). *)
let parent_branch ~(enc : encoding) (parent : Xml_view.parent_spec) plan =
  branch_projection ~enc
    ~key_exprs:(List.map Expr.column parent.Xml_view.p_key)
    ~branch:enc.e_parent
    ~payload:(field_exprs parent.Xml_view.p_fields)
    plan

(* ---------- strategy 1: sorted outer union ---------- *)

let outer_union_plan catalog (spec : spec) : Plan.t * encoding =
  let enc = build_encoding spec in
  let v = spec.view in
  let keys_plan = qualifying_keys catalog spec in
  let parent_branch =
    parent_branch ~enc v.Xml_view.parent
      (maybe_semijoin ~keys_plan ~on_cols:v.Xml_view.parent.Xml_view.p_key
         (bind catalog v.Xml_view.parent.Xml_view.p_query))
  in
  let child_branches =
    List.mapi
      (fun i (c : Xml_view.child_spec) ->
        let plan =
          maybe_semijoin ~keys_plan ~on_cols:c.Xml_view.c_link
            (bind catalog c.Xml_view.c_query)
        in
        branch_projection ~enc
          ~key_exprs:(List.map Expr.column c.Xml_view.c_link)
          ~branch:(List.nth enc.e_branches i)
          ~payload:(field_exprs c.Xml_view.c_fields)
          plan)
      v.Xml_view.children
  in
  let nchildren = List.length v.Xml_view.children in
  (* derived aggregates: the outer-union strategy re-evaluates the child
     query and groups it — the redundant work of Section 2 *)
  let derived_branches =
    List.mapi
      (fun j (d : derived_agg) ->
        let c = List.nth v.Xml_view.children d.d_child in
        let plan =
          maybe_semijoin ~keys_plan ~on_cols:c.Xml_view.c_link
            (bind catalog c.Xml_view.c_query)
        in
        let keys = List.map (fun l -> Expr.col l) c.Xml_view.c_link in
        let grouped =
          Plan.group_by keys
            [ (Expr.agg d.d_fn (Some (Expr.column d.d_col)), "dagg") ]
            plan
        in
        branch_projection ~enc
          ~key_exprs:(List.map Expr.column c.Xml_view.c_link)
          ~branch:(List.nth enc.e_branches (nchildren + j))
          ~payload:[ Expr.column "dagg" ]
          grouped)
      spec.derived
  in
  ( order_and_union ~enc
      ((parent_branch :: child_branches) @ derived_branches),
    enc )

(* ---------- strategy 2: one GApply pass per child ---------- *)

(* Projection items putting a PGQ row into [branch]'s slots of the
   encoding: every column except the key columns, which GApply
   prepends. *)
let pgq_items ~(enc : encoding) (branch : branch_desc) payload =
  let k = enc.e_key_count in
  let items =
    Array.init (enc.e_arity - k) (fun j ->
        (Expr.null, Printf.sprintf "xp%d" (j + k)))
  in
  items.(enc.e_node_col - k) <- (Expr.int branch.b_id, "xnode");
  List.iteri
    (fun fi (_, col_idx) ->
      items.(col_idx - k) <-
        (List.nth payload fi, Printf.sprintf "xp%d" col_idx))
    branch.b_fields;
  Array.to_list items

(* Child [i]'s element rows and its derived aggregates, each computed
   from the group that [g ()] scans. *)
let child_pgq_branches ~(enc : encoding) (spec : spec) i
    (c : Xml_view.child_spec) g =
  let nchildren = List.length spec.view.Xml_view.children in
  let rows =
    Plan.project
      (pgq_items ~enc (List.nth enc.e_branches i)
         (field_exprs c.Xml_view.c_fields))
      (g ())
  in
  let derived =
    List.concat
      (List.mapi
         (fun j (d : derived_agg) ->
           if d.d_child <> i then []
           else
             [
               Plan.project
                 (pgq_items ~enc
                    (List.nth enc.e_branches (nchildren + j))
                    [ Expr.column "dagg" ])
                 (Plan.aggregate
                    [ (Expr.agg d.d_fn (Some (Expr.column d.d_col)), "dagg") ]
                    (g ()));
             ])
         spec.derived)
  in
  rows :: derived

(* GApply [pgq] over [outer] grouped on [gcols], with the key prefix
   renamed to the common xk names (a rename-only projection, which
   passes rows through).  The GApply emits its groups in key order, and
   each group's union emits its node ids in ascending order, so the
   branch reaches the final ORDER BY as one presorted run. *)
let keyed_gapply ~(enc : encoding) ~gcols ~var ~outer pgq =
  let ga = Plan.g_apply_clustered ~gcols ~var ~outer ~pgq in
  Plan.project
    (List.mapi
       (fun idx (col : Schema.column) ->
         ( Expr.Col (Expr.col ?qual:col.Schema.source col.Schema.cname),
           if idx < enc.e_key_count then Printf.sprintf "xk%d" idx
           else col.Schema.cname ))
       (Schema.to_list (Props.schema_of ga)))
    ga

(* The GApply of the child a group predicate names.  Its outer input is
   the child query joined to the parent query, so every group carries
   its parent's row, and the PGQ keeps or drops the group as a whole:

     Apply (Exists guard, Union_all [parent row; child rows; aggs])

   The guard is [Select (pred, group)] for an existential predicate and
   [Select (agg op c, Aggregate (agg, group))] for an aggregate one.
   The child query runs once, instead of under a qualifying-keys plan
   that the parent and child branches each semijoin with. *)
let selecting_gapply catalog ~(enc : encoding) (spec : spec) ~sel pred =
  let v = spec.view in
  let parent = v.Xml_view.parent in
  let c = selecting_child pred in
  let parent_plan = bind catalog parent.Xml_view.p_query in
  let parent_schema = Props.schema_of parent_plan in
  (* fresh names for the parent's columns, so none collides with a
     child column *)
  let fresh i = Printf.sprintf "__xparent%d" i in
  let fresh_of name = fresh (Schema.find name parent_schema) in
  let renamed =
    List.mapi
      (fun i (col : Schema.column) ->
        ( Expr.Col (Expr.col ?qual:col.Schema.source col.Schema.cname),
          fresh i ))
      (Schema.to_list parent_schema)
  in
  let on =
    Expr.conjoin
      (List.map2
         (fun link key ->
           Expr.( ==^ ) (Expr.column link) (Expr.column (fresh_of key)))
         c.Xml_view.c_link parent.Xml_view.p_key)
  in
  (* the child query probes a hash table built on the parent rows; a
     probe row's matches come out in build order and, the key being
     unique, there is one per child row, so each group's members keep
     the child query's row order: the order of a parent's children in
     the published document *)
  let outer =
    Plan.join on
      (bind catalog c.Xml_view.c_query)
      (Plan.project renamed parent_plan)
  in
  let var = "xsel" in
  let g () = Plan.group_scan ~var (Props.schema_of outer) in
  let guard =
    match pred with
    | Child_exists (_, col, op, value) ->
        Plan.select (cmp_expr col op value) (g ())
    | Agg_cmp (_, fn, col, op, value) ->
        Plan.select (cmp_expr "qagg" op value)
          (Plan.aggregate [ (Expr.agg fn (Some (Expr.column col)), "qagg") ]
             (g ()))
  in
  (* every member carries the same parent row (the key identifies it):
     Distinct over the parent's columns leaves exactly that row *)
  let parent_row =
    Plan.project
      (pgq_items ~enc enc.e_parent
         (List.map
            (fun (col, _) -> Expr.column (fresh_of col))
            parent.Xml_view.p_fields))
      (Plan.distinct
         (Plan.project
            (List.map (fun (_, name) -> (Expr.column name, name)) renamed)
            (g ())))
  in
  let child_rows =
    match sel with
    | Some i -> child_pgq_branches ~enc spec i c g
    | None -> []
  in
  keyed_gapply ~enc
    ~gcols:
      (List.map (fun key -> Expr.col (fresh_of key)) parent.Xml_view.p_key)
    ~var ~outer
    (Plan.apply (Plan.exists guard)
       (Plan.union_all (parent_row :: child_rows)))

let gapply_plan catalog (spec : spec) : Plan.t * encoding =
  let enc = build_encoding spec in
  let v = spec.view in
  let child_gapply ~restrict i (c : Xml_view.child_spec) =
    let outer = restrict c (bind catalog c.Xml_view.c_query) in
    let var = Printf.sprintf "xg%d" i in
    let g () = Plan.group_scan ~var (Props.schema_of outer) in
    keyed_gapply ~enc
      ~gcols:(List.map (fun l -> Expr.col l) c.Xml_view.c_link)
      ~var ~outer
      (Plan.union_all (child_pgq_branches ~enc spec i c g))
  in
  let branches =
    match spec.pred with
    | None ->
        parent_branch ~enc v.Xml_view.parent
          (bind catalog v.Xml_view.parent.Xml_view.p_query)
        :: List.mapi
             (child_gapply ~restrict:(fun _ plan -> plan))
             v.Xml_view.children
    | Some pred ->
        (* the selecting child's index, if it is published *)
        let sel =
          List.find_index (( = ) (selecting_child pred)) v.Xml_view.children
        in
        (* the other children keep only the qualifying parents' rows *)
        let keys_plan = lazy (qualifying_keys catalog spec) in
        let restrict (c : Xml_view.child_spec) plan =
          maybe_semijoin ~keys_plan:(Lazy.force keys_plan)
            ~on_cols:c.Xml_view.c_link plan
        in
        selecting_gapply catalog ~enc spec ~sel pred
        :: List.concat
             (List.mapi
                (fun i c ->
                  if sel = Some i then [] else [ child_gapply ~restrict i c ])
                v.Xml_view.children)
  in
  (order_and_union ~enc branches, enc)

(* ---------- presorted input of the final ORDER BY ---------- *)

let presorted_runs catalog (plan : Plan.t) =
  match plan with
  | Plan.Order_by { keys; input } ->
      let c = Compile.plan input in
      let env = Env.make catalog in
      let keys =
        List.map (fun (e, dir) -> (Eval.compile c.Compile.schema e, dir)) keys
      in
      let cmp a b =
        List.fold_left
          (fun acc (key, dir) ->
            if acc <> 0 then acc
            else
              let x =
                Value.compare_total (key env.Env.frames a)
                  (key env.Env.frames b)
              in
              if dir = Plan.Desc then -x else x)
          0 keys
      in
      let runs = ref 0 and prev = ref None in
      Cursor.iter
        (fun row ->
          (match !prev with Some p when cmp p row <= 0 -> () | _ -> incr runs);
          prev := Some row)
        (c.Compile.run env);
      let branches =
        match input with Plan.Union_all bs -> bs | p -> [ p ]
      in
      (!runs, 1 + List.length (List.filter Plan.contains_gapply branches))
  | _ -> invalid_arg "Publish.presorted_runs: no final ORDER BY"
