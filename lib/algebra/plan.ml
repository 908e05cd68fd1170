(* Logical plan algebra.

   The operator alphabet is exactly the one used by the paper (Section 3
   and 4): scan, select, project, join (inner), groupby, aggregate,
   distinct, orderby, union all, apply, exists — plus the paper's
   contribution, GApply.

   Plans are *name-based*: expressions refer to columns of the node's
   input by (optionally qualified) name, so optimizer rewrites never have
   to renumber positions.  The physical compiler resolves names to
   positions once, at the end.

   [Group_scan] is the leaf of a per-group query (PGQ): it reads the
   relation bound to the GApply's relation-valued variable.  Its schema is
   fixed at construction (it equals the schema of the enclosing GApply's
   outer input) and is updated by rules that narrow the outer input. *)

type sort_dir = Asc | Desc

(** Direction of a foreign-key join, from the paper's Definition 2: a
    join is an FK join when the join condition equates a foreign key of
    one side with a key of the other.  [Left_to_right] means the left
    input holds the foreign key (every left row matches exactly one right
    row) — the orientation required by the invariant-grouping rule. *)
type fk_direction = Left_to_right | Right_to_left

type t =
  | Table_scan of { table : string; alias : string; schema : Schema.t }
  | Group_scan of { var : string; schema : Schema.t }
  | Select of { pred : Expr.t; input : t }
  | Project of { items : (Expr.t * string) list; input : t }
  | Join of { pred : Expr.t; fk : fk_direction option; left : t; right : t }
  | Group_by of {
      keys : Expr.col_ref list;
      aggs : (Expr.agg * string) list;
      input : t;
    }
  | Aggregate of { aggs : (Expr.agg * string) list; input : t }
      (** scalar aggregation: exactly one output row, even on empty input *)
  | Distinct of t
  | Order_by of { keys : (Expr.t * sort_dir) list; input : t }
  | Union_all of t list
  | Alias of { alias : string; input : t }
      (** re-qualify the input's columns under a derived-table alias;
          identity on rows (used for FROM-subqueries) *)
  | Apply of { outer : t; inner : t }
      (** for each outer row r, evaluate [inner] with r bound as an outer
          frame; output r concatenated with each inner row *)
  | Exists of { input : t; negated : bool }
      (** one empty-schema row if [input] is non-empty (or empty, when
          [negated]); only meaningful as the inner child of [Apply] *)
  | G_apply of {
      gcols : Expr.col_ref list;
      var : string;
      outer : t;
      pgq : t;
      cluster : bool;
    }
      (** the paper's GApply(GCols, PGQ): partition [outer] on [gcols],
          run [pgq] per group with the group bound to [var], cross each
          result with the group key, union everything.  [cluster] asks
          the physical operator to emit groups in key order — the
          Section 3.1 guarantee that gapply-syntax results are clustered
          by the grouping columns, making a partition operator on top
          redundant (sort partitioning gives it for free; hash
          partitioning orders the group list). *)

(* ---------- constructors ---------- *)

let table_scan ~table ~alias schema =
  Table_scan { table; alias; schema = Schema.rename_source alias schema }

let group_scan ~var schema = Group_scan { var; schema }
let select pred input = Select { pred; input }
let project items input = Project { items; input }
let join ?fk pred left right = Join { pred; fk; left; right }
let group_by keys aggs input = Group_by { keys; aggs; input }
let aggregate aggs input = Aggregate { aggs; input }
let distinct input = Distinct input
let order_by keys input = Order_by { keys; input }

let union_all = function
  | [] -> invalid_arg "Plan.union_all: no branches"
  | [ p ] -> p
  | ps -> Union_all ps

let alias alias input = Alias { alias; input }
let apply outer inner = Apply { outer; inner }
let exists ?(negated = false) input = Exists { input; negated }
let g_apply ~gcols ~var ~outer ~pgq =
  G_apply { gcols; var; outer; pgq; cluster = false }

(** Like {!g_apply} with the Section 3.1 clustering guarantee: groups
    come out in key order.  The SQL binder uses it for gapply-syntax
    queries.  The publishing plans ([Publish.gapply_plan],
    [Deep_publish.gapply_plan]) rely on it too: its order property
    ([Props.order_of]) lets their final ORDER BY stream each GApply
    branch, checking each group's run and merging the branches. *)
let g_apply_clustered ~gcols ~var ~outer ~pgq =
  G_apply { gcols; var; outer; pgq; cluster = true }

(* ---------- traversals ---------- *)

let children = function
  | Table_scan _ | Group_scan _ -> []
  | Select { input; _ }
  | Project { input; _ }
  | Group_by { input; _ }
  | Aggregate { input; _ }
  | Distinct input
  | Order_by { input; _ }
  | Alias { input; _ }
  | Exists { input; _ } ->
      [ input ]
  | Join { left; right; _ } -> [ left; right ]
  | Apply { outer; inner } -> [ outer; inner ]
  | G_apply { outer; pgq; _ } -> [ outer; pgq ]
  | Union_all ps -> ps

let with_children plan new_children =
  match (plan, new_children) with
  | (Table_scan _ | Group_scan _), [] -> plan
  | Select s, [ input ] -> Select { s with input }
  | Project p, [ input ] -> Project { p with input }
  | Group_by g, [ input ] -> Group_by { g with input }
  | Aggregate a, [ input ] -> Aggregate { a with input }
  | Distinct _, [ input ] -> Distinct input
  | Order_by o, [ input ] -> Order_by { o with input }
  | Alias a, [ input ] -> Alias { a with input }
  | Exists e, [ input ] -> Exists { e with input }
  | Join j, [ left; right ] -> Join { j with left; right }
  | Apply _, [ outer; inner ] -> Apply { outer; inner }
  | G_apply g, [ outer; pgq ] -> G_apply { g with outer; pgq }
  | Union_all _, (_ :: _ as ps) -> Union_all ps
  | _ -> Errors.plan_errorf "Plan.with_children: arity mismatch"

(** Bottom-up rewriting: children first, then [f] on the rebuilt node. *)
let rec rewrite_bottom_up f plan =
  let plan' =
    with_children plan (List.map (rewrite_bottom_up f) (children plan))
  in
  f plan'

(** Pre-order fold over all nodes. *)
let rec fold f acc plan =
  List.fold_left (fold f) (f acc plan) (children plan)

let node_count plan = fold (fun n _ -> n + 1) 0 plan

(** Rewrite every expression and column reference embedded in the plan,
    bottom-up.  [f_expr] is applied to whole expressions (select/join
    predicates, projection items, aggregate arguments, order keys);
    [f_ref] to bare column-reference lists (group-by keys, GApply
    grouping columns). *)
let rewrite_exprs ~(f_expr : Expr.t -> Expr.t)
    ~(f_ref : Expr.col_ref -> Expr.col_ref) plan =
  let agg_map (a : Expr.agg) =
    { a with Expr.arg = Option.map f_expr a.Expr.arg }
  in
  rewrite_bottom_up
    (fun p ->
      match p with
      | Table_scan _ | Group_scan _ | Distinct _ | Alias _ | Exists _
      | Apply _ | Union_all _ ->
          p
      | Select s -> Select { s with pred = f_expr s.pred }
      | Project pr ->
          Project
            { pr with items = List.map (fun (e, n) -> (f_expr e, n)) pr.items }
      | Join j -> Join { j with pred = f_expr j.pred }
      | Group_by g ->
          Group_by
            {
              g with
              keys = List.map f_ref g.keys;
              aggs = List.map (fun (a, n) -> (agg_map a, n)) g.aggs;
            }
      | Aggregate a ->
          Aggregate
            { a with aggs = List.map (fun (x, n) -> (agg_map x, n)) a.aggs }
      | Order_by o ->
          Order_by
            { o with keys = List.map (fun (e, d) -> (f_expr e, d)) o.keys }
      | G_apply g -> G_apply { g with gcols = List.map f_ref g.gcols })
    plan

(** All [Expr.Outer] references appearing anywhere in the plan. *)
let outer_refs plan : Expr.col_ref list =
  let acc = ref [] in
  let note e = acc := Expr.outer_columns e @ !acc in
  ignore
    (rewrite_exprs
       ~f_expr:(fun e ->
         note e;
         e)
       ~f_ref:(fun r -> r)
       plan);
  List.rev !acc

let contains_table_scan plan =
  fold
    (fun acc p -> acc || match p with Table_scan _ -> true | _ -> false)
    false plan

let contains_gapply plan =
  fold (fun acc p -> acc || match p with G_apply _ -> true | _ -> false)
    false plan

(* Structural equality.  Plans contain only immutable structural data
   (no closures), so the polymorphic comparison is sound here. *)
let equal (a : t) (b : t) = Stdlib.compare a b = 0

(* ---------- operator names (for EXPLAIN and the optimizer log) ---------- *)

let op_name = function
  | Table_scan { table; alias; _ } ->
      if String.equal table alias then Printf.sprintf "scan(%s)" table
      else Printf.sprintf "scan(%s as %s)" table alias
  | Group_scan { var; _ } -> Printf.sprintf "group_scan($%s)" var
  | Select { pred; _ } -> Printf.sprintf "select[%s]" (Expr.to_string pred)
  | Project { items; _ } ->
      Printf.sprintf "project[%s]"
        (String.concat ", "
           (List.map
              (fun (e, n) ->
                let s = Expr.to_string e in
                if String.equal s n then s else s ^ " as " ^ n)
              items))
  | Join { pred; fk; _ } ->
      Printf.sprintf "join%s[%s]"
        (match fk with
        | None -> ""
        | Some Left_to_right -> "(fk->)"
        | Some Right_to_left -> "(<-fk)")
        (Expr.to_string pred)
  | Group_by { keys; aggs; _ } ->
      Printf.sprintf "groupby[%s; %s]"
        (String.concat ", " (List.map Expr.col_ref_to_string keys))
        (String.concat ", "
           (List.map
              (fun (a, n) -> Expr.agg_to_string a ^ " as " ^ n)
              aggs))
  | Aggregate { aggs; _ } ->
      Printf.sprintf "aggregate[%s]"
        (String.concat ", "
           (List.map
              (fun (a, n) -> Expr.agg_to_string a ^ " as " ^ n)
              aggs))
  | Distinct _ -> "distinct"
  | Alias { alias; _ } -> Printf.sprintf "alias(%s)" alias
  | Order_by { keys; _ } ->
      Printf.sprintf "orderby[%s]"
        (String.concat ", "
           (List.map
              (fun (e, d) ->
                Expr.to_string e
                ^ match d with Asc -> "" | Desc -> " desc")
              keys))
  | Union_all _ -> "union all"
  | Apply _ -> "apply"
  | Exists { negated; _ } -> if negated then "not exists" else "exists"
  | G_apply { gcols; var; _ } ->
      Printf.sprintf "gapply[%s : $%s]"
        (String.concat ", " (List.map Expr.col_ref_to_string gcols))
        var

let rec pp_tree ppf ~indent plan =
  Format.fprintf ppf "%s%s@\n" (String.make indent ' ') (op_name plan);
  List.iter (pp_tree ppf ~indent:(indent + 2)) (children plan)

let pp ppf plan = pp_tree ppf ~indent:0 plan
let to_string plan = Format.asprintf "%a" pp plan
