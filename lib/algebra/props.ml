(* Derived plan properties: output schemas and output column names.

   [schema_of] recomputes the output schema of a (sub)plan.  The
   [outer] parameter carries the schemas of enclosing Apply outer inputs
   so that correlated expressions ([Expr.Outer]) can be typed. *)

let resolve_key schema (r : Expr.col_ref) : Schema.column =
  Schema.get schema (Schema.find ?qual:r.Expr.qual r.Expr.name schema)

let agg_schema ~outer input_schema aggs : Schema.column list =
  List.map
    (fun (a, name) ->
      Schema.column name (Infer.infer_agg ~outer_schemas:outer input_schema a))
    aggs

let rec schema_of ?(outer : Schema.t list = []) (plan : Plan.t) : Schema.t =
  match plan with
  | Plan.Table_scan { schema; _ } | Plan.Group_scan { schema; _ } -> schema
  | Plan.Select { input; _ }
  | Plan.Distinct input
  | Plan.Order_by { input; _ } ->
      schema_of ~outer input
  | Plan.Alias { alias; input } ->
      Schema.rename_source alias (schema_of ~outer input)
  | Plan.Project { items; input } ->
      let in_schema = schema_of ~outer input in
      Schema.of_list
        (List.map
           (fun (e, name) ->
             (* a pure pass-through item (bare column kept under its own
                name) keeps its qualifier, so enclosing operators can
                still resolve qualified references through projections *)
             let source =
               match e with
               | Expr.Col r when String.equal r.Expr.name name -> (
                   match Schema.find_all ?qual:r.Expr.qual name in_schema with
                   | [ i ] -> (Schema.get in_schema i).Schema.source
                   | _ -> None)
               | _ -> None
             in
             Schema.column ?source name
               (Infer.infer_with_schema ~outer_schemas:outer in_schema e))
           items)
  | Plan.Join { left; right; _ } ->
      Schema.concat (schema_of ~outer left) (schema_of ~outer right)
  | Plan.Group_by { keys; aggs; input } ->
      let in_schema = schema_of ~outer input in
      let key_cols = List.map (resolve_key in_schema) keys in
      Schema.of_list (key_cols @ agg_schema ~outer in_schema aggs)
  | Plan.Aggregate { aggs; input } ->
      let in_schema = schema_of ~outer input in
      Schema.of_list (agg_schema ~outer in_schema aggs)
  | Plan.Union_all branches -> (
      match branches with
      | [] -> Errors.plan_errorf "union all with no branches"
      | first :: rest ->
          let s0 = schema_of ~outer first in
          List.fold_left
            (fun acc branch ->
              let s = schema_of ~outer branch in
              if Schema.arity s <> Schema.arity acc then
                Errors.plan_errorf
                  "union all branches have arities %d and %d"
                  (Schema.arity acc) (Schema.arity s)
              else
                Schema.of_list
                  (List.map2
                     (fun (a : Schema.column) (b : Schema.column) ->
                       match Datatype.unify a.Schema.ctype b.Schema.ctype with
                       | Some t -> { a with Schema.ctype = t }
                       | None ->
                           Errors.plan_errorf
                             "union all column %s: incompatible types %s, %s"
                             a.Schema.cname
                             (Datatype.to_string a.Schema.ctype)
                             (Datatype.to_string b.Schema.ctype))
                     (Schema.to_list acc) (Schema.to_list s)))
            s0 rest)
  | Plan.Apply { outer = o; inner } ->
      let outer_schema = schema_of ~outer o in
      Schema.concat outer_schema
        (schema_of ~outer:(outer_schema :: outer) inner)
  | Plan.Exists _ -> Schema.empty
  | Plan.G_apply { gcols; outer = o; pgq; _ } ->
      let outer_schema = schema_of ~outer o in
      let key_cols = List.map (resolve_key outer_schema) gcols in
      Schema.of_list
        (key_cols @ Schema.to_list (schema_of ~outer pgq))

(* The position of column [r] in [schema], if it resolves. *)
let column_at schema (r : Expr.col_ref) =
  match Schema.find_all ?qual:r.Expr.qual r.Expr.name schema with
  | [ i ] -> Some i
  | _ -> None

(** The output columns, by position, that [plan]'s rows are known to
    ascend on, most significant first: lexicographically under
    [Value.compare_total], ties in any order.  An [Order_by] knows the
    bare-column keys it leads with in ascending order; a clustered
    [G_apply] its grouping columns, which lead its output in key order
    (Section 3.1).  [Select] and [Alias] keep the order, and a [Project]
    the leading part of it that it keeps as bare columns (renames
    included).  Every other operator knows none: [[]]. *)
let rec order_of ?(outer : Schema.t list = []) (plan : Plan.t) : int list =
  match plan with
  | Plan.Order_by { keys; input } ->
      let schema = schema_of ~outer input in
      let rec lead = function
        | (Expr.Col r, Plan.Asc) :: rest -> (
            match column_at schema r with Some i -> i :: lead rest | None -> [])
        | _ -> []
      in
      lead keys
  | Plan.G_apply { gcols; cluster = true; _ } ->
      List.init (List.length gcols) Fun.id
  | Plan.Select { input; _ } | Plan.Alias { input; _ } -> order_of ~outer input
  | Plan.Project { items; input } ->
      let schema = schema_of ~outer input in
      (* the output position of the first item that keeps input column
         [i] as a bare column *)
      let kept i =
        List.find_index
          (function
            | Expr.Col r, _ -> column_at schema r = Some i
            | _ -> false)
          items
      in
      let rec lead = function
        | i :: rest -> (
            match kept i with Some j -> j :: lead rest | None -> [])
        | [] -> []
      in
      lead (order_of ~outer input)
  | _ -> []

(** Output column names, in order. *)
let output_columns ?outer plan = Schema.names (schema_of ?outer plan)

(** The schema a [Group_scan] for the given GApply should carry: the
    schema of the GApply's outer input. *)
let group_var_schema ?(outer = []) (plan : Plan.t) =
  match plan with
  | Plan.G_apply { outer = o; _ } -> schema_of ~outer o
  | _ -> Errors.plan_errorf "group_var_schema: not a GApply node"

(** Rewrite every [Group_scan] for variable [var] in [pgq] to carry
    [schema].  Used by rules that change a GApply's outer schema (e.g.
    projection-before-GApply).  Does not descend into nested GApply
    bodies that rebind the same variable name. *)
let rec retarget_group_scans ~var ~schema (pgq : Plan.t) : Plan.t =
  match pgq with
  | Plan.Group_scan g when String.equal g.var var ->
      Plan.Group_scan { g with schema }
  | Plan.G_apply g when String.equal g.var var ->
      (* inner rebinding shadows [var]: only the outer side may refer to
         the enclosing variable *)
      Plan.G_apply
        { g with outer = retarget_group_scans ~var ~schema g.outer }
  | p ->
      Plan.with_children p
        (List.map (retarget_group_scans ~var ~schema) (Plan.children p))

(** Validate a plan: resolvable names, consistent arities.  Raises
    {!Errors.Plan_error} / {!Errors.Name_error} on failure, returns the
    output schema on success. *)
let validate ?outer plan = schema_of ?outer plan

let pp_plan_with_schema ppf plan =
  let rec go indent ~outer p =
    let schema =
      try Schema.to_string (schema_of ~outer p) with _ -> "(unresolved)"
    in
    Format.fprintf ppf "%s%s  : %s@\n"
      (String.make indent ' ')
      (Plan.op_name p) schema;
    match p with
    | Plan.Apply { outer = o; inner } ->
        go (indent + 2) ~outer o;
        go (indent + 2) ~outer:(schema_of ~outer o :: outer) inner
    | _ -> List.iter (go (indent + 2) ~outer) (Plan.children p)
  in
  go 0 ~outer:[] plan
