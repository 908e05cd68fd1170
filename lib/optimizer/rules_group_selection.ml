(* Group-selection rules (paper Section 4.2, Figures 5 and 6).

   These queries treat each group as a complex object and keep or drop
   the *whole* group based on a predicate:

   - existential predicate: the per-group query returns the whole group
     iff some tuple satisfies a condition S;
   - aggregate predicate: the whole group is kept iff an aggregate of the
     group satisfies a condition.

   The rewrite evaluates the predicate first — extracting only the
   qualifying group ids — and then reconstructs the qualifying groups by
   joining the ids back against the outer query T.  Both rules are
   cost-based: they win when the predicate is selective and lose when it
   is not (paper Table 1: "average" differs from "average over wins"). *)

open Rule_util

(* Redundant foreign-key-join elimination for the qualifying-keys phase:
   a join annotated as an FK join (every left row matches exactly one
   right row) can be dropped when the columns needed above all come from
   the left side — the join changes neither the multiset of left rows
   nor any needed column.  This is how the "extract the qualifying group
   ids" phase of Figure 5 avoids re-paying joins that only decorate the
   group (e.g. the supplier attributes). *)
let rec prune_fk_joins cat ~needed plan =
  match plan with
  | Plan.Join
      {
        fk = Some Plan.Left_to_right;
        left;
        right = Plan.Table_scan { table; _ } as right;
        pred;
      } -> (
      match (Rule_util.try_schema left, Rule_util.try_schema right) with
      | Some left_schema, Some right_schema ->
          let needed_on_left =
            List.for_all (fun n -> Schema.mem n left_schema) needed
          in
          (* every conjunct must be one left column = one right column,
             and the right columns must be exactly the right table's
             primary key — then the FK guarantees exactly one match per
             left row and the join is a no-op for the left multiset *)
          let conjuncts = Expr.conjuncts pred in
          let right_cols =
            List.filter_map
              (fun c ->
                match c with
                | Expr.Binary (Expr.Eq, Expr.Col a, Expr.Col b) -> (
                    let on_right (r : Expr.col_ref) =
                      Schema.find_all ?qual:r.Expr.qual r.Expr.name
                        right_schema
                      <> []
                    in
                    match (on_right a, on_right b) with
                    | true, false -> Some a.Expr.name
                    | false, true -> Some b.Expr.name
                    | _ -> None)
                | _ -> None)
              conjuncts
          in
          let pk =
            match Catalog.find_table_opt cat table with
            | Some t -> Table.primary_key t
            | None -> []
          in
          let set_eq a b =
            List.sort String.compare a = List.sort String.compare b
          in
          if
            needed_on_left
            && List.length right_cols = List.length conjuncts
            && pk <> []
            && set_eq right_cols pk
          then prune_fk_joins cat ~needed left
          else plan
      | _ -> plan)
  | Plan.Select { pred; input } ->
      let needed' = needed @ Expr.column_names pred in
      Plan.select pred (prune_fk_joins cat ~needed:needed' input)
  | p -> p

(* Project every column of [schema] (the key-side plan's output) to a
   fresh __gsel name, returning the projection items together with a
   lookup from original name to fresh name. *)
let rename_all schema =
  let cols = Schema.to_list schema in
  let items =
    List.mapi
      (fun i (c : Schema.column) ->
        ( Expr.Col (Expr.col ?qual:c.Schema.source c.Schema.cname),
          gsel_name i c.Schema.cname ))
      cols
  in
  let lookup name =
    let rec find i = function
      | [] -> None
      | (c : Schema.column) :: rest ->
          if String.equal c.Schema.cname name then Some (gsel_name i name)
          else find (i + 1) rest
    in
    find 0 cols
  in
  (items, lookup)

(* Join the renamed qualifying keys back with the outer query T on the
   grouping columns; returns the join and a resolver for key-side
   columns. *)
let build_join_back ~gcols ~keys_plan ~keys_schema ~outer_plan =
  let items, lookup = rename_all keys_schema in
  let renamed_keys = Plan.project items keys_plan in
  let pred_parts =
    List.map
      (fun (r : Expr.col_ref) ->
        match lookup r.Expr.name with
        | Some fresh ->
            (* null-safe equality: GApply groups NULL keys together, so
               the join-back must let NULL keys match *)
            Some
              (Expr.Binary
                 ( Expr.Nulleq,
                   Expr.column fresh,
                   Expr.Col (Expr.col ?qual:r.Expr.qual r.Expr.name) ))
        | None -> None)
      gcols
  in
  if List.exists Option.is_none pred_parts then None
  else
    let pred = Expr.conjoin (List.map Option.get pred_parts) in
    (* the (small) qualifying-key side goes right so the hash join builds
       on it and streams the big outer query past it *)
    Some (Plan.join pred outer_plan renamed_keys, lookup)

(* The grouping columns of the original GApply output, taken from the T
   side of the join-back (equal to the key side's, NULLs included): a
   pass-through keeps their qualifiers, so an enclosing ORDER BY on
   [t.c] still resolves. *)
let restore_gcols gcols =
  List.map (fun (r : Expr.col_ref) -> (Expr.Col r, r.Expr.name)) gcols

let outer_passthrough_items outer_schema =
  List.map
    (fun (c : Schema.column) ->
      ( Expr.Col (Expr.col ?qual:c.Schema.source c.Schema.cname),
        c.Schema.cname ))
    (Schema.to_list outer_schema)

(* ---------- existential group selection (Figures 5/6) ---------- *)

(* Pattern:  GApply(C, T) with
     PGQ = Apply(group, Exists(Select(S, group)))
   where S is a predicate over group columns only.

   Rewrite:  project[C, T.*](
               join[C] (distinct(project[C](select[S](T))), T))        *)
let group_selection_exists =
  make ~name:"group-selection-exists" ~cost_based:true
    ~description:
      "evaluate an existential group predicate first, then rebuild only \
       the qualifying groups"
    (fun cat plan ->
      match plan with
      | Plan.G_apply
          {
            gcols;
            var;
            outer;
            pgq =
              Plan.Apply
                {
                  outer = Plan.Group_scan g1;
                  inner =
                    Plan.Exists
                      {
                        negated = false;
                        input =
                          Plan.Select { pred = s; input = Plan.Group_scan g2 };
                      };
                };
            _;
          }
        when String.equal g1.var var && String.equal g2.var var -> (
          match try_schema outer with
          | None -> None
          | Some outer_schema ->
              let outer_names = Schema.names outer_schema in
              if not (no_duplicates outer_names) then None
              else if not (expr_within_names outer_names s) then None
              else
                let needed =
                  names_of_refs gcols @ Expr.column_names s
                in
                let keys_plan =
                  Plan.distinct
                    (Plan.project
                       (List.map
                          (fun (r : Expr.col_ref) ->
                            ( Expr.Col (Expr.col ?qual:r.Expr.qual r.Expr.name),
                              r.Expr.name ))
                          gcols)
                       (Plan.select s (prune_fk_joins cat ~needed outer)))
                in
                let keys_schema = Props.schema_of keys_plan in
                (match
                   build_join_back ~gcols ~keys_plan ~keys_schema
                     ~outer_plan:outer
                 with
                | None -> None
                | Some (joined, _) ->
                    let items =
                      restore_gcols gcols
                      @ outer_passthrough_items outer_schema
                    in
                    Some (Plan.project items joined)))
      | _ -> None)

(* ---------- aggregate group selection (Section 4.2, second rule) ----- *)

(* Pattern:  GApply(C, T) with
     PGQ = [project[cols]] (select[P](Apply(group, Aggregate(aggs, group))))
   where P references only the aggregate output columns.

   Rewrite:  the qualifying keys come from
     select[P](groupby[C; aggs](T))
   which is pipelinable and stores one accumulator per group instead of
   whole groups (the paper's memory argument), then join back with T.  *)
let group_selection_aggregate =
  make ~name:"group-selection-aggregate" ~cost_based:true
    ~description:
      "evaluate an aggregate group predicate via groupby + having, then \
       rebuild only the qualifying groups"
    (fun cat plan ->
      let decompose pgq =
        (* returns (projection items option, P, aggs) *)
        match pgq with
        | Plan.Select
            {
              pred = p;
              input =
                Plan.Apply
                  {
                    outer = Plan.Group_scan g1;
                    inner = Plan.Aggregate { aggs; input = Plan.Group_scan g2 };
                  };
            } ->
            Some (None, p, aggs, g1.var, g2.var)
        | Plan.Project
            {
              items;
              input =
                Plan.Select
                  {
                    pred = p;
                    input =
                      Plan.Apply
                        {
                          outer = Plan.Group_scan g1;
                          inner =
                            Plan.Aggregate
                              { aggs; input = Plan.Group_scan g2 };
                        };
                  };
            } ->
            Some (Some items, p, aggs, g1.var, g2.var)
        | _ -> None
      in
      match plan with
      | Plan.G_apply { gcols; var; outer; pgq; _ } -> (
          match decompose pgq with
          | Some (proj_items, p, aggs, v1, v2)
            when String.equal v1 var && String.equal v2 var -> (
              match try_schema outer with
              | None -> None
              | Some outer_schema ->
                  let outer_names = Schema.names outer_schema in
                  let agg_names = List.map snd aggs in
                  if not (no_duplicates (outer_names @ agg_names)) then None
                  else if not (expr_within_names agg_names p) then None
                  else if
                    (* projection items must be pass-through columns *)
                    not
                      (match proj_items with
                      | None -> true
                      | Some items ->
                          List.for_all
                            (fun (e, _) ->
                              match e with Expr.Col _ -> true | _ -> false)
                            items)
                  then None
                  else
                    let needed =
                      names_of_refs gcols
                      @ List.concat_map
                          (fun (a, _) -> names_of_refs (Expr.agg_columns a))
                          aggs
                    in
                    let keys_plan =
                      Plan.select p
                        (Plan.group_by gcols aggs
                           (prune_fk_joins cat ~needed outer))
                    in
                    let keys_schema = Props.schema_of keys_plan in
                    (match
                       build_join_back ~gcols ~keys_plan ~keys_schema
                         ~outer_plan:outer
                     with
                    | None -> None
                    | Some (joined, lookup) ->
                        (* reconstruct the PGQ's output columns: group
                           columns come from the T side, aggregate
                           columns from the renamed key side *)
                        let tail_ok = ref true in
                        let tail_items =
                          match proj_items with
                          | None -> outer_passthrough_items outer_schema
                          | Some items ->
                              List.map
                                (fun (e, name) ->
                                  match e with
                                  | Expr.Col r
                                    when List.mem r.Expr.name agg_names -> (
                                      match lookup r.Expr.name with
                                      | Some fresh ->
                                          (Expr.column fresh, name)
                                      | None ->
                                          tail_ok := false;
                                          (e, name))
                                  | Expr.Col _ -> (e, name)
                                  | _ ->
                                      tail_ok := false;
                                      (e, name))
                                items
                        in
                        let agg_tail =
                          match proj_items with
                          | Some _ -> []
                          | None ->
                              (* no projection: PGQ output ends with the
                                 aggregate columns from the Apply *)
                              List.map
                                (fun name ->
                                  ( Expr.column
                                      (Option.get (lookup name)),
                                    name ))
                                agg_names
                        in
                        if not !tail_ok then None
                        else
                          let items =
                            restore_gcols gcols @ tail_items @ agg_tail
                          in
                          Some (Plan.project items joined)))
          | _ -> None)
      | _ -> None)
