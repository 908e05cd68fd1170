(* Reference evaluator: a direct, naive implementation of the
   denotational semantics of Section 3/4 of the paper.

   This module deliberately shares no evaluation machinery with the
   physical compiler (it interprets expressions with [Eval.eval] instead
   of compiled closures, uses nested-loop joins, and evaluates GApply by
   the literal formula

     RE1 GA_C RE2 =
       union over c in distinct(project_C(RE1)) of ({c} x RE2(sigma_{C=c} RE1))

   ).  The test suite uses it as the oracle for the executor and for
   every optimizer rule. *)

let rec eval (env : Env.t) (p : Plan.t) : Relation.t =
  let outer = List.map fst env.Env.frames in
  let schema = Props.schema_of ~outer p in
  match p with
  | Plan.Table_scan { table; _ } ->
      let t = Catalog.find_table env.Env.catalog table in
      Relation.of_array schema (Relation.rows_array (Table.to_relation t))
  | Plan.Group_scan { var; _ } ->
      let g = Env.find_group env var in
      Relation.of_array schema (Array.sub g.Batch.rows g.Batch.pos g.Batch.len)
  | Plan.Select { pred; input } ->
      let rel = eval env input in
      Relation.filter_rows
        (fun row ->
          Truth.to_bool
            (Eval.eval_pred ~frames:env.Env.frames (Relation.schema rel) row
               pred))
        rel
  | Plan.Project { items; input } ->
      let rel = eval env input in
      let in_schema = Relation.schema rel in
      Relation.of_array schema
        (Array.map
           (fun row ->
             Tuple.of_list
               (List.map
                  (fun (e, _) ->
                    Eval.eval ~frames:env.Env.frames in_schema row e)
                  items))
           (Relation.rows_array rel))
  | Plan.Join { pred; left; right; _ } ->
      let lrel = eval env left and rrel = eval env right in
      let out = ref [] in
      Relation.iter
        (fun lrow ->
          Relation.iter
            (fun rrow ->
              let row = Tuple.concat lrow rrow in
              if
                Truth.to_bool
                  (Eval.eval_pred ~frames:env.Env.frames schema row pred)
              then out := row :: !out)
            rrel)
        lrel;
      Relation.of_array schema (Array.of_list (List.rev !out))
  | Plan.Group_by { keys; aggs; input } ->
      let rel = eval env input in
      let in_schema = Relation.schema rel in
      let key_of row =
        Tuple.of_list
          (List.map
             (fun (r : Expr.col_ref) ->
               Tuple.get row (Schema.find ?qual:r.Expr.qual r.Expr.name in_schema))
             keys)
      in
      let groups = naive_group key_of (Relation.rows rel) in
      Relation.of_array schema
        (Array.of_list
           (List.map
              (fun (key, members) ->
                Tuple.concat key
                  (naive_aggregate env in_schema aggs members))
              groups))
  | Plan.Aggregate { aggs; input } ->
      let rel = eval env input in
      Relation.of_array schema
        [| naive_aggregate env (Relation.schema rel) aggs (Relation.rows rel) |]
  | Plan.Distinct input -> Relation.distinct (eval env input)
  | Plan.Alias { input; _ } ->
      Relation.of_array schema (Relation.rows_array (eval env input))
  | Plan.Order_by { keys; input } ->
      let rel = eval env input in
      let in_schema = Relation.schema rel in
      Relation.sort_by
        (fun a b ->
          let rec go = function
            | [] -> 0
            | (e, dir) :: rest ->
                let va = Eval.eval ~frames:env.Env.frames in_schema a e in
                let vb = Eval.eval ~frames:env.Env.frames in_schema b e in
                let c = Value.compare_total va vb in
                let c = match dir with Plan.Asc -> c | Plan.Desc -> -c in
                if c <> 0 then c else go rest
          in
          go keys)
        rel
  | Plan.Union_all branches ->
      let rels = List.map (eval env) branches in
      List.fold_left
        (fun acc rel -> Relation.append acc rel)
        (Relation.empty schema)
        rels
  | Plan.Apply { outer = outer_plan; inner } ->
      let orel = eval env outer_plan in
      let oschema = Relation.schema orel in
      let out = ref [] in
      Relation.iter
        (fun orow ->
          let env' = Env.push_frame oschema orow env in
          let irel = eval env' inner in
          Relation.iter
            (fun irow -> out := Tuple.concat orow irow :: !out)
            irel)
        orel;
      Relation.of_array schema (Array.of_list (List.rev !out))
  | Plan.Exists { input; negated } ->
      let rel = eval env input in
      if Relation.is_empty rel <> negated then Relation.empty schema
      else Relation.of_array schema [| Tuple.empty |]
  | Plan.G_apply { gcols; var; outer = outer_plan; pgq; _ } ->
      let orel = eval env outer_plan in
      let oschema = Relation.schema orel in
      let idxs =
        List.map
          (fun (r : Expr.col_ref) ->
            Schema.find ?qual:r.Expr.qual r.Expr.name oschema)
          gcols
      in
      (* distinct(project_gcols(outer)), in first-occurrence order *)
      let keys =
        Relation.rows (Relation.distinct (Relation.project idxs orel))
      in
      let out = ref [] in
      List.iter
        (fun key ->
          let group =
            Relation.filter_rows
              (fun row -> Tuple.equal (Tuple.project idxs row) key)
              orel
          in
          let env' = Env.bind_group var group env in
          let result = eval env' pgq in
          Relation.iter
            (fun row -> out := Tuple.concat key row :: !out)
            result)
        keys;
      Relation.of_array schema (Array.of_list (List.rev !out))

(* Insertion-ordered grouping by naive key comparison. *)
and naive_group key_of rows =
  List.fold_left
    (fun acc row ->
      let key = key_of row in
      let rec insert = function
        | [] -> [ (key, [ row ]) ]
        | (k, members) :: rest when Tuple.equal k key ->
            (k, row :: members) :: rest
        | entry :: rest -> entry :: insert rest
      in
      insert acc)
    [] rows
  |> List.map (fun (k, members) -> (k, List.rev members))

and naive_aggregate env in_schema aggs rows : Tuple.t =
  let states =
    List.map (fun ((a : Expr.agg), _) -> (a, Agg_state.create a)) aggs
  in
  List.iter
    (fun row ->
      List.iter
        (fun ((a : Expr.agg), state) ->
          let v =
            match a.Expr.arg with
            | None -> Value.Null
            | Some e -> Eval.eval ~frames:env.Env.frames in_schema row e
          in
          Agg_state.add state v)
        states)
    rows;
  Tuple.of_list (List.map (fun (_, state) -> Agg_state.finish state) states)

(** Evaluate from a clean environment. *)
let run (catalog : Catalog.t) (p : Plan.t) : Relation.t =
  eval (Env.make catalog) p
