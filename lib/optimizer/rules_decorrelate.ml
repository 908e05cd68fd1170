(* Decorrelation of scalar-aggregate subqueries (the "orthogonal
   optimization of subqueries and aggregation" of Galindo-Legaria &
   Joshi [12], which the paper cites as the home of GApply).

   Pattern (exactly what the binder produces for the paper's Section 2
   correlated SQL, e.g. Q2's per-row average):

     select[P](
       apply(R,
             aggregate[agg as a](
               select[corr-eqs AND rest](T))))

   where T is uncorrelated, [corr-eqs] are equality conjuncts between an
   outer column of R and a column of T, and P is null-rejecting on [a]
   (it compares [a] with something, so rows whose aggregate is NULL are
   dropped either way).

   Rewrite:

     project[R.*, a](
       select[P](
         join[R.o = T.c, ...](R,
                              groupby[c...; agg as a](select[rest](T)))))

   The null-rejection condition is what makes the inner join sound: an
   outer row with an empty group would have received a NULL aggregate
   from Apply and been rejected by P; the join simply drops it earlier.
   COUNT is excluded: over an empty group it is 0, not NULL, so P may
   keep the row the join would drop (the "COUNT bug").
   With this rule the engine executes the paper's verbatim correlated
   formulations with the same asymptotics as the hand-decorrelated
   baselines. *)

open Rule_util

let split_correlation ~outer_schema ~t_schema pred =
  let corr = ref [] and rest = ref [] and ok = ref true in
  List.iter
    (fun conjunct ->
      match conjunct with
      | Expr.Binary (Expr.Eq, Expr.Outer o, Expr.Col c)
      | Expr.Binary (Expr.Eq, Expr.Col c, Expr.Outer o)
        when Schema.find_all ?qual:o.Expr.qual o.Expr.name outer_schema <> []
             && Schema.find_all ?qual:c.Expr.qual c.Expr.name t_schema <> []
        ->
          corr := (o, c) :: !corr
      | e when Expr.references_outer e -> ok := false
      | e -> rest := e :: !rest)
    (Expr.conjuncts pred);
  if !ok then Some (List.rev !corr, List.rev !rest) else None

(* P must compare the aggregate output column with something, so NULL
   aggregates are rejected (comparison with NULL is unknown). *)
let null_rejecting_on ~column pred =
  List.exists
    (fun conjunct ->
      match conjunct with
      | Expr.Binary
          ((Expr.Eq | Expr.Neq | Expr.Lt | Expr.Lte | Expr.Gt | Expr.Gte),
           a, b) ->
          let mentions e =
            List.exists
              (fun (r : Expr.col_ref) -> String.equal r.Expr.name column)
              (Expr.columns e)
          in
          mentions a || mentions b
      | _ -> false)
    (Expr.conjuncts pred)

let decorrelate_scalar_agg =
  make ~name:"decorrelate-scalar-agg"
    ~description:
      "turn a correlated scalar-aggregate subquery into a groupby + join \
       (Galindo-Legaria & Joshi)"
    (fun _cat plan ->
      match plan with
      | Plan.Select
          {
            pred;
            input =
              Plan.Apply
                {
                  outer = r;
                  inner =
                    Plan.Aggregate
                      {
                        aggs = [ (agg, agg_name) ];
                        input = Plan.Select { pred = q; input = t };
                      };
                };
          }
        when Plan.outer_refs t = []
             && (match agg.Expr.fn with
                | Expr.Count | Expr.Count_star -> false
                | _ -> true)
             && (match agg.Expr.arg with
                | None -> true
                | Some e -> not (Expr.references_outer e))
             && null_rejecting_on ~column:agg_name pred -> (
          match (try_schema r, try_schema t) with
          | Some r_schema, Some t_schema -> (
              match
                split_correlation ~outer_schema:r_schema ~t_schema q
              with
              | None | Some ([], _) -> None
              | Some (corr, rest) ->
                  (* all referenced (source, name) pairs must stay
                     unambiguous after the join *)
                  let keys =
                    List.map
                      (fun (_, (c : Expr.col_ref)) ->
                        Schema.get t_schema
                          (Schema.find ?qual:c.Expr.qual c.Expr.name t_schema))
                      corr
                  in
                  let qualified (c : Schema.column) =
                    match c.Schema.source with
                    | None -> c.Schema.cname
                    | Some s -> s ^ "." ^ c.Schema.cname
                  in
                  let r_quals =
                    List.map qualified (Schema.to_list r_schema)
                  in
                  let key_quals = List.map qualified keys in
                  if
                    (not (no_duplicates (r_quals @ key_quals @ [ agg_name ])))
                    || List.mem agg_name (Schema.names r_schema)
                  then None
                  else
                    let filtered_t =
                      match rest with
                      | [] -> t
                      | ps -> Plan.select (Expr.conjoin ps) t
                    in
                    let grouped =
                      Plan.group_by
                        (List.map (fun (_, c) -> c) corr)
                        [ (agg, agg_name) ]
                        filtered_t
                    in
                    let join_pred =
                      Expr.conjoin
                        (List.map
                           (fun ((o : Expr.col_ref), (c : Expr.col_ref)) ->
                             Expr.( ==^ ) (Expr.Col o) (Expr.Col c))
                           corr)
                    in
                    let joined = Plan.join join_pred r grouped in
                    let filtered = Plan.select pred joined in
                    let items =
                      List.map
                        (fun (c : Schema.column) ->
                          ( Expr.Col
                              (Expr.col ?qual:c.Schema.source c.Schema.cname),
                            c.Schema.cname ))
                        (Schema.to_list r_schema)
                      @ [ (Expr.column agg_name, agg_name) ]
                    in
                    Some (Plan.project items filtered))
          | _ -> None)
      | _ -> None)
