(* The Figure-1/FLWR front end of XML publishing: a two-level view (plus
   optional derived aggregates and a group predicate), lowered onto the
   n-level view tree of Deep_view, whose encoding, plans and tagger
   (Deep_publish) serve every depth:

   - the parent is the top node, keyed by [p_key];
   - each child is a leaf without keys under it, its [c_link] the key
     path, carrying the derived aggregates over its rows;
   - the group predicate is a selection on the top node (Section 4.2's
     object selection), evaluated inside the per-group query of the
     GApply strategy.

   [outer_union_plan] and [gapply_plan] are the two strategies the paper
   compares, on the lowered view. *)

type derived_agg = {
  d_child : int;          (* which child's rows it aggregates *)
  d_fn : Expr.agg_fn;
  d_col : string;         (* aggregated column of the child query *)
  d_tag : string;         (* element tag of the derived value *)
}

type group_pred = {
  g_child : Xml_view.child_spec;  (* the selecting child; need not be
                                     published *)
  g_guard : Deep_view.guard;      (* on its rows linked to a parent *)
}

type spec = {
  view : Xml_view.t;
  derived : derived_agg list;
  pred : group_pred option;
}

let of_view view = { view; derived = []; pred = None }

(* ---------- the lowering onto the n-level view ---------- *)

(* A child is a leaf without keys: each of its rows is its own element,
   so siblings keep the child query's row order, and its derived
   aggregates are that leaf's.  The preorder id rule then gives the
   parent id 0, a single child id 1 and its derived values 2.. in
   [derived] order. *)
let child_node (spec : spec) i (c : Xml_view.child_spec) : Deep_view.node =
  {
    Deep_view.n_tag = c.Xml_view.c_tag;
    n_query = c.Xml_view.c_query;
    n_path = c.Xml_view.c_link;
    n_own_keys = 0;
    n_fields = c.Xml_view.c_fields;
    n_aggregates =
      List.filter_map
        (fun d ->
          if d.d_child <> i then None
          else
            Some
              { Deep_view.a_fn = d.d_fn; a_col = d.d_col; a_tag = d.d_tag })
        spec.derived;
    n_children = [];
  }

let lower (spec : spec) : Deep_view.t =
  let v = spec.view in
  let p = v.Xml_view.parent in
  {
    Deep_view.root_tag = v.Xml_view.root_tag;
    top =
      {
        Deep_view.n_tag = p.Xml_view.p_tag;
        n_query = p.Xml_view.p_query;
        n_path = p.Xml_view.p_key;
        n_own_keys = List.length p.Xml_view.p_key;
        n_fields = p.Xml_view.p_fields;
        n_aggregates = [];
        n_children = List.mapi (child_node spec) v.Xml_view.children;
      };
    select =
      Option.map
        (fun { g_child = c; g_guard } ->
          {
            Deep_view.s_query = c.Xml_view.c_query;
            s_link = c.Xml_view.c_link;
            s_guard = g_guard;
          })
        spec.pred;
  }

let outer_union_plan catalog spec =
  Deep_publish.outer_union_plan catalog (lower spec)

let gapply_plan catalog spec = Deep_publish.gapply_plan catalog (lower spec)

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
