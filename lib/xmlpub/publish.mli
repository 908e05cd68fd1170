(** The Figure-1/FLWR front end of XML publishing: a two-level view
    (plus optional derived aggregates and a group predicate) and its
    lowering onto an n-level {!Deep_view.t}, whose encoding, plans and
    tagger ({!Deep_publish}) serve every depth.

    The view's parent key ([Xml_view.parent_spec.p_key]) must identify a
    parent row: no two rows of the parent query share a key.  The GApply
    plan of a spec with a group predicate relies on it, since it joins
    the child query to the parent query and takes each group's parent
    row from its members, and the tagger rejects a repeated key. *)

type derived_agg = {
  d_child : int;          (** which child's rows it aggregates *)
  d_fn : Expr.agg_fn;
  d_col : string;         (** aggregated column of the child query *)
  d_tag : string;         (** element tag of the derived value *)
}

(** A group predicate names the child it filters on (the selecting
    child).  That child need not be among the view's published
    children: a query may select parents by a child it does not
    return. *)
type group_pred = {
  g_child : Xml_view.child_spec;
  g_guard : Deep_view.guard;
      (** keep parents whose linked child rows satisfy it *)
}

type spec = {
  view : Xml_view.t;
  derived : derived_agg list;
  pred : group_pred option;
}

val of_view : Xml_view.t -> spec

val lower : spec -> Deep_view.t
(** The parent becomes the top node, keyed by [p_key].  Each child
    becomes a leaf without keys whose key path is [c_link] and whose
    aggregates are the derived values over it; each of its rows is its
    own element, in the child query's order.  The group predicate
    becomes a selection on the top node.  Ids follow the preorder rule:
    with one child, the parent is 0, the child 1 and the derived values
    2 onwards in [derived] order. *)

(** {1 The two strategies} *)

val outer_union_plan : Catalog.t -> spec -> Plan.t * Deep_publish.encoding
(** {!Deep_publish.outer_union_plan} of the lowered view. *)

val gapply_plan : Catalog.t -> spec -> Plan.t * Deep_publish.encoding
(** {!Deep_publish.gapply_plan} of the lowered view. *)

(** {1 Order-aware publishing} *)

val presorted_runs : Catalog.t -> Plan.t -> int * int
(** [presorted_runs catalog plan] runs the input of [plan]'s final
    ORDER BY (a {!Deep_publish.gapply_plan}) unsorted and returns
    [(runs, bound)]: the maximal ascending runs of that stream under the
    ORDER BY's keys, and [1 +] the UNION ALL branches that contain a
    GApply.  Every GApply branch of a publishing plan reaches the sort
    as one run and the plain branches as one more, so [runs <= bound]
    (the sort then only merges runs).
    @raise Invalid_argument if [plan] is not an [Order_by]. *)
