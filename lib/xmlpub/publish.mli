(** Publishing plans: turn a view (plus optional derived aggregates and
    a group predicate) into executable relational plans under the two
    strategies the paper compares.

    Both plans produce rows under the same {!encoding} (parent-key
    columns, a node-id column, null-padded per-branch payload slots), so
    the same tagger consumes either stream and the tests can check the
    published documents are identical.

    The view's parent key ([Xml_view.parent_spec.p_key]) must identify a
    parent row: no two rows of the parent query share a key.  The GApply
    plan of a spec with a group predicate relies on it, since it joins
    the child query to the parent query and takes each group's parent
    row from its members. *)

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
type group_pred =
  | Agg_cmp of
      Xml_view.child_spec * Expr.agg_fn * string * Expr.binop * float
      (** keep parents whose child aggregate satisfies the comparison *)
  | Child_exists of Xml_view.child_spec * string * Expr.binop * float
      (** keep parents having some child row with column op constant *)

type spec = {
  view : Xml_view.t;
  derived : derived_agg list;
  pred : group_pred option;
}

val of_view : Xml_view.t -> spec

(** {1 Row encoding} *)

type branch_desc = {
  b_id : int;
  b_tag : string option;  (** [None] for derived-value branches *)
  b_fields : (string * int) list;  (** (element tag, output column) *)
}

type encoding = {
  e_key_count : int;
  e_node_col : int;
  e_root_tag : string;
  e_parent : branch_desc;
  e_branches : branch_desc list;
  e_arity : int;
}

val build_encoding : spec -> encoding

(** {1 The two strategies} *)

val outer_union_plan : Catalog.t -> spec -> Plan.t * encoding
(** The sorted outer union of paper Section 2: one UNION ALL branch per
    element type, ordered by the parent key; derived aggregates re-join
    and re-group the child query (the redundancy the paper criticises). *)

val gapply_plan : Catalog.t -> spec -> Plan.t * encoding
(** Child rows and every derived aggregate come from a single GApply
    pass per child query.  With a group predicate, the selecting child's
    GApply runs over the child query joined to the parent query, and its
    per-group query emits the parent row, the child rows and the derived
    aggregates only when the predicate holds on the group; there is no
    separate parent branch, and the child query runs once.  Any other
    child is semijoined with the qualifying parent keys. *)

(** {1 Order-aware publishing} *)

val presorted_runs : Catalog.t -> Plan.t -> int * int
(** [presorted_runs catalog plan] runs the input of [plan]'s final
    ORDER BY (a {!gapply_plan} or {!Deep_publish.gapply_plan}) unsorted
    and returns [(runs, bound)]: the maximal ascending runs of that
    stream under the ORDER BY's keys, and [1 +] the UNION ALL branches
    that contain a GApply.  Every GApply branch of a publishing plan
    reaches the sort as one run and the plain branches as one more, so
    [runs <= bound] (the sort then only merges runs).
    @raise Invalid_argument if [plan] is not an [Order_by]. *)
