(** XML view trees of any depth (the XPeranto view trees of paper
    Figure 1 are n-level).

    A view is a tree of element nodes; each node's SQL query must output
    its full hierarchical key path (ancestor key columns first, its own
    last) — what the generalised sorted-outer-union encoding requires.
    A node may own no key columns if it is a leaf: each of its rows is
    then its own element, and siblings keep the query's row order.
    Derived aggregates over a node's rows (grouped by the parent path)
    attach to the parent element.  The two-level Figure-1 views of
    {!Publish} lower onto this tree. *)

type aggregate_spec = {
  a_fn : Expr.agg_fn;
  a_col : string;   (** aggregated column of this node's query *)
  a_tag : string;   (** output element tag, attached to the parent *)
}

type node = {
  n_tag : string;
  n_query : string;
  n_path : string list;
  n_own_keys : int;
      (** trailing columns of [n_path] owned by this node; 0 only on a
          leaf *)
  n_fields : (string * string) list;  (** (column, element tag) *)
  n_aggregates : aggregate_spec list;
  n_children : node list;
}

(** How a selection decides on a group: the selecting query's rows whose
    link equals one top element's key. *)
type guard =
  | Some_row of string * Expr.binop * float
      (** some row has column op constant *)
  | Agg_holds of Expr.agg_fn * string * Expr.binop * float
      (** the aggregate of the column satisfies op constant *)

(** Section 4.2's object selection on the top node: publish a top
    element, with everything below it, only when the guard holds on the
    rows of [s_query] linked to it.  The selecting query need not be one
    of the top node's children. *)
type selection = {
  s_query : string;
  s_link : string list;  (** columns equal to the top node's key path *)
  s_guard : guard;
}

type t = { root_tag : string; top : node; select : selection option }

val validate : t -> t
(** @raise Errors.Plan_error on key-path arity mismatches, a negative
    key count, a node without key columns that has children, or
    aggregates on the top node. *)

val customer_orders : t
(** Three levels over the TPC-H order side: customers, their orders,
    each order's lineitems — with an order count per customer and
    revenue / line-count totals per order. *)
