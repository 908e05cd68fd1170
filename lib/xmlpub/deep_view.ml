(* XML view trees of any depth.

   The paper's XPeranto view trees (Figure 1) are n-level, and real
   publishing schemas nest deeper than its supplier/part example
   (customer -> orders -> lineitems); the two-level views of Xml_view
   lower onto this tree (Publish).  A view is a tree of element nodes;
   each node's SQL query must output its *full hierarchical key path* —
   the key columns of every ancestor plus its own — which is exactly
   what the sorted outer union encoding of [Shanmugasundaram et al.]
   requires for the constant-space tagger.

   Per-node derived aggregates (e.g. an order-total element under each
   customer) aggregate that node's rows grouped by the parent path; the
   outer-union strategy recomputes and regroups the node query for each
   of them, the GApply strategy folds them into one grouped pass. *)

type aggregate_spec = {
  a_fn : Expr.agg_fn;
  a_col : string;   (* aggregated column of this node's query *)
  a_tag : string;   (* output element tag, attached to the parent *)
}

type node = {
  n_tag : string;
  n_query : string;
      (* must output [n_path] (ancestor keys then own keys) and the
         field columns *)
  n_path : string list;
      (* full hierarchical key path: ancestors' key columns first, this
         node's own key columns last *)
  n_own_keys : int;
      (* how many trailing columns of [n_path] are this node's own.  A
         leaf may own none: each of its rows is then its own element *)
  n_fields : (string * string) list;  (* (column, element tag) *)
  n_aggregates : aggregate_spec list;
  n_children : node list;
}

type guard =
  | Some_row of string * Expr.binop * float
  | Agg_holds of Expr.agg_fn * string * Expr.binop * float

type selection = {
  s_query : string;
  s_link : string list;  (* columns equal to the top node's key path *)
  s_guard : guard;
}

type t = { root_tag : string; top : node; select : selection option }

let rec validate_node ~(ancestor_path : string list) (n : node) =
  let prefix_len = List.length n.n_path - n.n_own_keys in
  if n.n_own_keys < 0 then
    Errors.plan_errorf "view node <%s> has a negative key count" n.n_tag;
  (* the children's rows name their parent by its keys *)
  if n.n_own_keys = 0 && n.n_children <> [] then
    Errors.plan_errorf
      "view node <%s> has children but no key columns of its own" n.n_tag;
  if prefix_len <> List.length ancestor_path then
    Errors.plan_errorf
      "view node <%s>: key path has %d ancestor columns, expected %d"
      n.n_tag prefix_len
      (List.length ancestor_path);
  List.iter (validate_node ~ancestor_path:n.n_path) n.n_children

let validate (v : t) =
  validate_node ~ancestor_path:[] v.top;
  (* a derived value attaches to the parent element, and the top
     node's parent is the document root *)
  if v.top.n_aggregates <> [] then
    Errors.plan_errorf "view %s: the top node <%s> cannot carry aggregates"
      v.root_tag v.top.n_tag;
  (match v.select with
  | Some s when List.length s.s_link <> List.length v.top.n_path ->
      Errors.plan_errorf
        "view %s: selection link arity does not match the top key path"
        v.root_tag
  | _ -> ());
  v

(** A three-level view over the TPC-H order-processing tables:
    customers, their orders, and each order's lineitems, with an
    order-count under each customer and a revenue total under each
    order. *)
let customer_orders =
  validate
    {
      root_tag = "customers";
      top =
        {
          n_tag = "customer";
          n_query = "select c_custkey, c_name, c_acctbal from customer";
          n_path = [ "c_custkey" ];
          n_own_keys = 1;
          n_fields = [ ("c_name", "name"); ("c_acctbal", "acctbal") ];
          n_aggregates = [];
          n_children =
            [
              {
                n_tag = "order";
                n_query =
                  "select o_custkey, o_orderkey, o_orderdate, \
                   o_totalprice from orders";
                n_path = [ "o_custkey"; "o_orderkey" ];
                n_own_keys = 1;
                n_fields =
                  [ ("o_orderdate", "date"); ("o_totalprice", "total") ];
                n_aggregates =
                  [ { a_fn = Expr.Count; a_col = "o_orderkey";
                      a_tag = "order_count" } ];
                n_children =
                  [
                    {
                      n_tag = "lineitem";
                      n_query =
                        "select o_custkey, l_orderkey, l_linenumber, \
                         l_quantity, l_extendedprice from lineitem, \
                         orders where l_orderkey = o_orderkey";
                      n_path =
                        [ "o_custkey"; "l_orderkey"; "l_linenumber" ];
                      n_own_keys = 1;
                      n_fields =
                        [
                          ("l_quantity", "quantity");
                          ("l_extendedprice", "price");
                        ];
                      n_aggregates =
                        [
                          { a_fn = Expr.Sum; a_col = "l_extendedprice";
                            a_tag = "revenue" };
                          { a_fn = Expr.Count; a_col = "l_linenumber";
                            a_tag = "line_count" };
                        ];
                      n_children = [];
                    };
                  ];
              };
            ];
        };
      select = None;
    }
