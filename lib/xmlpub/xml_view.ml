(* XPeranto-style annotated view trees (paper Figure 1).

   A view describes how relational data is published as XML: a parent
   element type whose instances come from one SQL query, with nested
   child element types whose instances come from SQL queries carrying
   the parent's binding columns (the "$s" binding of Figure 1).

   The view of Figure 1:

     {
       root_tag = "suppliers";
       parent = { tag = "supplier";
                  query = "select s_suppkey, s_name from supplier";
                  key = ["s_suppkey"];
                  fields = [("s_suppkey", "s_suppkey"); ("s_name", "s_name")] };
       children = [ { tag = "part";
                      query = "select ps_suppkey, p_name, p_retailprice
                               from partsupp, part
                               where ps_partkey = p_partkey";
                      link = ["ps_suppkey"];
                      fields = [("p_name", "p_name");
                                ("p_retailprice", "p_retailprice")] } ];
     }

   Derived elements (per-group aggregates like Q1's avg price) and a
   group predicate (the Section 4.2 object-selection queries) can be
   attached by the query layer (Flwr) on top of a view. *)

type parent_spec = {
  p_tag : string;
  p_query : string;              (* first columns must include [p_key] *)
  p_key : string list;           (* identifying columns, unique in
                                    [p_query]'s rows *)
  p_fields : (string * string) list;  (* (column, element tag) *)
}

type child_spec = {
  c_tag : string;
  c_query : string;              (* must output the [c_link] columns *)
  c_link : string list;          (* columns equal to the parent key,
                                    positionally paired with [p_key] *)
  c_fields : (string * string) list;
}

type t = {
  root_tag : string;
  parent : parent_spec;
  children : child_spec list;
}

let validate (v : t) =
  if v.parent.p_key = [] then
    Errors.plan_errorf "view %s: parent must have key columns" v.root_tag;
  List.iter
    (fun c ->
      if List.length c.c_link <> List.length v.parent.p_key then
        Errors.plan_errorf
          "view %s: child %s link arity does not match the parent key"
          v.root_tag c.c_tag)
    v.children;
  v

(** The view of paper Figure 1 over the TPC-H tables. *)
let figure1 =
  validate
    {
      root_tag = "suppliers";
      parent =
        {
          p_tag = "supplier";
          p_query = "select s_suppkey, s_name from supplier";
          p_key = [ "s_suppkey" ];
          p_fields = [ ("s_suppkey", "s_suppkey"); ("s_name", "s_name") ];
        };
      children =
        [
          {
            c_tag = "part";
            c_query =
              "select ps_suppkey, p_name, p_retailprice from partsupp, \
               part where ps_partkey = p_partkey";
            c_link = [ "ps_suppkey" ];
            c_fields =
              [ ("p_name", "p_name"); ("p_retailprice", "p_retailprice") ];
          };
        ];
    }
