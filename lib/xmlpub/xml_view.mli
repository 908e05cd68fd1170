(** XPeranto-style annotated view trees (paper Figure 1): a parent
    element type whose instances come from one SQL query, with nested
    child element types whose queries carry the parent's binding
    columns. *)

type parent_spec = {
  p_tag : string;
  p_query : string;              (** SQL producing parent rows *)
  p_key : string list;
      (** identifying columns: unique in [p_query]'s rows, which the
          publishing plans rely on ({!Publish}) *)
  p_fields : (string * string) list;  (** (column, element tag) *)
}

type child_spec = {
  c_tag : string;
  c_query : string;              (** SQL producing child rows *)
  c_link : string list;          (** columns equal to the parent key,
                                     positionally paired with [p_key] *)
  c_fields : (string * string) list;
}

type t = {
  root_tag : string;
  parent : parent_spec;
  children : child_spec list;
}

val validate : t -> t
(** @raise Errors.Plan_error on empty keys / link arity mismatches. *)

val figure1 : t
(** The view of paper Figure 1 over the TPC-H tables: suppliers with
    nested parts. *)
