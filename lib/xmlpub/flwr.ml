(* A typed FLWR (For-Let-Where-Return) subset over XML views.

   This models the XQuery queries the paper uses over the Figure 1 view:

   - Q1-style element reconstruction with nested children and aggregates:
       For $s in /doc(tpch.xml)/suppliers/supplier
       Return <ret> $s/..., <parts> For $p in $s/part ... </parts>,
              avg($s/part/p_retailprice) </ret>
   - object selection by an existential child predicate (Section 4.2):
       For $s ... Where $s/part[p_retailprice > 1000] Return $s
   - object selection by an aggregate predicate:
       For $s ... Where avg($s/part/p_retailprice) > 10000 Return $s

   [compile] lowers a query to a {!Publish.spec}, which both execution
   strategies (sorted outer union vs. GApply) can run; [to_xquery]
   renders the query in XQuery-like concrete syntax for display. *)

type return_item =
  | Parent_fields
      (** the parent element's own fields ($s/s_suppkey, ...) *)
  | Nested_children of string
      (** a nested For over the child with the given tag *)
  | Child_aggregate of Expr.agg_fn * string * string * string
      (** fn, child tag, child column, output element tag *)

type predicate =
  | Some_child of string * string * Expr.binop * float
      (** child tag, column, comparison, constant:
          $s/<child>[<column> op <const>] *)
  | Child_agg_cmp of Expr.agg_fn * string * string * Expr.binop * float
      (** fn(child column) op const *)

type t = {
  view : Xml_view.t;
  where : predicate option;
  returns : return_item list;
}

let make ?where ~returns view = { view; where; returns }

let child_of_tag (v : Xml_view.t) tag =
  match
    List.find_opt
      (fun (c : Xml_view.child_spec) -> String.equal c.Xml_view.c_tag tag)
      v.Xml_view.children
  with
  | Some c -> c
  | None -> Errors.name_errorf "view has no child element <%s>" tag

(** Lower to a publishing spec. *)
let compile (q : t) : Publish.spec =
  let v = q.view in
  (* keep only the children actually returned *)
  let kept_tags =
    List.filter_map
      (function Nested_children tag -> Some tag | _ -> None)
      q.returns
  in
  let kept_children =
    List.filter
      (fun (c : Xml_view.child_spec) ->
        List.mem c.Xml_view.c_tag kept_tags)
      v.Xml_view.children
  in
  let view' = { v with Xml_view.children = kept_children } in
  let reindex tag =
    let rec go i = function
      | [] -> Errors.name_errorf "child <%s> is not returned by the query" tag
      | (c : Xml_view.child_spec) :: rest ->
          if String.equal c.Xml_view.c_tag tag then i else go (i + 1) rest
    in
    go 0 kept_children
  in
  let derived =
    List.filter_map
      (function
        | Child_aggregate (fn, tag, col, out_tag) ->
            Some
              {
                Publish.d_child = reindex tag;
                d_fn = fn;
                d_col = col;
                d_tag = out_tag;
              }
        | Parent_fields | Nested_children _ -> None)
      q.returns
  in
  (* a group predicate names a child of the original view, which need
     not be returned (Section 4.2's "Return $s") *)
  let pred =
    Option.map
      (function
        | Some_child (tag, col, op, value) ->
            {
              Publish.g_child = child_of_tag v tag;
              g_guard = Deep_view.Some_row (col, op, value);
            }
        | Child_agg_cmp (fn, tag, col, op, value) ->
            {
              Publish.g_child = child_of_tag v tag;
              g_guard = Deep_view.Agg_holds (fn, col, op, value);
            })
      q.where
  in
  { Publish.view = view'; derived; pred }

(* ---------- display ---------- *)

let op_str = function
  | Expr.Gt -> ">"
  | Expr.Gte -> ">="
  | Expr.Lt -> "<"
  | Expr.Lte -> "<="
  | Expr.Eq -> "="
  | Expr.Neq -> "!="
  | _ -> "?"

let to_xquery (q : t) : string =
  let v = q.view in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "For $s in /doc(tpch.xml)/%s/%s\n" v.Xml_view.root_tag
       v.Xml_view.parent.Xml_view.p_tag);
  (match q.where with
  | None -> ()
  | Some (Some_child (tag, col, op, value)) ->
      Buffer.add_string buf
        (Printf.sprintf "Where $s/%s[%s %s %g]\n" tag col (op_str op) value)
  | Some (Child_agg_cmp (fn, tag, col, op, value)) ->
      Buffer.add_string buf
        (Printf.sprintf "Where %s($s/%s/%s) %s %g\n"
           (Expr.agg_fn_to_string fn) tag col (op_str op) value));
  Buffer.add_string buf "Return <ret>\n";
  List.iter
    (function
      | Parent_fields ->
          List.iter
            (fun (_, tag) ->
              Buffer.add_string buf (Printf.sprintf "  $s/%s\n" tag))
            v.Xml_view.parent.Xml_view.p_fields
      | Nested_children tag ->
          Buffer.add_string buf
            (Printf.sprintf
               "  <%ss> For $c in $s/%s Return <%s> ... </%s> </%ss>\n" tag
               tag tag tag tag)
      | Child_aggregate (fn, tag, col, out_tag) ->
          Buffer.add_string buf
            (Printf.sprintf "  <%s>%s($s/%s/%s)</%s>\n" out_tag
               (Expr.agg_fn_to_string fn) tag col out_tag))
    q.returns;
  Buffer.add_string buf "</ret>";
  Buffer.contents buf

(* ---------- the paper's example queries over Figure 1 ---------- *)

(** Q1: names and prices of all parts plus the average retail price. *)
let q1 =
  make Xml_view.figure1
    ~returns:
      [
        Parent_fields;
        Nested_children "part";
        Child_aggregate (Expr.Avg, "part", "p_retailprice", "avg_price");
      ]

(** Q1 extended with several aggregates over the part subtree — each one
    costs the sorted-outer-union strategy a fresh join + groupby, while
    the GApply strategy folds them all into the same grouped pass. *)
let q1_extended =
  make Xml_view.figure1
    ~returns:
      [
        Parent_fields;
        Nested_children "part";
        Child_aggregate (Expr.Avg, "part", "p_retailprice", "avg_price");
        Child_aggregate (Expr.Min, "part", "p_retailprice", "min_price");
        Child_aggregate (Expr.Max, "part", "p_retailprice", "max_price");
        Child_aggregate (Expr.Count, "part", "p_retailprice", "part_count");
      ]

(** Suppliers supplying some part above [bound] (Section 4.2). *)
let expensive_part_suppliers bound =
  make Xml_view.figure1
    ~where:(Some_child ("part", "p_retailprice", Expr.Gt, bound))
    ~returns:[ Parent_fields; Nested_children "part" ]

(** Suppliers whose average part price exceeds [bound]. *)
let high_average_suppliers bound =
  make Xml_view.figure1
    ~where:(Child_agg_cmp (Expr.Avg, "part", "p_retailprice", Expr.Gt, bound))
    ~returns:[ Parent_fields; Nested_children "part" ]
