(** Logical plan algebra.

    The operator alphabet is the one used throughout the paper (Sections
    3-4): scan, select, project, join (inner), groupby, aggregate,
    distinct, orderby, union all, apply, exists — plus the paper's
    contribution, GApply.

    Plans are name-based: expressions refer to columns of the node's
    input by (optionally qualified) name, so optimizer rewrites never
    renumber positions; the physical compiler resolves names once. *)

type sort_dir = Asc | Desc

type fk_direction = Left_to_right | Right_to_left
(** Direction of a foreign-key join (paper Definition 2):
    [Left_to_right] means the left input holds the foreign key — every
    left row matches exactly one right row — the orientation the
    invariant-grouping rule requires. *)

type t =
  | Table_scan of { table : string; alias : string; schema : Schema.t }
  | Group_scan of { var : string; schema : Schema.t }
      (** leaf of a per-group query: reads the relation bound to the
          enclosing GApply's relation-valued variable *)
  | Select of { pred : Expr.t; input : t }
  | Project of { items : (Expr.t * string) list; input : t }
  | Join of { pred : Expr.t; fk : fk_direction option; left : t; right : t }
  | Group_by of {
      keys : Expr.col_ref list;
      aggs : (Expr.agg * string) list;
      input : t;
    }
  | Aggregate of { aggs : (Expr.agg * string) list; input : t }
      (** scalar aggregation: exactly one output row, even on empty
          input *)
  | Distinct of t
  | Order_by of { keys : (Expr.t * sort_dir) list; input : t }
  | Union_all of t list
  | Alias of { alias : string; input : t }
      (** re-qualify the input's columns under a derived-table alias;
          identity on rows *)
  | Apply of { outer : t; inner : t }
      (** for each outer row r, evaluate [inner] with r bound as an
          outer frame; output r concatenated with each inner row *)
  | Exists of { input : t; negated : bool }
      (** one empty-schema row iff [input] is non-empty (xor [negated]);
          meaningful as the inner child of [Apply] *)
  | G_apply of {
      gcols : Expr.col_ref list;
      var : string;
      outer : t;
      pgq : t;
      cluster : bool;
    }
      (** the paper's GApply(GCols, PGQ): partition [outer] on [gcols],
          run [pgq] per group with the group bound to [var], cross each
          result with the group key, union everything.  [cluster] asks
          the physical operator to emit groups in key order (the Section
          3.1 guarantee for gapply-syntax results). *)

(** {1 Constructors} *)

val table_scan : table:string -> alias:string -> Schema.t -> t
(** The schema is re-qualified under [alias]. *)

val group_scan : var:string -> Schema.t -> t
val select : Expr.t -> t -> t
val project : (Expr.t * string) list -> t -> t
val join : ?fk:fk_direction -> Expr.t -> t -> t -> t
val group_by : Expr.col_ref list -> (Expr.agg * string) list -> t -> t
val aggregate : (Expr.agg * string) list -> t -> t
val distinct : t -> t
val order_by : (Expr.t * sort_dir) list -> t -> t

val union_all : t list -> t
(** Flattens the single-branch case. @raise Invalid_argument on []. *)

val alias : string -> t -> t
val apply : t -> t -> t
val exists : ?negated:bool -> t -> t
val g_apply : gcols:Expr.col_ref list -> var:string -> outer:t -> pgq:t -> t

val g_apply_clustered :
  gcols:Expr.col_ref list -> var:string -> outer:t -> pgq:t -> t
(** Like {!g_apply} with the Section 3.1 clustering guarantee: groups
    come out in key order.  The SQL binder uses it for gapply-syntax
    queries.  The publishing plans ([Publish.gapply_plan],
    [Deep_publish.gapply_plan]) rely on it too: its order property
    ([Props.order_of]) lets their final ORDER BY stream each GApply
    branch, checking each group's run and merging the branches. *)

(** {1 Traversals} *)

val children : t -> t list

val with_children : t -> t list -> t
(** @raise Errors.Plan_error on arity mismatch. *)

val rewrite_bottom_up : (t -> t) -> t -> t
val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
val node_count : t -> int
val contains_gapply : t -> bool
val contains_table_scan : t -> bool

val rewrite_exprs :
  f_expr:(Expr.t -> Expr.t) -> f_ref:(Expr.col_ref -> Expr.col_ref) -> t -> t
(** Rewrite every embedded expression ([f_expr]: predicates, projection
    items, aggregate arguments, order keys) and bare column-reference
    list ([f_ref]: group-by keys, GApply grouping columns), bottom-up. *)

val outer_refs : t -> Expr.col_ref list
(** All [Expr.Outer] references appearing anywhere in the plan. *)

val equal : t -> t -> bool
(** Structural equality. *)

(** {1 Printing} *)

val op_name : t -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
