(** Derived plan properties: output schemas and related utilities.

    [outer] parameters carry the schemas of enclosing Apply outer inputs
    so correlated expressions can be typed. *)

val schema_of : ?outer:Schema.t list -> Plan.t -> Schema.t
(** Output schema of a (sub)plan.
    @raise Errors.Name_error / Errors.Plan_error on unresolvable names
    or inconsistent arities. *)

val output_columns : ?outer:Schema.t list -> Plan.t -> string list

val order_of : ?outer:Schema.t list -> Plan.t -> int list
(** The order property: the output columns, by position, that the
    plan's rows ascend on, most significant first (lexicographically
    under [Value.compare_total]; ties in any order).  Produced by an
    [Order_by]'s leading ascending bare-column keys and by a clustered
    [G_apply]'s grouping columns (which lead its output); kept by
    [Select], [Alias] and the bare-column items of a [Project]
    (renames included); [[]] for every other operator.
    @raise Errors.Name_error on unresolvable names. *)

val group_var_schema : ?outer:Schema.t list -> Plan.t -> Schema.t
(** The schema a [Group_scan] for the given GApply should carry (= the
    schema of its outer input).
    @raise Errors.Plan_error when the plan is not a GApply. *)

val retarget_group_scans : var:string -> schema:Schema.t -> Plan.t -> Plan.t
(** Rewrite every [Group_scan] of [var] to carry [schema]; used by rules
    that change a GApply's outer schema.  Does not descend into nested
    GApply bodies that rebind the same variable. *)

val validate : ?outer:Schema.t list -> Plan.t -> Schema.t
(** Check resolvability and arities; returns the output schema. *)

val pp_plan_with_schema : Format.formatter -> Plan.t -> unit
(** Plan tree annotated with per-node schemas (EXPLAIN-style). *)
