(** Logical-to-physical compilation.

    {!plan} turns a logical plan into a {!compiled} value once; the
    [brun] closure can then be executed many times under different
    environments — which is exactly what Apply (per outer row) and
    GApply (per group) do.

    GApply follows the paper's two phases (Section 3): a partition phase
    (sorting or hashing, per {!config}) over the outer stream, which
    lays every group out as a view ({!groups}), then an execution phase
    over the groups.  Hashing gives every row of each input batch a
    group id through a key table ({!Keytbl}) and then copies each
    group's rows into an array of exactly its size: groups in reverse
    first-seen key order, members in input order, the same layout at
    every parallelism.  A {!group_local} per-group query runs as one
    loop per group over its view; any other is compiled once into its
    cursor chain and re-run per group with the group's view bound to
    the relation-valued variable. *)

type partition_strategy = Sort_partition | Hash_partition

type gapply_groups = { loop : Metrics.counter; chain : Metrics.counter }
(** The [gapply_groups_total{path="loop"|"chain"}] counters: every GApply
    execution adds its group count to the path its PGQ takes. *)

val gapply_groups : Metrics.registry -> gapply_groups
(** Register (or look up) the family in a registry. *)

type config = {
  partition : partition_strategy;
  parallelism : int;
      (** total domains (submitting domain included) used by the
          partition and execution phases of GApply/Group_by on a shared
          {!Domain_pool}: [1] = sequential, [0] = automatic
          ([Domain.recommended_domain_count ()]).  Output is
          tuple-identical to sequential execution at any setting. *)
  batch_size : int;
      (** rows per batch, at least 1 (default {!Batch.default_size}).
          Output is tuple-identical at any setting. *)
  observe : Obs.t option;
      (** per-operator metrics sink (EXPLAIN ANALYZE / --analyze): one
          {!Obs.node} is registered per plan operator and every batch
          cursor is wrapped with the metering pull.  [None] compiles the
          exact uninstrumented operators — zero per-batch overhead when
          tracing is off.  A sink observes one compilation; use a fresh
          sink per compiled plan. *)
  groups : gapply_groups option;
      (** where GApply counts the groups it runs through the loop or the
          chain; [None] counts nothing *)
}

val default_config : config
(** Hash partitioning, sequential, {!Batch.default_size}-row batches,
    unobserved, uncounted. *)

val config_with :
  ?partition:partition_strategy ->
  ?parallelism:int ->
  ?batch_size:int ->
  ?observe:Obs.t ->
  ?groups:gapply_groups ->
  unit ->
  config
(** @raise Invalid_argument when [batch_size < 1]. *)

type compiled = {
  schema : Schema.t;
  run : Env.t -> Cursor.t;
      (** row-at-a-time adapter over [brun] ([Batch.to_cursor]) for
          consumers at the tagger/client boundary *)
  brun : Env.t -> Batch.cursor;
      (** the operator's (instrumented, governed) batch cursor *)
}

val plan : ?config:config -> ?outer:Schema.t list -> Plan.t -> compiled
(** [outer] carries enclosing Apply outer schemas (for schema
    derivation of correlated subplans). *)

val group_local : var:string -> Plan.t -> bool
(** Whether a per-group query over [var] runs as the group-local loop:
    a UNION ALL (or one branch) of
    [Project? (Aggregate? (Select* source))] chains, possibly guarded as
    [Apply (Exists test, _)] (negated or not).  A source is
    [Group_scan var]; [Distinct (Project? (Select* (Group_scan var)))];
    or [Apply (Select* (Group_scan var), inner)] with inner
    [Aggregate (Select* (Group_scan var))] or [Exists test] that does
    not reference the Apply's row.  A [test] is
    [Select* (Aggregate? (Select* (Group_scan var)))].  Such a PGQ tests
    its guard once per group on the slice — a group that fails emits
    nothing — then filters, folds and projects each group's slice
    directly: an Apply's inner once per group, its members seen as
    [member ++ inner values]; a Distinct through a seen-set of the
    group's own.  It writes [key ++ values] rows, in the order its
    cursor chain would yield them (groups, then branches, then
    members). *)

type groups = { keys : Tuple.t array; members : Batch.t array }
(** A partitioned input: group [g] has key [keys.(g)] and members
    [members.(g)], in input order. *)

val partition :
  ?pool:Domain_pool.t ->
  ?gov:Governor.t ->
  input:string ->
  op:string ->
  partition_strategy ->
  idxs:int array ->
  Batch.cursor ->
  groups
(** The partition phase of GApply and GROUP BY: drain the cursor and
    group its rows by their key on the columns [idxs].  Hashing gives
    the groups in reverse first-seen key order, each in an array of its
    own, straight from the input's batches; sorting gives them in key
    order, as slices of one sorted array.  The layout is the same at
    every parallelism.  Under a governor the input's batches are
    charged under [input] and the partition's structures under [op]. *)

val sort_rows : ?pool:Domain_pool.t -> ('a -> 'a -> int) -> 'a array -> unit
(** The row sort behind ORDER BY and sort partitioning: stable and in
    place, so it always equals [Array.stable_sort cmp rows].  One compare
    pass finds the maximal non-descending runs ([cmp prev next <= 0]
    continues one).  One run returns at once, moving and allocating
    nothing; a few runs are merged ({!Domain_pool.merge_runs}).  Once
    the runs seen average under 8 rows, the pass stops and a full stable
    sort takes over ({!Domain_pool.parallel_sort} with [pool]). *)
