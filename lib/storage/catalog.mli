(** The catalog: a name -> table map plus a statistics cache.

    Table names are case-insensitive.  Statistics are computed lazily
    and cached; call {!invalidate_stats} after mutating a table.

    Lookups, statistics and DDL are safe to call from concurrent
    sessions (a mutex guards the maps); writers to the same table's
    *contents* must still be serialized by the caller. *)

type t

val create : unit -> t

val generation : t -> int
(** Monotonic DDL counter, bumped by {!add_table} / {!drop_table} /
    {!create_index} / {!drop_index}.  Cached plans are fingerprinted
    against it: any catalog shape change conservatively invalidates
    them, while DML only bumps the affected table's {!Table.version}. *)

val table_version : t -> string -> int
(** [Table.version] of the named table, [0] if absent — the per-table
    half of a cached plan's invalidation fingerprint. *)

val stats_epoch : t -> int
(** Monotonic counter bumped whenever any table's statistics are
    (re)computed or invalidated.  Part of the plan-cache key: a plan
    chosen under superseded statistics can never be served warm. *)

(** {1 Commit clock and snapshots}

    The global commit timestamp orders every committed write.  It only
    advances under the engine's commit lock: a writer reserves
    {!next_commit_ts}, stamps and applies its rows, logs them, and makes
    the commit visible with {!publish_commit_ts}.  Snapshots taken in
    between still read the old clock, so a half-applied multi-table
    commit is never observable. *)

val current_ts : t -> int
(** The clock's current value — the horizon a fresh snapshot pins. *)

val next_commit_ts : t -> int
(** The timestamp the next commit will stamp its rows with.  Call only
    under the engine's commit lock. *)

val publish_commit_ts : t -> int -> unit
(** Advance the clock to [ts] (monotone; lesser values are ignored),
    making every row stamped [<= ts] visible to new snapshots. *)

val snapshot : t -> Mvcc.t
(** An immutable snapshot handle pinned at the current clock.  Reads
    resolved through it see exactly the transactions committed before it
    was taken, regardless of concurrent writers. *)

val add_table : t -> Table.t -> unit
(** @raise Errors.Name_error if the name is taken. *)

val find_table : t -> string -> Table.t
(** @raise Errors.Name_error on unknown tables. *)

val find_table_opt : t -> string -> Table.t option
val mem_table : t -> string -> bool

val drop_table : t -> string -> unit
(** @raise Errors.Name_error on unknown tables. *)

val table_names : t -> string list
(** Sorted. *)

val stats_of : t -> string -> Stats.table_stats
(** Version-fresh statistics for the named table: the cached entry is
    reused while its [built_version] stamp matches the live
    [Table.version] and recomputed lazily otherwise (bumping
    {!stats_epoch} exactly once per refresh).
    @raise Errors.Name_error on unknown tables. *)

val peek_stats : t -> string -> Stats.table_stats option
(** The cached entry as-is (possibly stale), never recomputing — for
    staleness introspection ([\stats] in the CLI). *)

val invalidate_stats : t -> string -> unit
val invalidate_all_stats : t -> unit

(** {1 Indexes} *)

val create_index :
  t -> name:string -> table:string -> columns:string list -> unit
(** @raise Errors.Name_error on duplicate names / unknown tables or
    columns. *)

val drop_index : t -> string -> unit
val index_names : t -> string list

val index_specs : t -> (string * string * string list) list
(** Every index as [(name, table, columns)], sorted by name; the
    snapshot writer serializes these so recovery can re-create them. *)

val find_index_on : t -> table:string -> cols:string list -> Index.t option
(** An index on [table] whose column set equals [cols] (any order). *)

val has_foreign_key :
  t ->
  table:string ->
  cols:string list ->
  ref_table:string ->
  ref_cols:string list ->
  bool
(** Does [table] declare a foreign key on [cols] (as a set) referencing
    [ref_cols] of [ref_table]?  Used by the binder to annotate FK joins
    for the invariant-grouping rule. *)

val covers_primary_key : t -> table:string -> cols:string list -> bool
(** Is [cols] a superset of [table]'s primary key? *)

val dicts : t -> Dict.t list
(** The dictionaries of every dictionary-encoded table. *)

val adopt : t -> from:t -> unit
(** Replace this catalog's entire contents (tables, indexes, cached
    statistics) with [from]'s — the replication applier installs a
    freshly decoded primary snapshot this way.  Bumps {!generation}
    (invalidating every cached plan) and merges the commit clock
    monotonically; [from] must be private to the caller. *)
