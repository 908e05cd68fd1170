(** A version-invalidated LRU cache of prepared query plans.

    Entries hold a bound + optimized + compiled plan keyed on the SQL
    text and every compile knob (partition strategy, optimize flag,
    parallelism) — flipping a knob key-splits rather than
    reusing a stale shape.  Each entry is fingerprinted with the catalog
    {!Catalog.generation} and the {!Table.version} of every base table
    its plan scans; lookups revalidate the fingerprint lazily, and
    {!invalidate_stale} sweeps eagerly after DDL/DML so only dependent
    entries are evicted.

    Thread-safe: a mutex guards the map, {!Cache_stats} atomics count
    hits / misses / evictions / invalidations, and cached compiled
    plans can be executed concurrently from several sessions. *)

type key = {
  sql : string;
  partition : Compile.partition_strategy;
  optimize : bool;
  cbo : bool;  (** cost-based choices enabled during prepare *)
  stats_epoch : int;
      (** {!Catalog.stats_epoch} consulted at prepare — a plan chosen
          under superseded statistics key-splits instead of being served
          warm.  The engine stamps each entry with the epoch read after
          its prepare (the prepare itself may refresh statistics), so
          the following lookup's live-epoch key matches. *)
  parallelism : int;
}

type entry = {
  key : key;
  plan : Plan.t;               (** the optimized logical plan *)
  compiled : Compile.compiled;
  generation : int;            (** catalog generation at prepare time *)
  deps : (string * int) list;  (** scanned table -> version at prepare *)
  prepare_ns : int;            (** parse + bind + optimize + compile cost *)
  mutable last_used : int;     (** LRU clock reading *)
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 128 entries (LRU-evicted beyond that). *)

val capacity : t -> int
val length : t -> int
val stats : t -> Cache_stats.t
val clear : t -> unit

val tables_of_plan : Plan.t -> string list
(** Base tables scanned by a plan — lowercased, deduplicated, sorted. *)

val snapshot_deps : Catalog.t -> Plan.t -> (string * int) list
(** Current versions of a plan's base tables. *)

val is_valid : Catalog.t -> entry -> bool
(** Does the entry's fingerprint still match the catalog? *)

val find : t -> Catalog.t -> key -> entry option
(** Validated lookup.  A valid entry counts as a hit (crediting its
    prepare cost as saved time); a stale one is dropped and counted as
    an invalidation.  Misses are {e not} counted here — call
    {!record_miss} when actually preparing a statement. *)

val record_miss : t -> unit

val note_hit : t -> entry -> unit
(** Credit a warm execution that bypassed the map (a prepared-statement
    handle revalidating its own entry). *)

val add : t -> entry -> unit
(** Insert, LRU-evicting over capacity (evictions are counted). *)

val peek : t -> key -> entry option
(** Counter-free, validation-free lookup for introspection and tests. *)

val remove : t -> key -> unit

val invalidate_stale : t -> Catalog.t -> int
(** Eagerly drop every entry whose fingerprint no longer matches the
    catalog; returns the number dropped (each counted as an
    invalidation).  Entries over unrelated tables survive. *)
