(** Public facade: an embedded database engine with the paper's GApply
    operator, the Section 3.1 SQL syntax extension, and the Section 4
    optimizer rules.

    {[
      let db = Engine.create () in
      Engine.load_tpch db ~msf:1.0;
      match Engine.exec db "select gapply(...) ... group by k : g" with
      | Engine.Rows rel -> Format.printf "%a" Relation.pp rel
      | _ -> ...
    ]}

    Queries run through a version-invalidated plan cache: re-executing
    the same SQL text under the same knobs skips parse / bind /
    optimize / compile, and any DDL or DML transparently evicts the
    dependent entries (see {!Plan_cache}).  {!prepare} /
    {!exec_prepared} expose the warm path as an explicit handle;
    SQL-level [PREPARE name AS q] / [EXECUTE name] / [DEALLOCATE name]
    drive the same machinery from scripts. *)

type t

type prepared
(** A prepared statement: the bound + optimized + compiled plan of one
    query, fingerprinted against the compile-time knobs and the catalog
    version.  Re-prepared transparently by {!exec_prepared} when a knob
    flip or DDL/DML made it stale. *)

type session
(** One client's view of the engine: at most one open transaction.
    Sessions are cheap; the concurrent-session driver creates one per
    simulated client.  The sessionless API ({!exec}, {!exec_script},
    {!query}) runs on a lazily created default session, so transaction
    control works there too. *)

type outcome =
  | Rows of Relation.t          (** result of a query *)
  | Message of string           (** DDL/DML confirmation *)
  | Explanation of string       (** EXPLAIN output *)
  | Failed of exn
      (** the statement failed with a typed engine error — a query
          that does not bind or optimize (unknown column, type error),
          a budget violation ({!Errors.Resource_error}), an injected
          fault, an unknown prepared handle, a stale re-prepare over
          dropped tables.  The engine is untouched: sibling statements,
          cached entries and catalog state are exactly as if the
          statement had never run. *)

val create :
  ?partition:Compile.partition_strategy ->
  ?optimize:bool ->
  ?cbo:bool ->
  ?parallelism:int ->
  ?plan_cache:bool ->
  ?cache_capacity:int ->
  ?timeout_ms:int ->
  ?row_limit:int ->
  ?mem_limit:int ->
  ?data_dir:string ->
  ?durability:Store.durability ->
  ?wal_group_commit:int ->
  ?checkpoint_wal_bytes:int ->
  unit ->
  t
(** A fresh engine with an empty catalog.  Defaults: hash-partitioned
    GApply, optimizer enabled, sequential execution.  [parallelism]
    follows {!Compile.config}: total domains, [0] = automatic.

    The plan cache is on by default with a 128-entry LRU capacity; pass
    [~plan_cache:false] to force every execution down the cold path.

    [timeout_ms] / [row_limit] / [mem_limit] seed the per-statement
    resource budget (see {!set_timeout_ms}); all default to
    unlimited.

    [data_dir] turns on durability: the directory is recovered (latest
    snapshot + WAL replay, see {!Recovery}) and every committed DDL/DML
    statement is logged from then on.  [durability] picks the sync
    policy (default [Strict]; [Lazy] group-commits every
    [wal_group_commit] records, [Off] keeps the hot path free of any
    WAL work).  The WAL auto-checkpoints into a snapshot once it passes
    [checkpoint_wal_bytes].  Without [data_dir] the engine is purely
    in-memory and the durability arguments are ignored.

    Reads are snapshot-isolated: every statement — and every
    transaction, for its whole lifetime — resolves row visibility
    against an immutable commit-timestamp snapshot, so readers never
    block on (or observe half of) a concurrent writer.
    @raise Errors.Recovery_error when the directory holds real
    corruption (a torn WAL tail is quarantined, not raised). *)

val catalog : t -> Catalog.t

val set_partition_strategy : t -> Compile.partition_strategy -> unit
val set_optimize : t -> bool -> unit

val set_cbo : t -> bool -> unit
(** Cost-based optimization (default on): statistics-gated
    GApply-to-group-by, join reordering, and the costed sort-vs-hash
    partition choice.  Off reproduces the fixed heuristics.  Also
    settable per session with [SET cbo = ON | OFF | DEFAULT].  Part of
    the plan-cache key. *)

val cbo_enabled : t -> bool
val set_parallelism : t -> int -> unit
(** Compile knobs are part of the plan-cache key, so flipping one can
    never serve a plan compiled under the old setting — the cache
    key-splits, and flipping back re-hits the older entries. *)

val metrics : t -> Metrics.registry
(** The engine's one metrics registry: the plan cache
    ([gapply_plan_cache_*]), governor ([gapply_governor_*]),
    transactions ([gapply_txn_*]), WAL and recovery ([gapply_wal_*]) and
    dictionary totals ([gapply_dict_*]) register here at creation; a
    server in front of the engine adds its connection, admission and
    replication families.  The backslash reports, the EXPLAIN ANALYZE
    footers and [/metrics] all render from it. *)

val dict_report : t -> string
(** One-line dictionary-encoding statistics over the catalog (the CLI's
    [\dict] meta-command). *)

(** {1 Resource governor}

    Every statement executes under a per-statement budget: wall-clock
    timeout, output-row limit, and a ceiling on accounted
    materialization bytes (partition tables, hash/sort buffers, group
    copies — see {!Governor}).  A violation aborts the statement with a
    typed {!Errors.Resource_error}, surfaced as {!Failed}; the plan
    cache, catalog, and sibling sessions are unaffected, and an
    immediate re-run (warm, from the same cache entry) produces the
    reference result.

    When a hash-partitioned or parallel statement trips the {e memory}
    ceiling, the engine retries it once under sort partitioning with
    parallelism 1 — the degraded shape buffers strictly less — and
    counts the downgrade in [gapply_governor_downgrades_total] (and in the EXPLAIN ANALYZE
    report).  Budgets are engine state, not compile knobs: they are not
    part of the plan-cache key, and flipping them never splits or
    evicts cache entries. *)

val budget : t -> Governor.budget

val set_timeout_ms : t -> int option -> unit
(** Wall-clock budget per statement execution (the degraded retry gets a
    fresh budget).  [None] = unlimited. *)

val set_row_limit : t -> int option -> unit
(** Maximum output rows a statement may produce. *)

val set_mem_limit : t -> int option -> unit
(** Ceiling, in bytes, on a statement's accounted materialization. *)

val governor_report : t -> string
(** One-line human-readable governor summary (the CLI's [\governor]). *)

(** {2 In-flight registry and drain}

    Every governed statement registers its governor for the duration of
    its execution, which is what makes a graceful drain possible: the
    network server flips {!set_always_governed} at startup so even
    statements with unlimited budgets carry a cancellation token, and
    {!cancel_inflight} aborts everything currently running with a typed
    [Cancelled] resource error. *)

val set_always_governed : t -> bool -> unit
(** Force a governor (hence a cancellation token) onto every statement,
    even under fully unlimited budgets.  Off by default — the embedded
    API keeps its zero-overhead ungoverned fast path. *)

val always_governed : t -> bool

val cancel_inflight : t -> int
(** Cancel every in-flight governed statement (each aborts at its next
    cursor pull with a typed [Cancelled] error); returns how many were
    signalled. *)

val inflight_count : t -> int
(** Governed statements currently executing. *)

(** {1 Durability}

    Present only when the engine was created with [data_dir].  Commit
    protocol: a DDL/DML statement is applied in memory first and logged
    only on success — under [Strict] the acknowledgement additionally
    waits for the fsync, under [Lazy] fsyncs are batched, under [Off]
    the WAL is never touched.  An injected crash ({!Fault.Crash}) at a
    WAL/snapshot hook point escapes {!exec} uncaught, exactly like
    process death: the statement was applied but never acknowledged. *)

val data_dir : t -> string option
val durability : t -> Store.durability option

val set_durability : t -> Store.durability -> unit
(** Switching [Off -> Lazy/Strict] checkpoints first (statements run
    under [Off] never reached the log).
    @raise Errors.Exec_error without a data directory. *)

val checkpoint : t -> int
(** Cut a snapshot (atomic temp + rename) and reset the WAL under the
    next epoch; returns the snapshot size in bytes.
    @raise Errors.Exec_error without a data directory. *)

val flush_wal : t -> unit
(** Fsync any pending WAL records; a no-op without a data directory. *)

val close : t -> unit
(** Final fsync and WAL close; idempotent, no-op without a data
    directory.  The engine stays usable for in-memory queries. *)

val recovery_outcome : t -> Recovery.outcome option
(** What opening the data directory found (snapshot loaded, records
    replayed, torn tail quarantined). *)

val wal_stats : t -> Wal_stats.snapshot option
val wal_report : t -> string
(** One-line durability summary (the CLI's [\wal]). *)

(** {1 Read-only mode}

    When set, every write path (autocommit INSERT, staged INSERT,
    COMMIT, DDL, bulk load) refuses with the typed {!Errors.Read_only}
    carrying this payload — a replica names its primary so clients can
    redirect, and a disk-full degrade sets it with no primary.  Reads
    are never affected.  {!apply_replicated} bypasses the gate (it is
    the replica's write path). *)

val read_only : t -> Errors.read_only_info option
val set_read_only : t -> Errors.read_only_info option -> unit

(** {1 Replication}

    Primary side: positions and raw durable WAL bytes are read under
    the commit lock, so an (epoch, offset) pair can never straddle a
    checkpoint.  Replica side: shipped commit units replay through the
    same stamped MVCC path local commits use, and each applied batch is
    logged as one local transaction group ending in a {!Wal.Repl_mark} —
    data and resume position are crash-atomic.

    All of these raise {!Errors.Exec_error} without a data directory. *)

val watermark : t -> int
(** The published commit timestamp — on a replica, the replicated
    watermark its reads resolve against. *)

val repl_position : t -> int * int
(** Primary (epoch, durable offset): the stream position a subscriber
    may be served up to. *)

val repl_read_wal : t -> pos:int -> len:int -> string
(** Raw durable WAL bytes for the streaming sender; may return fewer
    bytes at end-of-file. *)

val repl_snapshot : t -> int * int * string
(** Consistent snapshot transfer: flush, then capture
    [(epoch, wal_offset, body)] atomically with respect to commits. *)

val set_on_durable : t -> (unit -> unit) -> unit
(** Replication wake-up hook, forwarded to {!Store.set_on_durable}; a
    no-op without a data directory. *)

val repl_recovered_position : t -> (int * int) option
(** The primary-side position recovery found in the local WAL's last
    replication mark — where a restarted replica resumes catch-up. *)

val repl_recovered_diverged : t -> bool
(** Recovery found local commits {e after} the last replication mark: a
    promoted ex-replica whose history is no longer a prefix of any
    primary's.  The applier must subscribe as diverged (and be
    refused), never resume from the stale mark. *)

val apply_replicated : t -> Wal.record list list -> mark:int * int -> unit
(** Apply a batch of complete replication units (each one primary
    commit unit's records) and durably advance the replicated watermark
    to [mark]. *)

val repl_log_mark : t -> mark:int * int -> unit
(** Persist a bare position mark (bootstrap, or right after a replica
    checkpoint erased previous marks with the WAL reset). *)

val install_replica_snapshot : t -> mark:int * int -> string -> unit
(** Install a transferred primary snapshot body ({!Snapshot.decode_body}
    + {!Catalog.adopt}), then checkpoint locally and log a fresh mark so
    a restart resumes from [mark] instead of re-transferring.
    @raise Errors.Recovery_error on a malformed body. *)

(** {1 Plan cache} *)

val plan_cache : t -> Plan_cache.t
val plan_cache_enabled : t -> bool
val set_plan_cache_enabled : t -> bool -> unit

val cached_plan : t -> string -> Plan.t option
(** The cached (optimized) plan this engine would reuse for [sql] under
    its current knobs, if any — counter-free introspection. *)

val cache_report : t -> string
(** One-line human-readable cache summary (the CLI's [\cache]). *)

(** {1 Prepared statements} *)

val prepare : t -> string -> prepared
(** Parse, bind, optimize and compile a query once; the handle replays
    it with {!exec_prepared}.  Goes through the plan cache (so preparing
    an already-cached text is itself a hit). *)

val exec_prepared : t -> prepared -> Relation.t
(** Execute a prepared query.  If the handle is still valid this runs
    the compiled plan directly — no parse, bind, optimize or compile;
    if a knob changed or dependent DDL/DML ran, it transparently
    re-prepares first. *)

val prepared_sql : prepared -> string
val prepared_plan : prepared -> Plan.t
(** The normalized SQL text / currently-compiled optimized plan of a
    handle. *)

(** {1 Loading and running} *)

val load_tpch : ?seed:int -> t -> msf:float -> unit
(** Load the TPC-H style dataset (supplier/part/partsupp) at micro scale
    factor [msf] (1.0 = 100 suppliers / 2000 parts / 8000 partsupp). *)

val plan_of_sql : t -> string -> Plan.t
(** Parse and bind a query to its (unoptimized) logical plan. *)

val effective_plan : t -> string -> Plan.t
(** The plan that would actually run (optimized when enabled). *)

val run_plan : t -> Plan.t -> Relation.t

val analyze : t -> string -> Relation.t * string
(** Run a query under per-operator instrumentation (a fresh {!Obs} sink
    per call) and return the result relation together with the rendered
    EXPLAIN ANALYZE report: one line per operator with the cost model's
    estimated cardinality next to observed rows / invocations / groups /
    inclusive time / time-to-first-tuple.  [EXPLAIN ANALYZE <query>]
    through {!exec} returns the same report as an [Explanation].  Never
    served from the plan cache (the instrumented compilation is always
    fresh); once the engine's cache has seen any traffic the report
    gains a [== plan cache: ... ==] summary line. *)

type op_profile = {
  op_name : string;  (** operator label as in EXPLAIN ANALYZE *)
  est_rows : float;
      (** cost model's cardinality estimate, {e per invocation} —
          multiply by [obs_loops] before comparing with [obs_rows] on
          operators that run once per group or per outer row *)
  obs_rows : int;    (** rows actually produced, total across invocations *)
  obs_loops : int;   (** cursor invocations (1 for top-level operators) *)
}

val analyze_profile : t -> string -> Relation.t * op_profile list
(** Run a query instrumented and return per-operator estimated vs
    observed cardinalities in plan preorder — the structured form of
    {!analyze}'s report, for q-error gates that should not parse
    (possibly abbreviated) report text. *)

val stats_report : t -> string -> string
(** Per-column statistics of a table (NDV, nulls, min/max, histogram
    buckets) plus the cache staleness state ([fresh] / [stale v=N] /
    [none]) and the current {!Catalog.stats_epoch} — the CLI's
    [\stats <table>] meta-command.  Forces a fresh computation for the
    body after reporting staleness.
    @raise Errors.Name_error on unknown tables. *)

val exec : t -> string -> outcome
(** Execute one SQL statement (query, EXPLAIN, EXPLAIN ANALYZE,
    PREPARE / EXECUTE / DEALLOCATE, transaction control, or DDL/DML)
    on the engine's default session. *)

val exec_script : t -> string -> outcome list
(** Execute a ';'-separated script (on the default session, so a script
    can BEGIN ... COMMIT across its statements).  A statement that fails
    is a {!Failed} outcome, and the statements after it still run: that
    includes one that does not parse (its {!Errors.Parse_error}; parsing
    resumes after its [';']) and an EXPLAIN that does not bind. *)

(** {1 Sessions and transactions}

    [BEGIN] pins a snapshot: every read until [COMMIT] / [ROLLBACK]
    resolves against the database as of that commit timestamp
    (repeatable reads), plus the transaction's own staged writes
    (read-your-own-writes).  Staged INSERTs never touch shared tables;
    [COMMIT] applies them atomically under the commit lock after a
    first-committer-wins check — if any written table took a later
    commit, the transaction aborts with a typed
    {!Errors.Txn_conflict} (surfaced as {!Failed}) and the loser
    retries from a fresh [BEGIN].  [ROLLBACK] just drops the staged
    buffers.  The commit is logged to the WAL as one contiguous
    [Txn_begin / statements / Txn_commit] group with a single sync
    decision; recovery replays only committed groups, quarantining a
    transaction that was in flight at the crash.  DDL inside a
    transaction is rejected (the catalog is not versioned).  Snapshot
    readers never take the commit lock, so a long writer transaction
    cannot block concurrent readers. *)

val new_session : t -> session
(** A fresh session with no open transaction, no prepared handles, and
    no budget overlay. *)

val session : t -> session
(** The engine's default session (backing {!exec}); created lazily. *)

val session_db : session -> t
(** The engine a session belongs to. *)

val session_budget : session -> Governor.budget
(** The budget statements on this session run under: the session's
    [SET statement_*] overlay when present, the engine budget otherwise.
    On the default session the SQL knobs write the engine budget
    directly (the historical engine-global behavior), so the overlay
    only ever exists on explicitly created sessions — one network
    connection's SET never throttles its neighbors. *)

val exec_session : session -> string -> outcome
(** Like {!exec}, with transaction state, prepared-statement namespace
    and budget overlay on this session.  A statement starting with [SET]
    that fails to parse is reported as a typed [Type_error]
    ("malformed SET: ...") rather than a generic parse error, giving
    wire clients a stable error class for bad knob values. *)

val in_transaction : session -> bool

val close_session : session -> unit
(** Roll back the session's open transaction, if any (counted as rolled
    back) — for a connection that ends mid-transaction. *)

val txn_report : t -> string
(** One-line transaction summary with the current commit timestamp
    (the CLI's [\txn] meta-command). *)

val query : t -> string -> Relation.t
(** Like {!exec} but raises {!Errors.Plan_error} unless the statement is
    a query. *)
