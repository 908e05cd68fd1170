(* Public facade: a small embedded database engine with the paper's
   GApply operator, SQL syntax extension, and optimizer rules.

   Typical use:

     let db = Engine.create () in
     Engine.load_tpch db ~msf:1.0;
     match Engine.exec db "select gapply(...) ... group by k : g" with
     | Engine.Rows rel -> Format.printf "%a" Relation.pp rel
     | ...

   Queries go through a version-invalidated plan cache (Plan_cache):
   re-executing the same SQL text under the same knobs skips parse,
   bind, optimize and compile entirely, while any DDL/DML transparently
   evicts the dependent entries.  [prepare] / [exec_prepared] expose the
   same machinery as an explicit handle, and SQL-level
   PREPARE / EXECUTE / DEALLOCATE drive it from scripts. *)

type t = {
  catalog : Catalog.t;
  mutable partition : Compile.partition_strategy;
  mutable optimize : bool;
  mutable cbo : bool;  (* cost-based choices: gated rewrites, join order,
                          costed partition strategy *)
  mutable parallelism : int;
  cache : Plan_cache.t;
  mutable cache_enabled : bool;
  ddl_lock : Mutex.t;  (* serializes DDL/DML statement bodies — under
                          MVCC this is the commit lock: writers apply,
                          log and publish the commit timestamp under it,
                          while snapshot readers never take it *)
  mutable budget : Governor.budget;  (* per-statement resource budget *)
  mutable always_governed : bool;
      (* force a governor onto every statement even with an unlimited
         budget: the network server needs every in-flight statement to
         carry a cancellation token so a drain can abort it *)
  inflight : (int, Governor.t) Hashtbl.t;
      (* governors of currently executing statements, keyed by a
         registration id — the drain path walks this to flip every
         cancellation token *)
  inflight_mu : Mutex.t;
  inflight_seq : int Atomic.t;
  metrics : Metrics.registry;  (* every subsystem's counters and gauges *)
  gov_stats : Gov_stats.t;
  groups : Compile.gapply_groups;  (* GApply groups by loop / chain path *)
  wal_stats : Wal_stats.t;  (* registered even without a data directory *)
  store : Store.t option;  (* durability layer, when a data_dir is given *)
  recovery : Recovery.outcome option;  (* what opening the store found *)
  txn_stats : Txn_stats.t;
  txn_seq : int Atomic.t;  (* transaction ids, engine-wide *)
  mutable read_only : Errors.read_only_info option;
      (* writes refused with the typed [Errors.Read_only] when set: a
         replica names its primary here, and a disk-full degrade sets it
         with no primary.  Reads are never affected, and the replication
         applier bypasses the gate (it is the write path). *)
  mutable dsess : session option;  (* lazily-created default session
                                      backing the sessionless exec API *)
}

and prepared = { p_sql : string; mutable p_entry : Plan_cache.entry }

(* A session owns at most one open transaction, its own SQL-level
   prepared-statement namespace, and (optionally) its own resource
   budget — the per-connection state the network front end hands to
   each wire client.  Uncommitted writes never touch shared tables:
   they stage here (pre-encoded through the table's dictionary, so
   read-your-own-writes scans see the committed representation) and are
   appended at COMMIT under the commit lock.  ROLLBACK just drops the
   buffer — there is nothing to undo. *)
and session = {
  sdb : t;
  mutable txn : txn option;
  mutable sbudget : Governor.budget option;
      (* SET statement_* overlay; [None] inherits the engine budget *)
  sprepared : (string, prepared) Hashtbl.t;  (* SQL-level PREPARE names *)
}

and txn = {
  txn_id : int;
  snap_at : int;  (* commit timestamp pinned at BEGIN: every read in the
                     transaction resolves against it (repeatable reads) *)
  mutable writes : (string * staged_table) list;
      (* normalized table name -> staged rows, in first-write order *)
  mutable wstmts : string list;  (* canonical SQL of staged DML, reversed
                                    — the WAL group logged at COMMIT *)
}

and staged_table = {
  st_table : Table.t;  (* the table as resolved at staging time; COMMIT
                          re-checks it is still the live one *)
  mutable st_rows : Tuple.t list;  (* reversed *)
}

type outcome =
  | Rows of Relation.t
  | Message of string
  | Explanation of string
  | Failed of exn
      (* the statement failed with a typed engine error (budget violation,
         injected fault, unknown prepared handle, stale re-prepare...);
         the engine itself is untouched and siblings keep running *)

(* Dictionary totals over the catalog, summed when read. *)
let register_dict_gauges reg cat =
  let over_pools name help f =
    Metrics.derived reg ~help ("gapply_dict_" ^ name) (fun () ->
        List.fold_left (fun acc d -> acc + Dict.total f d) 0 (Catalog.dicts cat))
  in
  Metrics.derived reg ~help:"Dictionary-encoded tables." "gapply_dict_tables"
    (fun () -> List.length (Catalog.dicts cat));
  over_pools "shards" "Dictionary shard pools." (fun _ -> 1);
  over_pools "entries" "Distinct strings interned." Strpool.length;
  over_pools "bytes" "String payload bytes interned." Strpool.bytes;
  over_pools "encode_hits" "Inserted strings found already interned."
    (fun p -> (Strpool.counters p).Strpool.c_hits);
  over_pools "encode_misses" "Inserted strings that added an entry."
    (fun p -> (Strpool.counters p).Strpool.c_misses);
  over_pools "decodes" "Interned strings read back at the output boundary."
    (fun p -> (Strpool.counters p).Strpool.c_decodes)

let create ?(partition = Compile.Hash_partition) ?(optimize = true) ?cbo
    ?(parallelism = 1) ?plan_cache ?(cache_capacity = 128) ?timeout_ms
    ?row_limit ?mem_limit ?data_dir ?durability ?wal_group_commit
    ?checkpoint_wal_bytes () =
  (* re-read the fault/crash environment on every engine, not only at
     module init: chaos harnesses create many engines per process, each
     wanting a freshly armed countdown *)
  Fault.arm_from_env ();
  let cache_enabled = Option.value plan_cache ~default:true in
  let metrics = Metrics.registry () in
  let wal_stats = Wal_stats.create metrics in
  let store, recovery =
    match data_dir with
    | None -> (None, None)
    | Some dir ->
        let s, outcome =
          Store.open_dir ?durability ?group_commit:wal_group_commit
            ?checkpoint_bytes:checkpoint_wal_bytes ~stats:wal_stats dir
        in
        (Some s, Some outcome)
  in
  let catalog =
    match store with
    | Some s -> Store.catalog s  (* recovered from disk *)
    | None -> Catalog.create ()
  in
  register_dict_gauges metrics catalog;
  {
    catalog;
    partition;
    optimize;
    cbo = Option.value cbo ~default:true;
    parallelism;
    cache = Plan_cache.create ~capacity:cache_capacity metrics;
    cache_enabled;
    ddl_lock = Mutex.create ();
    budget =
      {
        Governor.timeout_ns = Option.map (fun ms -> ms * 1_000_000) timeout_ms;
        row_limit;
        mem_limit_bytes = mem_limit;
      };
    always_governed = false;
    inflight = Hashtbl.create 32;
    inflight_mu = Mutex.create ();
    inflight_seq = Atomic.make 0;
    metrics;
    gov_stats = Gov_stats.create metrics;
    groups = Compile.gapply_groups metrics;
    wal_stats;
    store;
    recovery;
    txn_stats = Txn_stats.create metrics;
    txn_seq = Atomic.make 1;
    read_only = None;
    dsess = None;
  }

let read_only db = db.read_only
let set_read_only db info = db.read_only <- info

let check_writable db =
  match db.read_only with
  | None -> ()
  | Some info -> raise (Errors.Read_only info)

let catalog db = db.catalog
let metrics db = db.metrics

(* A backslash report: the families under [prefix], one line. *)
let report db name prefix = name ^ ": " ^ Metrics.line db.metrics [ prefix ]

(* The same line as an EXPLAIN ANALYZE footer. *)
let footer db name prefix = Printf.sprintf "== %s ==\n" (report db name prefix)

let txn_report db =
  report db "txn" "gapply_txn_"
  ^ Printf.sprintf " ts=%d" (Catalog.current_ts db.catalog)

(* ---------- sessions ---------- *)

let new_session db =
  { sdb = db; txn = None; sbudget = None; sprepared = Hashtbl.create 4 }

let session_db sess = sess.sdb

(* The budget a statement on this session runs under: the session's SET
   statement_* overlay when one was set, the engine budget otherwise. *)
let session_budget sess =
  match sess.sbudget with Some b -> b | None -> sess.sdb.budget

(* SQL SET of a budget knob is engine-global on the default (CLI /
   embedded-API) session — the historical behavior — and a private
   overlay anywhere else, so one network connection's
   [SET statement_timeout_ms] never throttles its neighbors. *)
let is_default_session sess =
  match sess.sdb.dsess with Some s -> s == sess | None -> false

(* The sessionless API (exec / exec_script / query) runs on a lazily
   created default session, so BEGIN works there too. *)
let session db =
  match db.dsess with
  | Some s -> s
  | None ->
      let s = new_session db in
      db.dsess <- Some s;
      s

let in_transaction sess = sess.txn <> None

(* A session going away with a transaction open (a wire client that
   disconnected mid-transaction) rolls it back: staged writes never
   touched shared tables, so only the count needs closing. *)
let close_session sess =
  if sess.txn <> None then begin
    sess.txn <- None;
    Metrics.incr sess.sdb.txn_stats.rolled_back
  end

(* Visibility for a statement: inside a transaction, the snapshot pinned
   at BEGIN plus the transaction's own staged rows (read-your-own-writes);
   otherwise a fresh snapshot of latest-committed state. *)
let session_snapshot sess =
  match sess.txn with
  | Some tx ->
      Mvcc.with_staged ~at:tx.snap_at
        (List.map
           (fun (n, st) -> (n, Array.of_list (List.rev st.st_rows)))
           tx.writes)
  | None -> Catalog.snapshot sess.sdb.catalog

(* Snapshot for session-less entry points (run_plan, analyze, prepared
   handles driven through the public API). *)
let engine_snapshot db = Catalog.snapshot db.catalog

(* ---------- durability ---------- *)

let data_dir db = Option.map Store.dir db.store
let durability db = Option.map Store.durability db.store
let recovery_outcome db = db.recovery
let wal_stats db = Option.map (fun _ -> Wal_stats.snapshot db.wal_stats) db.store

let set_durability db d =
  match db.store with
  | None ->
      Errors.exec_errorf "durability requires a data directory (--data-dir)"
  | Some s -> Mutex.protect db.ddl_lock (fun () -> Store.set_durability s d)

(** Cut a snapshot and reset the WAL; returns the snapshot size.
    @raise Errors.Exec_error without a data directory. *)
let checkpoint db =
  match db.store with
  | None -> Errors.exec_errorf "no data directory: nothing to checkpoint"
  | Some s -> Mutex.protect db.ddl_lock (fun () -> Store.checkpoint s)

let flush_wal db = Option.iter Store.flush db.store
let close db = Option.iter Store.close db.store

let wal_report db =
  match db.store with
  | None -> "wal: no data directory"
  | Some s ->
      Printf.sprintf "%s mode=%s epoch=%d len=%s dir=%s%s"
        (report db "wal" "gapply_wal_")
        (Store.durability_to_string (Store.durability s))
        (Store.wal_epoch s)
        (Pretty.bytes (Store.wal_length s))
        (Store.dir s)
        (match db.recovery with
        | Some o when o.Recovery.snapshot_loaded || o.Recovery.replayed > 0
                      || o.Recovery.quarantined <> None ->
            "\n  " ^ Recovery.outcome_to_string o
        | _ -> "")

(* Log a committed statement (called with the ddl_lock held, so WAL
   order is apply order).  A crash injected at a WAL hook point escapes
   as [Fault.Crash] — deliberately not an engine error: the statement
   was applied in memory but never acknowledged, exactly the window a
   real crash hits. *)
(* ENOSPC surfaces here as the typed [Errors.Disk_full]: the statement
   fails, and the engine flips to read-only instead of crashing.  The
   in-memory apply already happened, so memory may run ahead of the
   durable log — exactly the already-handled crash window (applied but
   never acknowledged); a restart recovers the durable prefix. *)
let degrade_on_disk_full db f =
  try f ()
  with Errors.Disk_full _ as e ->
    db.read_only <-
      Some
        {
          Errors.primary = None;
          ro_detail = "WAL device out of space: engine degraded to read-only";
        };
    raise e

let log_committed db sql =
  match db.store with
  | None -> ()
  | Some s -> degrade_on_disk_full db (fun () -> Store.log_statement s sql)

(* ---------- replication ----------

   Primary side: the streaming sender reads positions and raw durable
   WAL bytes through here; everything position-related is taken under
   the commit (ddl) lock so an (epoch, offset) pair can never straddle
   a checkpoint's snapshot-then-reset sequence.

   Replica side: the applier replays shipped commit units through the
   same stamped MVCC path local commits use (reserve a timestamp, apply,
   log, publish under the commit lock), then logs the whole batch as one
   local transaction group ending in a [Wal.Repl_mark] — recovery
   replays complete groups only, so the applied data and the resume
   position are crash-atomic. *)

let repl_store db =
  match db.store with
  | None -> Errors.exec_errorf "replication requires a data directory"
  | Some s -> s

let watermark db = Catalog.current_ts db.catalog

(** Primary (epoch, durable offset) — the stream position a subscriber
    may be served up to. *)
let repl_position db =
  let s = repl_store db in
  Mutex.protect db.ddl_lock (fun () ->
      (Store.wal_epoch s, Store.wal_durable_length s))

(** Raw durable WAL bytes for the sender.  Held under the commit lock so
    the read can never race a checkpoint's truncation; batches are small
    (the sender's max-batch knob), so writers stall negligibly. *)
let repl_read_wal db ~pos ~len =
  let s = repl_store db in
  Mutex.protect db.ddl_lock (fun () -> Store.read_wal_bytes s ~pos ~len)

(** Consistent snapshot transfer: flush, then capture (epoch, offset,
    body) atomically with respect to commits — a bootstrapping replica
    installs the body and subscribes from exactly that position, so
    commits racing the transfer are neither lost nor double-applied. *)
let repl_snapshot db =
  let s = repl_store db in
  Mutex.protect db.ddl_lock (fun () ->
      Store.flush s;
      (Store.wal_epoch s, Store.wal_length s, Snapshot.encode_body db.catalog))

let set_on_durable db f =
  match db.store with None -> () | Some s -> Store.set_on_durable s f

let repl_recovered_position db =
  match db.recovery with
  | Some o -> o.Recovery.repl_position
  | None -> None

let repl_recovered_diverged db =
  match db.recovery with
  | Some o -> o.Recovery.repl_diverged
  | None -> false

let strip_markers =
  List.filter (function
    | Wal.Txn_begin _ | Wal.Txn_commit _ | Wal.Repl_mark _ -> false
    | Wal.Stmt _ | Wal.Load_tpch _ -> true)

(** Apply one batch of complete replication units (each the records of
    one primary commit unit: a bare statement, a bulk load, or a whole
    transaction group) and advance the replicated watermark to [mark].
    Each unit gets its own reserved-then-published commit timestamp, so
    replica readers see exactly a committed prefix of the primary's
    history — never a partially applied unit.  Bypasses the read-only
    gate: this {e is} the replica's write path. *)
let apply_replicated db units ~mark =
  let id = Atomic.fetch_and_add db.txn_seq 1 in
  Mutex.protect db.ddl_lock (fun () ->
      List.iter
        (fun unit_records ->
          let ts = Catalog.next_commit_ts db.catalog in
          List.iter
            (fun r ->
              match r with
              | Wal.Stmt sql -> (
                  match Sql_parser.parse_statement sql with
                  | Sql_ast.Stmt_insert (name, rows) ->
                      let table, bound =
                        Sql_binder.bind_insert_rows db.catalog name rows
                      in
                      Table.insert_all ~ts table bound
                  | stmt -> ignore (Sql_binder.bind_statement db.catalog stmt))
              | Wal.Load_tpch { seed; msf } ->
                  ignore (Tpch_gen.load ?seed ~ts db.catalog ~msf)
              | Wal.Txn_begin _ | Wal.Txn_commit _ | Wal.Repl_mark _ -> ())
            unit_records;
          Catalog.publish_commit_ts db.catalog ts)
        units;
      (* one local group for the whole batch: primary-side unit
         boundaries collapse into it (batch atomicity subsumes unit
         atomicity), and the trailing mark records how far catch-up
         durably reached *)
      Store.log_repl_group (repl_store db) ~id ~mark
        (List.concat_map strip_markers units));
  ignore (Plan_cache.invalidate_stale db.cache db.catalog)

(** Persist a bare position mark (bootstrap, or right after a replica
    checkpoint erased the previous marks with the WAL reset). *)
let repl_log_mark db ~mark =
  let id = Atomic.fetch_and_add db.txn_seq 1 in
  Mutex.protect db.ddl_lock (fun () ->
      Store.log_repl_group (repl_store db) ~id ~mark [])

(** Install a transferred primary snapshot: adopt the decoded catalog,
    then persist it via a local checkpoint plus a fresh mark so a
    restart resumes from the same primary position instead of
    re-transferring. *)
let install_replica_snapshot db ~mark body =
  let incoming = Snapshot.decode_body body in
  let id = Atomic.fetch_and_add db.txn_seq 1 in
  Mutex.protect db.ddl_lock (fun () ->
      Catalog.adopt db.catalog ~from:incoming;
      let s = repl_store db in
      ignore (Store.checkpoint s);
      Store.log_repl_group s ~id ~mark []);
  ignore (Plan_cache.invalidate_stale db.cache db.catalog)

(* Knob setters need no cache action: the knobs are part of the cache
   key, so flipping one key-splits — the old entries stay behind for
   when the knob flips back, and can never be served under the new
   setting (regression-tested in test_plan_cache.ml). *)
let set_partition_strategy db p = db.partition <- p
let set_optimize db b = db.optimize <- b
let set_cbo db b = db.cbo <- b
let cbo_enabled db = db.cbo
let set_parallelism db n = db.parallelism <- n

let plan_cache db = db.cache
let plan_cache_enabled db = db.cache_enabled
let set_plan_cache_enabled db b = db.cache_enabled <- b

(* Budget knobs are runtime state, not compile knobs: they are *not*
   part of the plan-cache key, because the same compiled plan is valid
   under any budget — the governor rides in the environment. *)
let budget db = db.budget

let set_timeout_ms db ms =
  db.budget <-
    {
      db.budget with
      Governor.timeout_ns = Option.map (fun m -> m * 1_000_000) ms;
    }

let set_row_limit db n = db.budget <- { db.budget with Governor.row_limit = n }

let set_mem_limit db bytes =
  db.budget <- { db.budget with Governor.mem_limit_bytes = bytes }

let dict_report db =
  report db "dict" "gapply_dict_"
  ^ if Dict.enabled () then "" else " (encoding disabled)"

let governor_report db =
  report db "governor" "gapply_governor_"
  ^ (match Fault.current () with
    | Some p -> Printf.sprintf " fault=%s" (Fault.plan_to_string p)
    | None -> "")

(* A statement runs governed when any budget is set — or when a fault
   plan is armed (the fault sites live inside the governor's wrappers),
   or when the engine is in always-governed mode (the network server
   needs a cancellation token on every statement so a drain can abort
   in-flight work). *)
let governor_for ?budget db =
  let budget = match budget with Some b -> b | None -> db.budget in
  if
    Governor.is_unlimited budget
    && not (Fault.armed ())
    && not db.always_governed
  then None
  else Some (Governor.start budget)

(* In-flight statement registry: every governed statement parks its
   governor here for its whole execution, so [cancel_inflight] can flip
   the cancellation token of everything currently running (the graceful
   drain path).  Registration is two mutex ops per governed statement —
   ungoverned statements skip it entirely. *)
let register_inflight db gov =
  let id = Atomic.fetch_and_add db.inflight_seq 1 in
  Mutex.protect db.inflight_mu (fun () -> Hashtbl.replace db.inflight id gov);
  id

let unregister_inflight db id =
  Mutex.protect db.inflight_mu (fun () -> Hashtbl.remove db.inflight id)

let inflight_count db =
  Mutex.protect db.inflight_mu (fun () -> Hashtbl.length db.inflight)

(** Flip the cancellation token of every in-flight governed statement;
    returns how many were cancelled.  Each aborts with a typed
    [Cancelled] resource error at its next cursor pull, on whichever
    domain it runs. *)
let cancel_inflight db =
  let govs =
    Mutex.protect db.inflight_mu (fun () ->
        Hashtbl.fold (fun _ g acc -> g :: acc) db.inflight [])
  in
  List.iter Governor.cancel govs;
  List.length govs

let set_always_governed db b = db.always_governed <- b
let always_governed db = db.always_governed

(* One governed attempt: create the statement's governor, register it
   in-flight, run, record any violation in the engine's counters, and
   keep the peak-accounted gauge fresh either way. *)
let governed_attempt : 'a. ?budget:Governor.budget -> t ->
    (Governor.t option -> 'a) -> 'a =
 fun ?budget db run ->
  match governor_for ?budget db with
  | None -> run None
  | Some gov -> (
      let id = register_inflight db gov in
      let note () =
        unregister_inflight db id;
        Metrics.raise_to db.gov_stats.peak_bytes (Governor.mem_bytes gov)
      in
      try
        let r = run (Some gov) in
        note ();
        r
      with
      | Errors.Resource_error v as e ->
          note ();
          Gov_stats.record db.gov_stats v.Errors.kind;
          raise e
      | e ->
          unregister_inflight db id;
          raise e)

(** Load the TPC-H style dataset (supplier/part/partsupp) at micro scale
    factor [msf] (1.0 = 100 suppliers / 2000 parts / 8000 partsupp). *)
let load_tpch ?seed db ~msf =
  check_writable db;
  Mutex.protect db.ddl_lock (fun () ->
      (* the bulk load is a commit like any other: its rows are stamped
         with a reserved timestamp that is published only after the load
         (and its WAL record) completed, so snapshots pinned before the
         load never see a partially generated dataset *)
      let ts = Catalog.next_commit_ts db.catalog in
      ignore (Tpch_gen.load ?seed ~ts db.catalog ~msf);
      (* the generator is deterministic in (seed, msf), so logging the
         parameters is a complete redo record *)
      (match db.store with
      | None -> ()
      | Some s ->
          degrade_on_disk_full db (fun () -> Store.log_load_tpch s ~seed ~msf));
      Catalog.publish_commit_ts db.catalog ts);
  ignore (Plan_cache.invalidate_stale db.cache db.catalog)

let config ?observe db =
  Compile.config_with ~partition:db.partition ~parallelism:db.parallelism
    ?observe ~groups:db.groups ()

(** Parse a SQL query string into an (unoptimized) logical plan. *)
let plan_of_sql db src =
  match Sql_binder.bind_statement db.catalog (Sql_parser.parse_statement src)
  with
  | Sql_binder.Bound_query p
  | Sql_binder.Bound_explain p
  | Sql_binder.Bound_explain_analyze p ->
      p
  | Sql_binder.Bound_ddl _ | Sql_binder.Bound_prepare _
  | Sql_binder.Bound_execute _ | Sql_binder.Bound_deallocate _
  | Sql_binder.Bound_set _ ->
      Errors.plan_errorf "expected a query, got a DDL statement"

(** The plan that would actually run (optimized if enabled). *)
let effective_plan db src =
  let plan = plan_of_sql db src in
  if db.optimize then
    (Optimizer.optimize ~cbo:db.cbo db.catalog plan).Optimizer.plan
  else plan

(** Run a logical plan directly (against a fresh snapshot of
    latest-committed state). *)
let run_plan db plan =
  Executor.run ~config:(config db) ~snapshot:(engine_snapshot db) db.catalog
    plan

(* ---------- plan cache ---------- *)

let normalize_sql src =
  let s = String.trim src in
  let n = String.length s in
  if n > 0 && s.[n - 1] = ';' then String.trim (String.sub s 0 (n - 1)) else s

let cache_key db sql =
  {
    Plan_cache.sql;
    partition = db.partition;
    optimize = db.optimize;
    cbo = db.cbo;
    stats_epoch = Catalog.stats_epoch db.catalog;
    parallelism = db.parallelism;
  }

(* Costed partition-strategy choice: when cost-based optimization is on
   and the session asks for the default hash partitioning, compare the
   whole-plan estimates under both strategies and downgrade to sort when
   it prices lower (near-unique grouping keys: a hash table with one
   entry per row costs more than sorting).  An explicit sort setting —
   including the graceful-degradation retry key — is honored as-is.
   Returns the strategy and, when costed, both estimates (for EXPLAIN). *)
let choose_partition db ~cbo partition plan =
  if cbo && partition = Compile.Hash_partition then
    let sort_c, hash_c = Cost.partition_costs db.catalog plan in
    ( (if sort_c < hash_c then Compile.Sort_partition else Compile.Hash_partition),
      Some (sort_c, hash_c) )
  else (partition, None)

(* The compile configuration is derived from the cache key (not from
   the engine's current knobs): the graceful-degradation retry prepares
   entries under a key whose knobs differ from the engine's. *)
let config_of_key ?partition db (key : Plan_cache.key) =
  Compile.config_with
    ~partition:
      (match partition with Some p -> p | None -> key.Plan_cache.partition)
    ~parallelism:key.Plan_cache.parallelism ~groups:db.groups ()

(* Cold path: parse + bind + optimize + compile, timed, fingerprinted
   against the catalog as of just before the parse (a concurrent DDL
   mid-prepare then simply leaves the entry already-stale). *)
let prepare_entry db (key : Plan_cache.key) =
  let generation = Catalog.generation db.catalog in
  let t0 = Metrics.now_ns () in
  let plan = plan_of_sql db key.Plan_cache.sql in
  let plan =
    if key.Plan_cache.optimize then
      (Optimizer.optimize ~cbo:key.Plan_cache.cbo db.catalog plan)
        .Optimizer.plan
    else plan
  in
  let partition, _ =
    choose_partition db ~cbo:key.Plan_cache.cbo key.Plan_cache.partition plan
  in
  let compiled = Compile.plan ~config:(config_of_key ~partition db key) plan in
  let prepare_ns = Metrics.now_ns () - t0 in
  if db.cache_enabled then
    Metrics.add (Plan_cache.stats db.cache).prepare_ns prepare_ns;
  (* the prepare itself may have computed statistics for the first time
     (bumping the epoch mid-prepare); store the entry under the epoch it
     actually consulted, so the very next lookup — which reads the live
     epoch — warm-hits instead of paying a second cold prepare *)
  let key =
    { key with Plan_cache.stats_epoch = Catalog.stats_epoch db.catalog }
  in
  {
    Plan_cache.key;
    plan;
    compiled;
    generation;
    deps = Plan_cache.snapshot_deps db.catalog plan;
    prepare_ns;
    last_used = 0;
  }

let lookup_or_prepare_key db (key : Plan_cache.key) =
  if not db.cache_enabled then prepare_entry db key
  else
    match Plan_cache.find db.cache db.catalog key with
    | Some e -> e
    | None ->
        Plan_cache.record_miss db.cache;
        let e = prepare_entry db key in
        Plan_cache.add db.cache e;
        e

let lookup_or_prepare db sql = lookup_or_prepare_key db (cache_key db sql)

(* ---------- governed execution + graceful degradation ---------- *)

(* The memory ceiling almost always trips in a materialization phase
   whose footprint depends on the partitioning strategy: hash
   partitioning buffers a table slot + bucket cell + key copy per row
   (plus a merge pass when parallel), sort partitioning only the merge
   buffer and group lists.  So when a hash-partitioned (or parallel) statement trips
   the ceiling, one retry under {sort partitioning, parallelism 1} —
   with a fresh governor and the same budget — frequently completes.
   The downgrade is counted in [gapply_governor_downgrades_total] and keyed into the plan
   cache under its own knobs, so repeated degraded runs warm-hit. *)

let downgraded_key (key : Plan_cache.key) =
  { key with Plan_cache.partition = Compile.Sort_partition; parallelism = 1 }

let can_downgrade (key : Plan_cache.key) = downgraded_key key <> key

let is_mem_trip = function
  | Errors.Resource_error { Errors.kind = Errors.Memory_exceeded; _ } -> true
  | _ -> false

(* Run one cached entry under the governor; on a memory-ceiling trip
   with room to degrade, retry once via the downgraded cache key.
   Compiled plans are snapshot-agnostic (visibility resolves per-run
   from the environment), so the same cache entry serves every session
   and transaction — the snapshot rides alongside. *)
let run_entry_governed ~snapshot ?budget db (e : Plan_cache.entry) :
    Relation.t =
  try
    governed_attempt ?budget db (fun gov ->
        Executor.run_compiled ?governor:gov ~snapshot db.catalog
          e.Plan_cache.compiled)
  with ex when is_mem_trip ex && can_downgrade e.Plan_cache.key ->
    Metrics.incr db.gov_stats.downgrades;
    governed_attempt ?budget db (fun gov ->
        let d = lookup_or_prepare_key db (downgraded_key e.Plan_cache.key) in
        Executor.run_compiled ?governor:gov ~snapshot db.catalog
          d.Plan_cache.compiled)

let cached_plan db src =
  match Plan_cache.peek db.cache (cache_key db (normalize_sql src)) with
  | Some e -> Some e.Plan_cache.plan
  | None -> None

let cache_report db =
  report db "plan cache" "gapply_plan_cache_"
  ^ if db.cache_enabled then "" else " (disabled)"

(* ---------- prepared statements ---------- *)

let prepare db src =
  let sql = normalize_sql src in
  { p_sql = sql; p_entry = lookup_or_prepare db sql }

let prepared_sql h = h.p_sql
let prepared_plan h = h.p_entry.Plan_cache.plan

(** Warm path of a handle: if its entry still matches the current knobs
    and catalog versions, run it directly (counted as a hit); otherwise
    transparently re-prepare (via the cache, so a handle re-validating
    after unrelated knob flips can still hit an older entry). *)
let exec_prepared_snap ~snapshot ?budget db h =
  let e = h.p_entry in
  if
    e.Plan_cache.key = cache_key db h.p_sql
    && Plan_cache.is_valid db.catalog e
  then begin
    if db.cache_enabled then Plan_cache.note_hit db.cache e;
    run_entry_governed ~snapshot ?budget db e
  end
  else begin
    let e = lookup_or_prepare db h.p_sql in
    h.p_entry <- e;
    run_entry_governed ~snapshot ?budget db e
  end

let exec_prepared db h = exec_prepared_snap ~snapshot:(engine_snapshot db) db h

(* ---------- EXPLAIN ANALYZE ---------- *)

(* Both sides are preorder walks of the same (optimized) plan with
   children in Plan.children order: the metric tree because Compile
   registers one Obs node per operator as it recurses, the estimate list
   by construction of Cost.estimate_tree.  So the report is a positional
   zip of the two. *)
let analyze_report cat plan sink rel =
  let stats = match Obs.snapshot sink with
    | Some s -> Obs.flatten s
    | None -> []
  in
  let ests = Cost.estimate_tree cat plan in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "== explain analyze ==\n";
  let rec zip stats ests =
    match (stats, ests) with
    | [], _ | _, [] -> ()
    | (depth, (s : Obs.stat)) :: stats', (_, (e : Cost.estimate)) :: ests' ->
        Buffer.add_string buf
          (Printf.sprintf
             "%s%s  (est rows=%s) (rows=%d loops=%d%s%s time=%s first=%s)\n"
             (String.make (2 * depth) ' ')
             s.op (Pretty.card e.card) s.rows s.invocations
             (if s.partitions > 0 then
                Printf.sprintf " groups=%d" s.partitions
              else "")
             (if s.batches > 0 then
                Printf.sprintf " batches=%d" s.batches
              else "")
             (Pretty.duration_ns s.time_ns)
             (Pretty.duration_ns s.ttft_ns));
        zip stats' ests'
  in
  zip stats ests;
  (match ests with
  | (_, (e : Cost.estimate)) :: _ ->
      Buffer.add_string buf
        (Printf.sprintf "== actual rows: %d  estimated: %s ==\n"
           (Relation.cardinality rel) (Pretty.card e.card))
  | [] -> ());
  Buffer.contents buf

(* Optimize, compile under a fresh sink, run to completion, render.
   Never served from the cache: the Obs sink observes exactly one
   compilation, so the plan is always compiled fresh here.  When the
   engine's cache has seen traffic, a summary line is appended (kept
   silent on untouched engines so plain EXPLAIN ANALYZE output is
   stable). *)
let analyze_plan ~snapshot db plan =
  let plan =
    if db.optimize then
      (Optimizer.optimize ~cbo:db.cbo db.catalog plan).Optimizer.plan
    else plan
  in
  let chosen_partition, _ = choose_partition db ~cbo:db.cbo db.partition plan in
  let attempt ~partition ~parallelism =
    let sink = Obs.make () in
    let cfg =
      Compile.config_with ~partition ~parallelism ~observe:sink
        ~groups:db.groups ()
    in
    governed_attempt db (fun gov ->
        let rel =
          Executor.run ~config:cfg ?governor:gov ~snapshot db.catalog plan
        in
        (rel, sink))
  in
  (* EXPLAIN ANALYZE follows the same graceful degradation as plain
     execution, and records it in the report — the observable trace the
     acceptance test reads. *)
  let rel, sink, degraded =
    try
      let rel, sink =
        attempt ~partition:chosen_partition ~parallelism:db.parallelism
      in
      (rel, sink, false)
    with ex
    when is_mem_trip ex
         && not
              (chosen_partition = Compile.Sort_partition
              && db.parallelism = 1)
    ->
      Metrics.incr db.gov_stats.downgrades;
      let rel, sink = attempt ~partition:Compile.Sort_partition ~parallelism:1 in
      (rel, sink, true)
  in
  let report = analyze_report db.catalog plan sink rel in
  let report =
    if degraded then
      report
      ^ "== degraded: memory ceiling tripped under hash partitioning; \
         re-ran with sort partitioning, parallelism=1 ==\n"
    else report
  in
  (* subsystem footers, each only once its subsystem has seen traffic,
     so untouched engines keep the historical output byte-for-byte:
     plan-cache lookups, WAL traffic, a dictionary-encoded table (none
     without string columns or with encoding disabled), a transaction *)
  let c = Plan_cache.stats db.cache in
  let footers =
    [
      ( Metrics.(get c.hits + get c.misses + get c.evictions + get c.invalidations) > 0,
        ("plan cache", "gapply_plan_cache_") );
      (Wal_stats.active db.wal_stats, ("wal", "gapply_wal_"));
      (Catalog.dicts db.catalog <> [], ("dict", "gapply_dict_"));
      (Metrics.get db.txn_stats.begun > 0, ("txn", "gapply_txn_"));
    ]
  in
  ( rel,
    List.fold_left
      (fun acc (on, (name, prefix)) -> if on then acc ^ footer db name prefix else acc)
      report footers )

(** Run a query under per-operator instrumentation: the result relation
    plus the rendered EXPLAIN ANALYZE report. *)
let analyze db src =
  match Sql_binder.bind_statement db.catalog (Sql_parser.parse_statement src)
  with
  | Sql_binder.Bound_query plan
  | Sql_binder.Bound_explain plan
  | Sql_binder.Bound_explain_analyze plan ->
      analyze_plan ~snapshot:(engine_snapshot db) db plan
  | Sql_binder.Bound_ddl _ | Sql_binder.Bound_prepare _
  | Sql_binder.Bound_execute _ | Sql_binder.Bound_deallocate _
  | Sql_binder.Bound_set _ ->
      Errors.plan_errorf "expected a query, got a DDL statement"

(* ---------- estimation-quality profile ---------- *)

type op_profile = {
  op_name : string;
  est_rows : float;  (* per invocation — scale by [obs_loops] to compare *)
  obs_rows : int;    (* total across invocations *)
  obs_loops : int;
}

(** Run a query instrumented and return, per operator in preorder, the
    estimated and observed cardinalities — the structured form of the
    EXPLAIN ANALYZE report, for q-error gates that should not parse
    (possibly abbreviated) report text. *)
let analyze_profile db src =
  let plan = effective_plan db src in
  let sink = Obs.make () in
  let cfg = config ~observe:sink db in
  let rel =
    governed_attempt db (fun gov ->
        Executor.run ~config:cfg ?governor:gov
          ~snapshot:(engine_snapshot db) db.catalog plan)
  in
  let stats =
    match Obs.snapshot sink with Some s -> Obs.flatten s | None -> []
  in
  let ests = Cost.estimate_tree db.catalog plan in
  (* both sides are preorder walks of the same plan (see analyze_report) *)
  let rec zip stats ests =
    match (stats, ests) with
    | [], _ | _, [] -> []
    | (_, (s : Obs.stat)) :: stats', (_, (e : Cost.estimate)) :: ests' ->
        {
          op_name = s.Obs.op;
          est_rows = e.Cost.card;
          obs_rows = s.Obs.rows;
          obs_loops = s.Obs.invocations;
        }
        :: zip stats' ests'
  in
  (rel, zip stats ests)

(* ---------- statistics introspection ---------- *)

(** Human-readable per-column statistics of a table, with the cache's
    staleness state: [fresh] (stamp matches the live version), [stale
    v=N] (cached under an older version; a recompute is pending the next
    cost-based prepare), or [none] (never computed).  Reads the cache
    without forcing a recompute, then shows fresh statistics alongside.
    Drives the CLI's [\stats] command. *)
let stats_report db name =
  let table = Catalog.find_table db.catalog name in
  let live_version = Table.version table in
  let staleness =
    match Catalog.peek_stats db.catalog name with
    | Some s when s.Stats.built_version = live_version -> "fresh"
    | Some s -> Printf.sprintf "stale v=%d" s.Stats.built_version
    | None -> "none"
  in
  Format.asprintf "stats(%s): %s epoch=%d@\n%a" (Table.name table) staleness
    (Catalog.stats_epoch db.catalog)
    Stats.pp
    (Catalog.stats_of db.catalog name)

(* ---------- statement execution ---------- *)

let render_explain db plan =
  let opt = Optimizer.optimize ~cbo:db.cbo db.catalog plan in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "== unoptimized ==\n";
  Buffer.add_string buf (Plan.to_string plan);
  Buffer.add_string buf "== optimized ==\n";
  Buffer.add_string buf (Plan.to_string opt.Optimizer.plan);
  (match opt.Optimizer.trace with
  | [] -> Buffer.add_string buf "== no rules fired ==\n"
  | trace ->
      Buffer.add_string buf "== rules fired ==\n";
      Buffer.add_string buf (Optimizer.trace_to_string trace);
      Buffer.add_char buf '\n');
  Buffer.add_string buf
    (Printf.sprintf "== estimated cost: %.0f ==\n"
       (Cost.plan_cost db.catalog opt.Optimizer.plan));
  (* the costed partition choice, when it is actually in play (cbo on
     and the session on the default hash setting) — the observable the
     plan-choice tests read *)
  (match choose_partition db ~cbo:db.cbo db.partition opt.Optimizer.plan with
  | p, Some (sort_c, hash_c) ->
      Buffer.add_string buf
        (Printf.sprintf "== partition: %s (sort=%.0f hash=%.0f) ==\n"
           (if p = Compile.Sort_partition then "sort" else "hash")
           sort_c hash_c)
  | _, None -> ());
  Buffer.contents buf

let prepared_name name = String.lowercase_ascii name

(* SQL-level session knobs (SET <knob> = <int> | <ident> | DEFAULT).
   The knob namespace mirrors the engine API; an unknown knob or a
   value of the wrong shape is a typed error that fails the statement
   without touching the engine.

   Resource knobs take an int; DEFAULT and OFF both reset to unlimited
   (OFF is the historical spelling).  durability takes a mode name,
   wal_group_commit an int, checkpoint_wal_bytes an int or OFF. *)
let apply_set sess name (v : Sql_ast.set_value) : outcome =
  let db = sess.sdb in
  (* budget knobs: engine-global on the default session (historical
     behavior), a session overlay anywhere else *)
  let budget_knob update =
    if is_default_session sess then fun v -> db.budget <- update db.budget v
    else fun v -> sess.sbudget <- Some (update (session_budget sess) v)
  in
  let bad_value what =
    Failed
      (Errors.Type_error
         (Printf.sprintf "SET %s expects %s" name what))
  in
  let int_knob setter =
    match v with
    | Sql_ast.Set_int n ->
        setter (Some n);
        Message (Printf.sprintf "%s = %d" name n)
    | Sql_ast.Set_default | Sql_ast.Set_ident "off" ->
        setter None;
        Message (Printf.sprintf "%s = default" name)
    | Sql_ast.Set_ident _ -> bad_value "an integer, DEFAULT, or OFF"
  in
  let with_store f =
    match db.store with
    | None ->
        Failed
          (Errors.Exec_error
             (Printf.sprintf
                "SET %s requires a data directory (--data-dir)" name))
    | Some s -> f s
  in
  match name with
  | "cbo" -> (
      match v with
      | Sql_ast.Set_ident ("on" | "true") | Sql_ast.Set_default ->
          set_cbo db true;
          Message "cbo = on"
      | Sql_ast.Set_ident ("off" | "false") ->
          set_cbo db false;
          Message "cbo = off"
      | _ -> bad_value "ON, OFF, or DEFAULT")
  | "statement_timeout_ms" ->
      int_knob
        (budget_knob (fun b ms ->
             {
               b with
               Governor.timeout_ns = Option.map (fun m -> m * 1_000_000) ms;
             }))
  | "statement_row_limit" ->
      int_knob (budget_knob (fun b n -> { b with Governor.row_limit = n }))
  | "statement_mem_limit" ->
      int_knob
        (budget_knob (fun b n -> { b with Governor.mem_limit_bytes = n }))
  | "durability" ->
      with_store (fun s ->
          let mode =
            match v with
            | Sql_ast.Set_default -> Some Store.Strict
            | Sql_ast.Set_ident m -> Store.durability_of_string m
            | Sql_ast.Set_int _ -> None
          in
          match mode with
          | Some m ->
              Mutex.protect db.ddl_lock (fun () -> Store.set_durability s m);
              Message
                (Printf.sprintf "durability = %s"
                   (Store.durability_to_string m))
          | None -> bad_value "off, lazy, strict, or DEFAULT")
  | "wal_group_commit" ->
      with_store (fun s ->
          match v with
          | Sql_ast.Set_int n when n >= 1 ->
              Store.set_group_commit s n;
              Message (Printf.sprintf "wal_group_commit = %d" n)
          | Sql_ast.Set_default ->
              Store.set_group_commit s Store.default_group_commit;
              Message
                (Printf.sprintf "wal_group_commit = %d"
                   Store.default_group_commit)
          | _ -> bad_value "a positive integer or DEFAULT")
  | "checkpoint_wal_bytes" ->
      with_store (fun s ->
          match v with
          | Sql_ast.Set_int n when n >= 0 ->
              Store.set_checkpoint_bytes s n;
              Message (Printf.sprintf "checkpoint_wal_bytes = %d" n)
          | Sql_ast.Set_ident "off" ->
              Store.set_checkpoint_bytes s 0;
              Message "checkpoint_wal_bytes = off"
          | Sql_ast.Set_default ->
              Store.set_checkpoint_bytes s Store.default_checkpoint_bytes;
              Message
                (Printf.sprintf "checkpoint_wal_bytes = %d"
                   Store.default_checkpoint_bytes)
          | _ -> bad_value "a non-negative integer, OFF, or DEFAULT")
  | _ -> Failed (Errors.Name_error (Printf.sprintf "unknown SET knob %s" name))

(* ---------- transactions ---------- *)

(* Stage an INSERT inside an open transaction: bind and validate now
   (all-or-nothing, so a bad row strands nothing), encode through the
   table's dictionary now (read-your-own-writes scans then see the same
   representation committed rows have), and buffer.  Shared state is
   untouched until COMMIT. *)
let stage_insert db tx name rows stmt =
  check_writable db;
  let table, bound = Sql_binder.bind_insert_rows db.catalog name rows in
  let encoded = List.map (Table.encode_row table) bound in
  let key = String.lowercase_ascii (Table.name table) in
  let st =
    match List.assoc_opt key tx.writes with
    | Some st when st.st_table == table -> st
    | Some st ->
        (* the table was dropped and recreated mid-transaction: COMMIT
           would fail the conflict check anyway, so refuse at staging
           time with the better error *)
        ignore st;
        Errors.txn_conflictf ~txn_id:tx.txn_id ~conflict_table:key
          "table %s was recreated after transaction %d began" key tx.txn_id
    | None ->
        let st = { st_table = table; st_rows = [] } in
        tx.writes <- tx.writes @ [ (key, st) ];
        st
  in
  st.st_rows <- List.rev_append encoded st.st_rows;
  tx.wstmts <- Sql_ast.statement_to_string stmt :: tx.wstmts;
  Metrics.incr db.txn_stats.staged;
  Printf.sprintf "staged %d row(s) into %s (txn %d)" (List.length encoded)
    (Table.name table) tx.txn_id

(* COMMIT: first-committer-wins at table granularity, then apply, log
   and publish — all under the commit (ddl) lock, so commit timestamps
   are handed out in publish order and a multi-table commit becomes
   visible atomically (the clock moves only after every table has its
   rows in).  Readers never take this lock. *)
let commit_txn db tx =
  check_writable db;
  Mutex.protect db.ddl_lock (fun () ->
      List.iter
        (fun (name, st) ->
          match Catalog.find_table_opt db.catalog name with
          | None ->
              Errors.txn_conflictf ~txn_id:tx.txn_id ~conflict_table:name
                "table %s was dropped after transaction %d began" name
                tx.txn_id
          | Some live when not (live == st.st_table) ->
              Errors.txn_conflictf ~txn_id:tx.txn_id ~conflict_table:name
                "table %s was recreated after transaction %d began" name
                tx.txn_id
          | Some live ->
              if Table.last_commit_ts live > tx.snap_at then
                Errors.txn_conflictf ~txn_id:tx.txn_id ~conflict_table:name
                  "table %s was modified by a later commit (ts %d > snapshot \
                   %d)"
                  name (Table.last_commit_ts live) tx.snap_at)
        tx.writes;
      let ts = Catalog.next_commit_ts db.catalog in
      List.iter
        (fun (_, st) -> Table.insert_all ~ts st.st_table (List.rev st.st_rows))
        tx.writes;
      (* the WAL group is one contiguous begin/stmts/commit record run
         with a single sync decision; a crash before the commit marker
         reaches disk makes recovery quarantine the whole group *)
      (match db.store with
      | None -> ()
      | Some s ->
          degrade_on_disk_full db (fun () ->
              Store.log_txn s ~id:tx.txn_id (List.rev tx.wstmts)));
      Catalog.publish_commit_ts db.catalog ts)

(* A query's engine errors — binding or optimizing it (unknown column,
   type error), a re-prepare on the downgrade retry, or a budget
   violation — fail the statement, not the session or the script. *)
let run_select sess (entry : unit -> Plan_cache.entry) : outcome =
  try
    Rows
      (run_entry_governed
         ~snapshot:(session_snapshot sess)
         ~budget:(session_budget sess) sess.sdb (entry ()))
  with ex when Errors.is_engine_error ex -> Failed ex

(* Execute one parsed statement on a session; [sql] is the normalized
   source text used as the cache key for plain queries. *)
let exec_stmt sess ~sql (stmt : Sql_ast.statement) : outcome =
  let db = sess.sdb in
  match stmt with
  | Sql_ast.Stmt_select _ ->
      run_select sess (fun () -> lookup_or_prepare db sql)
  | Sql_ast.Stmt_prepare (name, q) -> (
      (* prepared-statement misuse (unknown table, bad binding...) fails
         the statement, not the session.  Handles are session state: a
         connection's PREPARE is invisible to its neighbors and dies
         with the connection. *)
      try
        let h = prepare db (Sql_ast.query_to_string q) in
        Hashtbl.replace sess.sprepared (prepared_name name) h;
        Message (Printf.sprintf "prepared %s" name)
      with ex when Errors.is_engine_error ex -> Failed ex)
  | Sql_ast.Stmt_execute name -> (
      match Hashtbl.find_opt sess.sprepared (prepared_name name) with
      | Some h -> (
          (* a re-prepare over dropped tables, or a budget violation of
             the execution itself, fails cleanly *)
          try
            Rows
              (exec_prepared_snap
                 ~snapshot:(session_snapshot sess)
                 ~budget:(session_budget sess) db h)
          with ex when Errors.is_engine_error ex -> Failed ex)
      | None ->
          Failed
            (Errors.Name_error
               (Printf.sprintf "unknown prepared statement %s" name)))
  | Sql_ast.Stmt_deallocate name ->
      if not (Hashtbl.mem sess.sprepared (prepared_name name)) then
        Failed
          (Errors.Name_error
             (Printf.sprintf "unknown prepared statement %s" name))
      else begin
        Hashtbl.remove sess.sprepared (prepared_name name);
        Message (Printf.sprintf "deallocated %s" name)
      end
  | Sql_ast.Stmt_set (name, v) -> apply_set sess name v
  | Sql_ast.Stmt_explain q ->
      Explanation (render_explain db (Sql_binder.bind_query db.catalog q))
  | Sql_ast.Stmt_explain_analyze q ->
      let _rel, report =
        analyze_plan ~snapshot:(session_snapshot sess) db
          (Sql_binder.bind_query db.catalog q)
      in
      Explanation report
  | Sql_ast.Stmt_begin -> (
      match sess.txn with
      | Some tx ->
          Failed
            (Errors.Exec_error
               (Printf.sprintf "transaction %d is already in progress"
                  tx.txn_id))
      | None ->
          let id = Atomic.fetch_and_add db.txn_seq 1 in
          sess.txn <-
            Some
              {
                txn_id = id;
                snap_at = Catalog.current_ts db.catalog;
                writes = [];
                wstmts = [];
              };
          Metrics.incr db.txn_stats.begun;
          Message (Printf.sprintf "begin (txn %d)" id))
  | Sql_ast.Stmt_commit -> (
      match sess.txn with
      | None -> Failed (Errors.Exec_error "no transaction in progress")
      | Some tx -> (
          (* the transaction is over either way: a conflict aborts it
             (classic first-committer-wins — the loser retries from a
             fresh BEGIN), it never lingers half-committed *)
          sess.txn <- None;
          match
            if tx.writes <> [] then commit_txn db tx
          with
          | () ->
              Metrics.incr db.txn_stats.committed;
              if tx.writes <> [] then
                ignore (Plan_cache.invalidate_stale db.cache db.catalog);
              Message (Printf.sprintf "commit (txn %d)" tx.txn_id)
          | exception (Errors.Txn_conflict _ as ex) ->
              Metrics.incr db.txn_stats.conflicts;
              Failed ex
          | exception ex ->
              (* read-only, disk full: closed all the same *)
              Metrics.incr db.txn_stats.failed;
              raise ex))
  | Sql_ast.Stmt_rollback -> (
      match sess.txn with
      | None -> Failed (Errors.Exec_error "no transaction in progress")
      | Some tx ->
          (* staged writes never touched shared tables, so rollback is
             pure bookkeeping: drop the buffers *)
          sess.txn <- None;
          Metrics.incr db.txn_stats.rolled_back;
          Message (Printf.sprintf "rollback (txn %d)" tx.txn_id))
  | Sql_ast.Stmt_insert (name, rows) when sess.txn <> None -> (
      let tx = Option.get sess.txn in
      try Message (stage_insert db tx name rows stmt)
      with Errors.Txn_conflict _ as ex -> Failed ex)
  | Sql_ast.Stmt_insert (name, rows) ->
      (* auto-commit: a bare INSERT is its own transaction.  It goes
         through the same stamped path as COMMIT (reserve a timestamp,
         apply, log, publish), so concurrent snapshot readers never see
         its rows mid-statement. *)
      check_writable db;
      let msg =
        Mutex.protect db.ddl_lock (fun () ->
            let table, bound =
              Sql_binder.bind_insert_rows db.catalog name rows
            in
            let ts = Catalog.next_commit_ts db.catalog in
            Table.insert_all ~ts table bound;
            log_committed db (Sql_ast.statement_to_string stmt);
            Catalog.publish_commit_ts db.catalog ts;
            Printf.sprintf "inserted %d row(s) into %s" (List.length bound)
              (Table.name table))
      in
      ignore (Plan_cache.invalidate_stale db.cache db.catalog);
      Message msg
  | Sql_ast.Stmt_create_table _ | Sql_ast.Stmt_create_index _
  | Sql_ast.Stmt_drop_table _ | Sql_ast.Stmt_drop_index _ -> (
      match sess.txn with
      | Some tx ->
          (* catalog changes are not versioned: there is exactly one
             live schema, so DDL cannot ride inside a snapshot *)
          Failed
            (Errors.Exec_error
               (Printf.sprintf
                  "DDL is not supported inside a transaction (txn %d): \
                   COMMIT or ROLLBACK first"
                  tx.txn_id))
      | None ->
          (* DDL/DML bodies are serialized (concurrent sessions may
             interleave queries freely, but two writers to the same
             table must not race); the eager sweep then evicts exactly
             the entries whose fingerprints the statement changed. *)
          check_writable db;
          let msg =
            Mutex.protect db.ddl_lock (fun () ->
                match Sql_binder.bind_statement db.catalog stmt with
                | Sql_binder.Bound_ddl msg ->
                    (* committed: the in-memory apply succeeded, so the
                       canonical text goes to the WAL (still under the
                       lock, keeping log order = apply order).  A failed
                       bind raises past this line and logs nothing. *)
                    log_committed db (Sql_ast.statement_to_string stmt);
                    msg
                | _ -> assert false)
          in
          ignore (Plan_cache.invalidate_stale db.cache db.catalog);
          Message msg)

let first_keyword_is_set sql =
  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  let n = String.length sql in
  let i = ref 0 in
  while !i < n && is_space sql.[!i] do incr i done;
  !i + 3 <= n
  && String.lowercase_ascii (String.sub sql !i 3) = "set"
  && (!i + 3 = n || not (match sql.[!i + 3] with
                        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
                        | _ -> false))

(** Execute one SQL statement on a session (transaction state lives on
    the session; outside a transaction this is indistinguishable from
    {!exec}). *)
let exec_session sess src : outcome =
  let db = sess.sdb in
  let sql = normalize_sql src in
  (* warm fast path: a still-valid cached plan for this exact text skips
     even the parse *)
  let fast =
    if db.cache_enabled then
      Plan_cache.find db.cache db.catalog (cache_key db sql)
    else None
  in
  match fast with
  | Some e -> run_select sess (fun () -> e)
  | None -> (
      match Sql_parser.parse_statement sql with
      | stmt -> exec_stmt sess ~sql stmt
      | exception Errors.Parse_error m when first_keyword_is_set sql ->
          (* a SET that fails to parse is a malformed knob value, not
             unparseable SQL: report the stable [Type_error] class so
             wire clients can switch on it (same class a well-formed SET
             with a wrong-shaped value gets) *)
          Failed (Errors.Type_error (Printf.sprintf "malformed SET: %s" m)))

(** Execute one SQL statement (on the engine's default session). *)
let exec db src : outcome = exec_session (session db) src

(** Execute a whole ';'-separated script, returning each outcome.
    Queries are keyed on their printed (canonical) text, so a repeated
    script statement warms the same entries as {!exec}. *)
let exec_script db src : outcome list =
  let sess = session db in
  List.map
    (function
      | Error e -> Failed e
      | Ok (Sql_ast.Stmt_explain q) -> (
          (* scripts keep the historical terse EXPLAIN rendering *)
          match Sql_binder.bind_query db.catalog q with
          | plan -> Explanation (Plan.to_string plan)
          | exception e when Errors.is_engine_error e -> Failed e)
      | Ok stmt -> exec_stmt sess ~sql:(Sql_ast.statement_to_string stmt) stmt)
    (Sql_parser.parse_script src)

(** Run a query and return the relation (raises on DDL). *)
let query db src =
  match exec db src with
  | Rows r -> r
  | Message m -> Errors.plan_errorf "expected rows, got: %s" m
  | Explanation _ -> Errors.plan_errorf "expected rows, got an explanation"
  | Failed e -> raise e
