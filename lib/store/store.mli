(** Durability policy layer: one value per database directory bundling
    the recovered catalog, the open WAL, the durability mode, and the
    checkpoint trigger.

    The engine applies a DDL/DML statement in memory first and calls
    {!log_statement} only on success; what happens then depends on the
    mode — [Off] never touches the WAL (the hot path stays the pure
    in-memory engine), [Lazy] group-commits an fsync every
    [group_commit] records, [Strict] fsyncs before the statement is
    acknowledged. *)

type durability = Off | Lazy | Strict

val durability_to_string : durability -> string
val durability_of_string : string -> durability option

val default_group_commit : int
val default_checkpoint_bytes : int

type t

val open_dir :
  ?durability:durability ->
  ?group_commit:int ->
  ?checkpoint_bytes:int ->
  stats:Wal_stats.t ->
  string ->
  t * Recovery.outcome
(** Recover (or initialise) the database in the directory and open its
    WAL, counting into [stats].  Defaults: [Strict], {!default_group_commit},
    {!default_checkpoint_bytes}.
    @raise Errors.Recovery_error on real corruption. *)

val dir : t -> string
val catalog : t -> Catalog.t
val durability : t -> durability
val group_commit : t -> int
val checkpoint_bytes : t -> int
val wal_length : t -> int
val wal_epoch : t -> int

val wal_durable_length : t -> int
(** End of the fsync-covered WAL prefix — the only bytes the
    replication sender ever ships (anything past it could still vanish
    in a crash). *)

val set_on_durable : t -> (unit -> unit) -> unit
(** Install the replication wake-up hook: called after any log write
    that may have advanced the durable prefix (fsync, checkpoint,
    group commit).  Must be cheap and non-raising. *)

val read_wal_bytes : t -> pos:int -> len:int -> string
(** Raw WAL bytes in [pos, pos+len) via a fresh read-only descriptor;
    may return fewer bytes at end-of-file.  The replication sender
    tails the durable prefix with this. *)

val set_group_commit : t -> int -> unit
val set_checkpoint_bytes : t -> int -> unit
(** [0] disables the auto-checkpoint trigger. *)

val set_durability : t -> durability -> unit
(** Switching [Off -> Lazy/Strict] checkpoints first: statements
    executed under [Off] never reached the log, so the current state is
    folded into a snapshot before logging resumes. *)

val log_statement : t -> string -> unit
(** Log a committed DDL/DML statement (canonical SQL text) and apply
    the mode's sync policy.  A no-op under [Off]. *)

val log_load_tpch : t -> seed:int option -> msf:float -> unit
(** Log a deterministic TPC-H bulk load by its parameters. *)

val log_txn : t -> id:int -> string list -> unit
(** Log a committed transaction as one contiguous group —
    [Txn_begin id], its statements, [Txn_commit id] — with a single
    sync-policy decision for the whole group (one fsync per transaction
    under [Strict]).  A no-op under [Off]. *)

val log_repl_group : t -> id:int -> mark:int * int -> Wal.record list -> unit
(** Replica-side: log one applied replication batch as a single local
    transaction group ending in a {!Wal.Repl_mark} with the primary-side
    (epoch, offset) the batch reached, then fsync unconditionally.
    Recovery replays whole groups only, so the data and the resume
    position are crash-atomic.  Ignores the durability mode and never
    auto-checkpoints (the applier checkpoints explicitly and re-logs a
    fresh mark). *)

val maybe_checkpoint : t -> unit
(** The auto-checkpoint: {!checkpoint} once the WAL passes
    [checkpoint_bytes] (never under [Off]).  Run after a commit is
    logged and published, never inside the commit: a failed snapshot
    leaves the WAL in place, so the next call retries it, and the
    commit it follows stays committed.
    @raise Errors.Disk_full when the device is out of space.
    @raise Errors.Exec_error on any other I/O failure. *)

val flush : t -> unit
(** Fsync any pending records regardless of mode. *)

val checkpoint : t -> int
(** Cut a snapshot (atomic temp + rename), then reset the WAL under the
    next epoch; returns the snapshot size in bytes.  Works in any mode,
    including [Off]. *)

val close : t -> unit
(** Final fsync (unless [Off]) and close the WAL; idempotent. *)
