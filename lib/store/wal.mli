(** Checksummed, length-prefixed write-ahead log.

    One append-only file per database directory:

    {v
    header   "GWAL0001" (8 bytes) | epoch u64 LE (8 bytes)
    record*  "GR" (2) | payload len u32 LE | crc32(payload) u32 LE | payload
    v}

    Records are logical redo: the canonical text of a committed DDL/DML
    statement, or the parameters of a deterministic TPC-H bulk load.
    The epoch links the log to the snapshot covering its prefix — a
    checkpoint stamps the snapshot with [(epoch, offset)] and restarts
    the log under [epoch + 1], which is how recovery stays idempotent
    when a crash lands between the two steps.

    [append] never syncs; [fsync] makes all pending records durable in
    one group commit.  Both are crash-simulation hook points
    ({!Fault.Append} tears the record in half on disk, {!Fault.Fsync}
    drops everything past the durable prefix). *)

type record =
  | Stmt of string
      (** canonical SQL text of a committed DDL/DML statement *)
  | Load_tpch of { seed : int option; msf : float }
      (** parameters of a deterministic [load_tpch] bulk load *)
  | Txn_begin of int
      (** opens transaction group [id]: the [Stmt] records that follow
          belong to it and take effect only if its commit marker is
          durable *)
  | Txn_commit of int
      (** closes transaction group [id].  Whole groups are appended at
          COMMIT time, so a crash leaves at most one unterminated
          trailing group — an uncommitted transaction recovery
          discards. *)
  | Repl_mark of { repl_epoch : int; repl_offset : int }
      (** replication watermark: the primary-side (epoch, offset) a
          replica's applied batch reached, logged as the last payload
          record of the batch's local transaction group so position and
          data are crash-atomic.  Position-only on replay. *)

val record_to_string : record -> string
val encode_record : record -> string
(** Framed on-disk encoding (marker, length, checksum, payload) — the
    exact bytes {!append} writes, and the unit the replication stream
    ships. *)

type t

val create : ?stats:Wal_stats.t -> string -> epoch:int -> t
(** Create (truncating) a fresh log at the given epoch; the header is
    written and synced before returning. *)

val open_existing : ?stats:Wal_stats.t -> string -> epoch:int -> length:int -> t
(** Reopen a scanned log for appending at [length], the end of its
    valid prefix.  Recovery truncates any quarantined tail before
    calling this. *)

val epoch : t -> int
val stats : t -> Wal_stats.t
val length : t -> int
(** Current end offset (header included); the value a checkpoint stamps
    into its snapshot. *)

val durable_length : t -> int
(** The prefix covered by the last [fsync]. *)

val pending : t -> int
(** Records appended since the last [fsync]. *)

val append : t -> record -> int
(** Append one record (no sync); returns its byte offset. *)

val fsync : t -> unit
(** Group-commit every pending record; records the batch size in
    {!Wal_stats}. *)

val reset : t -> epoch:int -> unit
(** Truncate to an empty log under a new epoch (checkpoint epilogue). *)

val close : t -> unit
(** Final [fsync] and close; idempotent. *)

(** {1 Scanning} *)

type scan_result = {
  scanned_epoch : int;
  records : (int * record) list;  (** (offset, record) in log order *)
  torn : Errors.recovery_violation option;
      (** a torn tail, if the file ends in an incomplete record *)
  valid_length : int;  (** end of the readable prefix *)
  file_length : int;
}

val header_len : int
(** Fixed size of the file header; offset of the first record. *)

type parsed =
  | Record of record * int  (** decoded record, next offset *)
  | Incomplete              (** the frame runs past the end of the data:
                                wait for more bytes (or, in a file, a
                                torn tail) *)
  | Bad of string           (** why this offset does not hold a record *)
  | Eof                     (** [off] is exactly the end of [data] *)

val parse_at : string -> int -> parsed
(** Try to decode one framed record at a byte offset.  Exposed for the
    replication applier, which parses shipped WAL bytes incrementally
    out of a reassembly buffer using the same torn/corrupt detection as
    recovery — [Incomplete] means "need more stream", [Bad] means the
    stream is torn. *)

val scan : string -> scan_result
(** Read the whole log.  The first bad record ends the readable prefix:
    if no valid record follows it is reported as a torn tail in [torn];
    if one does, the log was corrupted in place and scanning raises
    {!Errors.Recovery_error} ([Mid_log_corruption]) rather than drop
    committed records.  Also raises on a bad header
    ([Wal_header_corrupt]). *)

val dump : Format.formatter -> string -> unit
(** [--wal-dump]: pretty-print every record with offset and checksum
    status.  Never raises on corruption — this is the debugging view of
    a damaged log. *)

(** {1 I/O hardening}

    Every WAL write and fsync survives [EINTR] and partial writes with a
    bounded retry loop (a networked process sees signals the batch CLI
    never did).  [max_io_retries] consecutive progress-free attempts
    raise a typed {!Errors.Exec_error} instead of spinning inside the
    commit path. *)

val max_io_retries : int

type write_fault = Short_write | Eintr | Enospc

val set_write_fault : (unit -> write_fault option) option -> unit
(** Unit-test hook: the callback is consulted before every write
    syscall — [Some Short_write] forces a 1-byte partial write,
    [Some Eintr] fails the attempt as if a signal landed, [Some Enospc]
    as if the device filled up (surfaced as the typed
    {!Errors.Disk_full}), [None] lets the write through.  Pass [None]
    to clear the hook. *)

(** {1 Shared with snapshots}

    The snapshot file uses the same little-endian codec and the same
    hardened I/O. *)

val put_u32 : Buffer.t -> int -> unit
val put_u64 : Buffer.t -> int -> unit
val get_u32 : string -> int -> int
val get_u64 : string -> int -> int

val write_all : Unix.file_descr -> string -> int -> int -> unit
(** [write_all fd s pos len] writes [len] bytes of [s] from [pos],
    retrying EINTR, EAGAIN and partial writes.
    @raise Errors.Disk_full on ENOSPC.
    @raise Errors.Exec_error after {!max_io_retries} progress-free
    attempts. *)

val fsync_fd : Unix.file_descr -> unit
(** [Unix.fsync], retrying EINTR up to {!max_io_retries} times.
    @raise Errors.Disk_full on ENOSPC. *)

val read_file : string -> string
(** A whole file's bytes. *)
