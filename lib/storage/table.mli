(** Stored tables: a schema, a growable multi-version row store, and key
    metadata.

    Primary/foreign key declarations exist so the optimizer can
    recognise foreign-key joins (paper Section 4.3, Definition 2).

    The row store is append-only with a per-row begin (commit)
    timestamp.  Commits are serialized under the engine's commit lock,
    so stamps are nondecreasing and the rows visible at a snapshot
    timestamp form a prefix — visibility checks are one binary search,
    not a per-row test.  Readers synchronize with writers through an
    atomic published watermark and never take a lock. *)

type foreign_key = {
  fk_columns : string list;      (** columns of this table *)
  fk_table : string;             (** referenced table *)
  fk_ref_columns : string list;  (** referenced (key) columns *)
}

type t

val create :
  ?primary_key:string list ->
  ?foreign_keys:foreign_key list ->
  string ->
  (string * Datatype.t) list ->
  t
(** [create name columns]; key columns must exist.
    @raise Errors.Name_error on unknown key columns. *)

val name : t -> string
val schema : t -> Schema.t
(** Columns are qualified by the table name. *)

val cardinality : t -> int

val version : t -> int
(** Monotonic modification counter, bumped on every insert/clear.
    Indexes compare against it to decide whether they are stale. *)

val last_commit_ts : t -> int
(** Largest commit stamp in the table — the timestamp of the last
    transaction that wrote it.  First-committer-wins conflict detection
    compares this against a transaction's snapshot timestamp. *)

val primary_key : t -> string list
val foreign_keys : t -> foreign_key list

val insert : ?ts:int -> t -> Tuple.t -> unit
(** Append one row stamped with commit timestamp [ts] (default: the
    table's current {!last_commit_ts}, i.e. fold into the latest
    committed state — what recovery replay and test fixtures want).
    Stamps are forced nondecreasing.
    @raise Errors.Exec_error on arity mismatch. *)

val insert_all : ?ts:int -> t -> Tuple.t list -> unit
(** All-or-nothing batch insert: every row is validated before any is
    stored, {!version} is bumped once per batch, and the batch becomes
    visible to concurrent snapshot readers atomically (single watermark
    publish).  A row failing its arity check leaves the table (and its
    version) untouched.
    @raise Errors.Exec_error on arity mismatch. *)

val check_rows : t -> Tuple.t list -> unit
(** Validate rows against the schema without storing them — staging-time
    validation for transactions, so a bad statement fails before any
    version is created.
    @raise Errors.Exec_error on arity mismatch. *)

val encode_row : t -> Tuple.t -> Tuple.t
(** Dictionary-encode a row exactly as {!insert} would (idempotent;
    identity when the table has no dictionary).  Staged transaction
    writes are encoded up front so read-your-own-writes scans see the
    same representation as committed rows. *)

val clear : t -> unit
val rows : t -> Tuple.t list

val get_row : t -> int -> Tuple.t
(** Row by physical offset (used by indexes).
    @raise Errors.Exec_error out of range. *)

val visible_count : t -> at:int -> int
(** Number of rows with commit stamp [<= at] — the length of the prefix
    a snapshot taken at timestamp [at] may read.  Lock-free. *)

val rows_at : t -> at:int -> Tuple.t array
(** Copy of the prefix visible at [at]. *)

val to_relation_at : t -> at:int -> Relation.t
(** Snapshot-resolved scan: only rows committed at or before [at]. *)

val to_relation : t -> Relation.t
(** Latest-committed scan (all published rows). *)

val iter : (Tuple.t -> unit) -> t -> unit

val dict : t -> Dict.t option
(** The table's dictionary, [None] when it has no string columns or
    encoding was disabled when it was created. *)
