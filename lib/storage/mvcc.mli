(** Snapshot handles for multi-version reads.

    A snapshot pins a visibility horizon (a commit timestamp from the
    catalog's global clock) and carries the owning transaction's staged
    writes, so one value gives read paths both repeatable reads and
    read-your-own-writes.  Snapshots are immutable; staged rows are
    appended to the shared table only at COMMIT. *)

type t

val at : t -> int
(** The snapshot's commit-timestamp horizon. *)

val read_only : at:int -> t
(** A pure snapshot with no staged writes (auto-commit statements). *)

val with_staged : at:int -> (string * Tuple.t array) list -> t
(** A transaction's snapshot: horizon plus its own staged rows, keyed by
    table name (normalized case-insensitively here), in insertion
    order. *)

val staged_for : t -> string -> Tuple.t array option
(** Own uncommitted rows for a table, if any.  Index probes use this to
    detect that a probe cannot serve the scan and fall back. *)

val staged_count : t -> string -> int

val visible_count : t -> Table.t -> int
(** Committed rows visible at the horizon (excludes staged rows). *)

val visible_view : t -> Table.t -> Tuple.t array * int
(** The rows a scan reads, as an array and the length of its prefix to
    read: the committed prefix at the horizon, in place in the table's
    own array ({!Table.published_at}), or — when the session has staged
    rows on the table — a fresh array of that prefix followed by them.
    Callers must not mutate the array. *)
