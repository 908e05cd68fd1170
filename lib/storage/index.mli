(** Hash indexes over stored tables: key (under the total value order)
    to row offsets.  The join compiler probes a matching index on the
    inner side of an equi-join instead of building a per-query hash
    table. *)

type t

val create : name:string -> table:Table.t -> columns:string list -> t
(** @raise Errors.Name_error on unknown columns. *)

val name : t -> string
val table : t -> string
val columns : t -> string list

val refresh : t -> Table.t -> unit
(** (Re)build over the table's current contents when stale (decided by
    a {!Table.version} check, so the fresh case is a wait-free no-op).
    Safe to call from concurrent query domains; rebuilds publish a fresh
    store by atomic swap and never disturb captured {!view}s. *)

type view
(** An immutable probe handle over one build of the index.  Capture once
    per query (after {!refresh}); a concurrent rebuild swaps the index's
    store but never mutates a captured view, so probes stay consistent
    even while a writer commits. *)

val view : t -> view

val view_find : view -> Tuple.t -> int array
(** Offsets matching the key, in insertion (ascending) order; [[||]]
    when none.  The array is the view's own bucket: callers must not
    mutate it. *)

val lookup : t -> Tuple.t -> int list
(** Row offsets matching the key, in insertion order. *)

val cardinality : t -> int
(** Number of distinct keys. *)
