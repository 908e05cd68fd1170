(** Runtime execution environment.

    [frames] carries the current rows of enclosing Apply outer inputs
    (innermost first) for correlated expression evaluation; [groups]
    binds relation-valued variables — the paper's [$group] parameters —
    for [Group_scan] leaves inside a per-group query.  A bound group is
    a {!Batch.t} view (its rows may be a window of a larger array, and
    may be empty). *)

type t = {
  catalog : Catalog.t;
  frames : Eval.frames;
  groups : (string * Batch.t) list;
  governor : Governor.t option;
      (** the running statement's resource governor, inherited by every
          derived environment (so budget checks and cancellation reach
          per-group queries running on pool domains) *)
  snapshot : Mvcc.t option;
      (** the session's MVCC snapshot, inherited like the governor:
          table scans and index probes resolve visibility against it
          instead of the live table.  [None] reads latest-committed. *)
}

val make : ?governor:Governor.t -> ?snapshot:Mvcc.t -> Catalog.t -> t
val push_frame : Schema.t -> Tuple.t -> t -> t
val bind_group : string -> Relation.t -> t -> t
(** Bind a whole relation's rows. *)

val bind_view : string -> Batch.t -> t -> t
(** Bind a window of a row array without copying it (GApply binds each
    group as a slice of its partition). *)

val find_group : t -> string -> Batch.t
(** @raise Errors.Exec_error on unbound variables. *)
