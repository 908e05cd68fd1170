(** Pull-based row cursors.

    The row-at-a-time view of a compiled plan for consumers at the
    tagger/client boundary: [Compile.compiled.run] adapts the operator's
    batch cursor with [Batch.to_cursor].  Each call returns the next
    tuple or [None] at end-of-stream. *)

type t = unit -> Tuple.t option

val iter : (Tuple.t -> unit) -> t -> unit
val to_array : t -> Tuple.t array
val to_list : t -> Tuple.t list
val to_relation : Schema.t -> t -> Relation.t

val length : t -> int
(** Count remaining tuples, consuming the cursor. *)
