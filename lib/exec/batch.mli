(** Batch-at-a-time execution: arrays of tuples between operators,
    amortizing the per-tuple closure call and [Some] allocation of the
    Volcano cursor over ~{!default_size} rows.

    A batch is a {e view} over a row array; producers may hand out
    windows of a shared array, so consumers must not mutate [rows] or
    read outside [pos .. pos+len-1].  Producers never write a view's
    rows after emitting it, so a consumer may keep a batch.  Emitted
    batches always have [len > 0].

    Every compiled operator is a batch cursor; {!to_cursor} adapts back
    to rows at the tagger/client boundary. *)

type t = {
  rows : Tuple.t array;
  pos : int;  (** first valid index *)
  len : int;  (** number of valid rows (> 0 for emitted batches) *)
}

type cursor = unit -> t option
(** Pull-based stream of batches; [None] means exhausted. *)

val default_size : int
(** 128 — the sweet spot measured in the vectorized bench sweep.
    Batches beyond ~255 rows allocate every intermediate buffer on
    OCaml's major heap ([Max_young_wosize]) and measure slower. *)

val get : t -> int -> Tuple.t
(** [get b i] is row [i] of the batch, [0 <= i < b.len]. Unchecked. *)

val iter : (Tuple.t -> unit) -> t -> unit

val of_array : ?size:int -> Tuple.t array -> cursor
(** Chunk an array into batch views without copying. *)

val of_view : ?size:int -> t -> cursor
(** Chunk the rows of a view into batch views without copying; an
    empty view yields no batch. *)

val to_cursor : cursor -> Cursor.t
(** Unbatch, row by row; holds one live batch at a time. *)

val to_array :
  ?account:(Tuple.t array -> int -> int -> unit) -> cursor -> Tuple.t array
(** Drain into a fresh array of exactly the drained rows, blitting whole
    batches once all are in.  [account] is called once per batch with
    [(rows, pos, len)] so materializing operators can charge the
    governor batch-wise. *)

val drain_iter : (Tuple.t -> unit) -> cursor -> unit

val filter : (Tuple.t -> bool) -> cursor -> cursor
(** Compacting filter; loops until a non-empty output batch. *)

val map : (Tuple.t -> Tuple.t) -> cursor -> cursor

val concat : (unit -> cursor) list -> cursor
(** Lazy concatenation: each thunk is forced only when the previous
    source is exhausted. *)

val deferred : (unit -> cursor) -> cursor
(** Build the underlying cursor on first pull. *)
