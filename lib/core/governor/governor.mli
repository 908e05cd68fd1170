(** Per-statement resource governor: budgets, cooperative cancellation,
    and the hooks the fault-injection harness rides on.

    A {!t} is created per statement execution and threaded to every
    operator through [Env].  Budgets are enforced cooperatively:

    - {!guard} wraps each operator's cursor so every pull checks the
      cancellation token and the wall-clock deadline (and reports
      [Open]/[Next]/[Close] fault sites);
    - {!accountant}/{!charge} account bytes at materialization points —
      GApply partition tables, hash/sort buffers, bound groups, cached
      Apply inners (and report the [Alloc] fault site);
    - {!wrap_root_batch} counts statement output rows against the row
      limit.

    All state is atomic: cursors of one statement may run on many pool
    domains, and the first budget violation wins — it records itself,
    flips the token, and every other domain re-raises that same typed
    [Errors.Resource_error] at its next pull, so a parallel GApply
    phase aborts promptly and re-joins cleanly.

    Memory accounting is a monotonic count of bytes materialized during
    the statement (estimated per tuple), not an RSS measure: a
    deterministic budget on how much a statement may buffer. *)

type budget = {
  timeout_ns : int option;
  row_limit : int option;
  mem_limit_bytes : int option;
}

val unlimited : budget
val is_unlimited : budget -> bool

type t

val start : budget -> t
val budget : t -> budget

val mem_bytes : t -> int
(** Bytes accounted so far (the statement's materialization peak once it
    finishes — the count is monotonic). *)

val elapsed_ns : t -> int

val cancel : t -> unit
(** Flip the cancellation token: every governed cursor raises a typed
    [Cancelled] error at its next pull, on whichever domain it runs. *)

val cancelled : t -> bool

val check : t option -> op:string -> unit
(** Explicit token + deadline check for loops that are not cursor pulls
    (per-chunk partition work on pool domains).
    @raise Errors.Resource_error *)

val charge : t option -> op:string -> int -> unit
(** Account [bytes] of materialization against the memory ceiling.
    @raise Errors.Resource_error with kind [Memory_exceeded]. *)

val accountant : t option -> op:string -> (Tuple.t -> unit) option
(** Per-row accounting closure for row-at-a-time buffers:
    charges each row's estimated bytes and reports the [Alloc] fault
    site.  [None] when ungoverned — the buffer loop stays hook-free. *)

val batch_accountant :
  t option -> op:string -> (Tuple.t array -> int -> int -> unit) option
(** Batch variant for [Batch.to_array]: one [Alloc] fault site and one
    charge per batch, totalling the same bytes the per-row accountant
    would accumulate over the same rows. *)

val tuple_bytes : Tuple.t -> int
(** Estimated heap bytes of one materialized tuple. *)

val hash_partition_overhead_per_row : int
val hash_partition_merge_overhead_per_row : int
val sort_partition_overhead_per_row : int
(** Per-row structure overheads charged by the GApply / GROUP BY
    partition phases.  Hash partitioning costs more than sort
    partitioning (table slots, bucket cells, key copies; plus a merge
    pass when parallel) — the gap the graceful-degradation retry
    exploits. *)

val guard : t option -> op:string -> (unit -> 'a option) -> unit -> 'a option
(** Wrap one operator invocation's pull chain with token + deadline
    checks and [Open]/[Next]/[Close] fault sites.  Identity when
    ungoverned. *)

val wrap_root_batch :
  t option -> len:('a -> int) -> (unit -> 'a option) -> unit -> 'a option
(** Wrap the statement's root batch cursor: each pull counts [len batch]
    output rows against the row limit, tripping on the batch that
    crosses it.  Identity when ungoverned or unlimited. *)
