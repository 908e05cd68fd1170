(** A fixed-size pool of worker domains for intra-query parallelism
    (OCaml 5 [Domain]s, no external task library).

    Work is submitted as order-preserving bulk operations over arrays;
    the submitting domain always participates, so a pool handle with
    [n] workers runs at most [n + 1] domains at once.  Worker domains
    are spawned lazily, live for the whole process, and are shared
    between queries.  Exceptions raised inside a task are captured and
    re-raised on the submitting domain once the whole batch has
    drained — the pool never loses a worker to a user exception, and
    nested submissions from inside a task are deadlock-free. *)

type t

val create : ?num_domains:int -> unit -> t
(** A private pool with [num_domains] workers (default
    [Domain.recommended_domain_count () - 1], minimum 1).
    [~num_domains:0] yields a pool that runs everything sequentially on
    the submitting domain. *)

val for_parallelism : int -> t option
(** A handle onto the shared process-wide pool sized for [parallelism]
    total domains (submitter included).  [0] means automatic
    ([Domain.recommended_domain_count ()]).  Returns [None] when the
    resolved parallelism is [<= 1] — the sequential fallback. *)

val default_num_domains : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]. *)

val num_domains : t -> int
(** Total domains this handle uses, submitter included. *)

val parallel_map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Map [f] over the array on the pool.  The result preserves input
    order.  If any application raises, the batch is poisoned — chunks
    not yet started are drained without running — and the {e first}
    exception is re-raised on the submitting domain with its original
    backtrace once every claimed chunk has re-joined, so no worker is
    still executing batch work after the call returns or raises.  [f]
    must be safe to call from multiple domains at once. *)

val parallel_sort : t -> ('a -> 'a -> int) -> 'a array -> unit
(** In-place parallel merge sort.  Stable: elements that compare equal
    keep their input order, so the result equals [Array.stable_sort]'s.
    Falls back to [Array.stable_sort] for small inputs or sequential
    pools. *)

val merge_runs : ?pool:t -> ('a -> 'a -> int) -> 'a array -> int array -> unit
(** [merge_runs cmp arr bounds] merges the sorted runs
    [[bounds.(i), bounds.(i + 1))] of [arr] in place ([bounds] rises from
    [0] to [Array.length arr]) through one scratch copy, each pass on
    [pool] if given.  Ties come from the earlier run, so the result
    equals [Array.stable_sort]'s. *)
