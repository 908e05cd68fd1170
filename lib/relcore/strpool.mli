(** Append-only interned-string pools.

    The storage layer's per-table dictionary (sharded over several
    pools) interns string column values at insert time; [Value.Sym]
    carries a (pool, id) handle so the executor compares ids and
    precomputed hashes on the hot path and decodes only at the output
    boundary.

    [intern] is mutex-guarded; [get] / [hash] / [markup_free] are
    lock-free (the arrays are published through [Atomic] and grown
    copy-on-write). *)

type t

val create : unit -> t

val intern : t -> string -> int
(** Id of [s], interning it first if unseen.  Equal strings always map
    to the same id within one pool.  Thread-safe. *)

val get : t -> int -> string
(** The string behind an id (counts as one decode). *)

val unsafe_get : t -> int -> string
(** Uncounted decode, for internal comparison fallbacks. *)

val hash : t -> int -> int
(** Precomputed [Hashtbl.hash] of the string behind an id. *)

val markup_free : t -> int -> bool
(** Whether the string behind an id holds none of the four bytes XML
    escapes ([<], [>], [&] or a double quote), so the tagger can write
    it as is.  The string is scanned on the first ask and the answer
    cached in a byte per id, grown with the other arrays; [intern] never
    scans.  Not a decode.

    Concurrent askers store the flag without synchronisation.  That is
    safe because the store is idempotent: racing askers of one id write
    the same answer, and an answer written into an array that a
    concurrent [intern] is replacing may be lost, in which case the next
    ask scans the string again.  The answer itself is always exact. *)

val length : t -> int
(** Interned entries. *)

val bytes : t -> int
(** Total payload bytes interned. *)

type counters = { c_hits : int; c_misses : int; c_decodes : int }

val counters : t -> counters
(** Encode hit/miss and decode counts since creation. *)
