(** Per-table string dictionaries: intern string column values at
    insert time so the row store holds [Value.Sym] handles — id
    compares and precomputed hashes on the grouping/join hot path,
    decode only at the output boundary.

    Strings are sharded over several pools by string hash (interning
    locks one pool, and concurrent sessions insert concurrently); the
    shard choice is a pure function of the string, so equal strings
    always receive the same handle. *)

val shard_count : int

val enabled : unit -> bool
(** Global gate (on at startup), checked at table creation. *)

val set_enabled : bool -> unit
(** Flip the gate for tables created afterwards (A/B benchmarks). *)

type t

val create : Schema.t -> t option
(** A dictionary for the schema's string columns; [None] when there are
    none or encoding is disabled. *)

val encode_row : t -> Tuple.t -> Tuple.t
(** Intern the row's string values, returning a fresh tuple holding
    [Sym] handles (the input when nothing encodes). *)

val total : (Strpool.t -> int) -> t -> int
(** [f] summed over the dictionary's shard pools (entries, bytes,
    encode/decode counters — the registry's dictionary gauges). *)
