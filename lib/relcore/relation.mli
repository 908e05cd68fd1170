(** Materialised relations: a schema plus an ordered multiset of rows.

    The engine follows SQL multiset semantics (paper Section 3):
    duplicates are preserved everywhere and eliminated only by an
    explicit {!distinct}.  Row order is an evaluation artifact;
    {!equal_as_multiset} is the semantic comparison used by the tests. *)

type t

val make : Schema.t -> Tuple.t list -> t
val of_array : Schema.t -> Tuple.t array -> t
val empty : Schema.t -> t

val schema : t -> Schema.t
val rows : t -> Tuple.t list
val rows_array : t -> Tuple.t array
val cardinality : t -> int
val is_empty : t -> bool

val iter : (Tuple.t -> unit) -> t -> unit
val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a
val map_rows : (Tuple.t -> Tuple.t) -> t -> t
val filter_rows : (Tuple.t -> bool) -> t -> t

val append : t -> t -> t
(** Multiset union (UNION ALL).
    @raise Errors.Plan_error on arity mismatch. *)

val project : int list -> t -> t
(** Project both schema and rows onto the given column indexes. *)

val sort_by : (Tuple.t -> Tuple.t -> int) -> t -> t
(** Stable sort. *)

val distinct : t -> t
(** Duplicate elimination under the total value order (SQL DISTINCT). *)

val equal_as_multiset : t -> t -> bool
(** Same rows with the same multiplicities, irrespective of order. *)

val equal_as_list : t -> t -> bool
(** Row-for-row equality including order. *)

val to_string : ?max_bytes:int -> t -> string
(** Aligned ASCII table: the CLI's output and the server's reply body.
    Rendered without [Format]: one pass sizes the table, a second fills
    one exact-size buffer.
    @raise Errors.Exec_error before allocating anything if the table
    would exceed [max_bytes] (default: no limit). *)

val pp : Format.formatter -> t -> unit
(** [pp_print_string] of {!to_string}. *)
