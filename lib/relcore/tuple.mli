(** Tuples: flat value arrays positionally aligned with a schema. *)

type t = Value.t array

val of_list : Value.t list -> t
val to_list : t -> Value.t list
val arity : t -> int
val get : t -> int -> Value.t
val empty : t

val concat : t -> t -> t
(** [a] followed by [b].  When one side is empty the result is the
    other side itself, not a copy: rows are never written after they
    are built. *)

val copy : t -> t
(** Shallow copy, for a caller that is about to write into a row it
    does not own (copy-on-write in dictionary encoding, the client
    simulation's temporary relation). *)

val project : int list -> t -> t

val equal : t -> t -> bool
(** Pointwise {!Value.equal_total} (NULLs compare equal). *)

val compare : t -> t -> int
(** Lexicographic {!Value.compare_total}. *)

val hash : t -> int
(** Compatible with {!equal}. *)

(** Key tables on tuples under {!equal}/{!hash} (the total value
    order, where [Int 1] and [Float 1.0] coincide): multi-column join
    builds and partitions, DISTINCT and multi-column indexes. *)
module Tbl : Keytbl.S with type key = t

val number_rows :
  'a Tbl.t ->
  'a ->
  positions:int array ->
  t array ->
  ids:int array ->
  pos:int ->
  len:int ->
  unit
(** [number_rows tbl v ~positions rows ~ids ~pos ~len] writes into
    [ids.(k)], for [pos <= k < pos + len], the id in [tbl] of row [k]'s
    key on the columns at [positions], binding a new key to [v].  One
    scratch key is filled per row and copied only for a new key. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
