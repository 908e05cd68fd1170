(** Runtime values.

    Two comparison regimes coexist, as in SQL engines:
    - {!sql_compare} and the comparison operators implement
      expression-level comparison with NULL propagation (unknown when
      either side is NULL) and numeric int/float coercion;
    - {!compare_total} is the total order used internally by sort,
      group-by and distinct, where NULL sorts first and compares equal to
      itself. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Sym of Strpool.t * int
      (** A dictionary-encoded string: a handle into an interned pool
          (the storage layer's per-table dictionary).  Behaves exactly
          like the [Str] it decodes to — same type, total order, hash
          and rendering — but same-pool equality is an id compare and
          the hash is precomputed, so grouping and joins never touch
          the bytes.  Ids are insertion-ordered, not lexicographic. *)

val type_of : t -> Datatype.t option
(** [None] for [Null]. *)

val is_null : t -> bool

val to_string : t -> string
(** Plain rendering ([NULL], [42], [3.0], [abc], [TRUE]).  Floats read
    as [Printf]'s [%.12g], with [".0"] appended when that reads as an
    integer.  Decodes [Sym] handles — this is the output-boundary
    decode. *)

type writer
(** Scratch room for {!add_to_buffer}: one per thread that writes. *)

val writer : unit -> writer

val add_to_buffer : writer -> Buffer.t -> t -> unit
(** Append exactly the bytes of {!to_string}.  An [Int], or a [Float]
    that is a short decimal, is written by the digit writer {!to_string}
    uses, into the writer's room, and appended in one blit, with no
    string in between. *)

val canonical : t -> t
(** [Sym] decoded back to a plain [Str]; everything else unchanged.
    Required before feeding values to {e polymorphic} hash or equality
    (a [Sym]'s pool must never be structurally traversed). *)

val to_literal : t -> string
(** Like {!to_string} but strings are SQL-quoted (with [''] escaping). *)

val pp : Format.formatter -> t -> unit

val as_float : t -> float option
(** Numeric view of ints and floats; [None] otherwise. *)

val numeric_exn : string -> t -> float
(** Numeric view; raises {!Errors.Type_error} (with the given context)
    on non-numeric values. *)

(** {1 Total order (sorting / grouping / distinct)} *)

val compare_total : t -> t -> int
(** Total order: NULL first, numerics compared cross-type, then values
    of distinct types by type rank. *)

val equal_total : t -> t -> bool

val hash : t -> int
(** Compatible with {!equal_total}: equal values (including [Int]/[Float]
    with the same numeric value) hash alike.  A number with an
    {!int_view} hashes as {!Keytbl.mix} of it, without boxing a float
    or calling [caml_hash]. *)

val int_view : t -> int
(** The int strictly inside +-2^53 that a number equals ([Int 3] and
    [Float 3.0] give 3), or {!Keytbl.no_int} for every other value. *)

(** {1 SQL (null-propagating) comparison} *)

val sql_compare : t -> t -> int option
(** [None] when either side is NULL.
    @raise Errors.Type_error on incomparable types. *)

val eq : t -> t -> Truth.t
val neq : t -> t -> Truth.t
val lt : t -> t -> Truth.t
val lte : t -> t -> Truth.t
val gt : t -> t -> Truth.t
val gte : t -> t -> Truth.t

(** {1 Arithmetic}

    NULL operands propagate; int/int stays int, mixed is float.
    Division by zero yields NULL (documented deviation from strict SQL,
    so parameter sweeps never abort a benchmark run). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val concat : t -> t -> t

(** Key table on single values under {!equal_total} / {!hash}: join
    builds and probes and partitions on one column. *)
module Tbl : Keytbl.S with type key = t
