(** A minimal XML document model with a serializer and an
    order-insensitive comparison (the paper assumes an unordered XML
    model, Section 2). *)

type t =
  | Element of string * (string * string) list * t list
      (** tag, attributes, children *)
  | Text of string

val element : ?attrs:(string * string) list -> string -> t list -> t
val text : string -> t

val escape : string -> string
(** XML-escape text content (angle brackets, ampersand, double quote).
    A string with none of them is returned as is, unallocated. *)

val escape_into : Buffer.t -> string -> unit
(** [escape] appended straight to a buffer, in one pass over [s]: the
    kernel behind {!escape} and the markup tagger. *)

val to_string : t -> string
(** Compact one-line serialization (self-closing empty elements),
    written into one string sized beforehand. *)

val pp : Format.formatter -> t -> unit
(** Indented pretty-printing. *)

val canonicalize : t -> t
(** Sort sibling elements recursively — a normal form under the
    unordered XML model. *)

val equal_unordered : t -> t -> bool
(** Document equality up to reordering of siblings. *)
