(** The executor's key table: open addressing with linear probing over a
    power-of-two slot array, for join builds, hash partitions, DISTINCT
    and indexes.

    Entries sit in flat arrays in insertion order — key, value, cached
    hash and int view — and each gets a dense {e id}: its position in
    that order, which never changes.  {!S.iter} walks the entries in
    insertion order.

    A key whose {!KEY.int_view} is an int (every number equal to an int
    strictly inside +-2^53) is hashed by {!mix} and compared as that
    unboxed int, without calling the key's [hash] or [equal]. *)

val no_int : int
(** The int view of a key that equals no int inside +-2^53. *)

val mix : int -> int
(** The multiplicative hash of an int key (non-negative).
    {!Value.hash} hashes numbers through it too. *)

module type KEY = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int

  val int_view : t -> int
  (** The int inside +-2^53 that the key equals, or {!no_int}.  Keys
      with the same int view must be equal, and a key with an int view
      must equal no key without one. *)
end

module type S = sig
  type key
  type 'a t

  val create : int -> 'a t
  (** An empty table sized for about [n] keys; it allocates nothing
      until the first {!add}. *)

  val length : 'a t -> int

  val find_id : 'a t -> key -> int
  (** The id of the key's entry, or [-1] when it is unbound. *)

  val key : 'a t -> int -> key
  (** The key of the entry with the given id. *)

  val value : 'a t -> int -> 'a
  val set_value : 'a t -> int -> 'a -> unit

  val add : 'a t -> key -> 'a -> unit
  (** Bind an unbound key; its id is the table's old {!length}.
      @raise Invalid_argument when the key is bound. *)

  val intern : 'a t -> key -> 'a -> int
  (** The key's id, after binding it to the value when it is unbound: a
      new key's id is the table's old {!length}. *)

  val replace : 'a t -> key -> 'a -> unit
  (** Rebind a bound key (its entry keeps its id and key) or {!add} it. *)

  val find : 'a t -> key -> 'a
  (** @raise Not_found when the key is unbound. *)

  val mem : 'a t -> key -> bool

  val iter : (key -> 'a -> unit) -> 'a t -> unit
  (** In insertion (id) order.  The table must not change meanwhile. *)
end

module Make (K : KEY) : S with type key = K.t
