(* The executor's key table: open addressing with linear probing over a
   power-of-two slot array.

   Entries sit in flat arrays in insertion order, key and value, so a
   key's entry number is a dense id that never moves and [iter] walks
   the entries in insertion order.  Each slot holds a tag and the id of
   its entry: a probe reads tags only until one matches, and a resize
   re-places the tags and ids without hashing a key again.

   A key that equals an int strictly inside +-2^53 (an [Int], or an
   integral [Float] that [Value.equal_total] makes equal to it) has that
   int as its int view, and its tag is the int view itself: it is hashed
   by [mix] and found by comparing unboxed ints, with no call to the
   key's [hash] or [equal].  Any other key's tag is its hash with bit 61
   set, which no int view reaches, so one compare tells the two kinds
   apart; no key with an int view equals one without. *)

let no_int = min_int

(* A multiplicative mix: the product's high bits folded onto the low
   ones, which pick the slot. *)
let mix i =
  let h = i * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

module type KEY = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
  val int_view : t -> int
end

module type S = sig
  type key
  type 'a t

  val create : int -> 'a t
  val length : 'a t -> int
  val find_id : 'a t -> key -> int
  val key : 'a t -> int -> key
  val value : 'a t -> int -> 'a
  val set_value : 'a t -> int -> 'a -> unit
  val add : 'a t -> key -> 'a -> unit
  val intern : 'a t -> key -> 'a -> int
  val replace : 'a t -> key -> 'a -> unit
  val find : 'a t -> key -> 'a
  val mem : 'a t -> key -> bool
  val iter : (key -> 'a -> unit) -> 'a t -> unit
end

(* The slot arrays hold twice the entry capacity, so they are never
   more than half full. *)
let rec pow2 n k = if k >= n then k else pow2 n (2 * k)

let hashed = 1 lsl 61

(* the tag of an empty slot, which no key has *)
let empty = no_int

(* the hash a tag starts its walk from *)
let start tag = if tag >= hashed then tag else mix tag

(* Walk from slot [s] to the first empty slot and put [tag] and [id]
   there. *)
let rec place tags ids mask s tag id =
  if Array.unsafe_get tags s = empty then begin
    Array.unsafe_set tags s tag;
    Array.unsafe_set ids s id
  end
  else place tags ids mask ((s + 1) land mask) tag id

(* The id tagged with int view [i] along the walk from [s], or [-1]. *)
let rec find_int tags ids mask i s =
  let t = Array.unsafe_get tags s in
  if t = i then Array.unsafe_get ids s
  else if t = empty then -1
  else find_int tags ids mask i ((s + 1) land mask)

module Make (K : KEY) : S with type key = K.t = struct
  type key = K.t

  type 'a t = {
    mutable tags : int array;  (* per slot: its entry's tag, or [empty] *)
    mutable ids : int array;  (* per slot: its entry's id *)
    mutable keys : key array;  (* per entry *)
    mutable vals : 'a array;
    mutable count : int;
    init : int;  (* entry capacity of the first allocation *)
  }

  (* nothing is allocated before the first [add]: the entry arrays take
     their first key and value as filler *)
  let create n =
    { tags = [||]; ids = [||]; keys = [||]; vals = [||]; count = 0;
      init = pow2 (max 1 n) 8 }

  let length t = t.count
  let key t e = t.keys.(e)
  let value t e = t.vals.(e)
  let set_value t e v = t.vals.(e) <- v

  let tag k =
    let i = K.int_view k in
    if i <> no_int then i else K.hash k land max_int lor hashed

  let rec find_hashed tags ids keys mask tag k s =
    let t = Array.unsafe_get tags s in
    if t = tag && K.equal (Array.unsafe_get keys (Array.unsafe_get ids s)) k
    then Array.unsafe_get ids s
    else if t = empty then -1
    else find_hashed tags ids keys mask tag k ((s + 1) land mask)

  let lookup t tag k =
    if t.count = 0 then -1
    else
      let mask = Array.length t.tags - 1 in
      if tag < hashed then find_int t.tags t.ids mask tag (mix tag land mask)
      else find_hashed t.tags t.ids t.keys mask tag k (tag land mask)

  let find_id t k = lookup t (tag k) k

  (* double the entry arrays (first allocation: [init] entries) and
     re-place the slots in slot arrays twice their size *)
  let grow t k v =
    let cap = if t.count = 0 then t.init else 2 * t.count in
    let extend a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 t.count;
      a'
    in
    t.keys <- extend t.keys k;
    t.vals <- extend t.vals v;
    let tags = Array.make (2 * cap) empty and ids = Array.make (2 * cap) 0 in
    let mask = (2 * cap) - 1 in
    Array.iteri
      (fun s tag ->
        if tag <> empty then
          place tags ids mask (start tag land mask) tag t.ids.(s))
      t.tags;
    t.tags <- tags;
    t.ids <- ids

  (* a new entry for the unbound [k] *)
  let insert t tag k v =
    if t.count = Array.length t.keys then grow t k v;
    let e = t.count in
    t.keys.(e) <- k;
    t.vals.(e) <- v;
    let mask = Array.length t.tags - 1 in
    place t.tags t.ids mask (start tag land mask) tag e;
    t.count <- e + 1

  let add t k v =
    let tag = tag k in
    if lookup t tag k >= 0 then invalid_arg "Keytbl.add: the key is bound";
    insert t tag k v

  let intern t k v =
    let tag = tag k in
    let e = lookup t tag k in
    if e >= 0 then e
    else begin
      insert t tag k v;
      t.count - 1
    end

  let replace t k v =
    let tag = tag k in
    let e = lookup t tag k in
    if e >= 0 then t.vals.(e) <- v else insert t tag k v

  let find t k =
    let e = find_id t k in
    if e < 0 then raise Not_found else Array.unsafe_get t.vals e

  let mem t k = find_id t k >= 0

  let iter f t =
    for e = 0 to t.count - 1 do
      f t.keys.(e) t.vals.(e)
    done
end
