(* Append-only interned-string pools — the building block of the
   per-table dictionary encoding (lib/storage/dict.ml).

   A pool maps strings to dense ids and back.  Equal strings interned
   into the same pool always receive the same id, so two [Value.Sym]
   handles over one pool are equal exactly when their ids are equal —
   string equality on the grouping / join hot path becomes an integer
   compare, and the string's structural hash is precomputed once at
   intern time instead of re-hashed per probe.

   Concurrency.  [intern] takes the pool's mutex (the lookup table is a
   plain Hashtbl, which concurrent mutation would corrupt); sharding at
   the dictionary layer keeps that lock narrow.  [get] / [hash] /
   [markup_free] are lock-free: the per-id arrays are published through
   [Atomic] and grown copy-on-write, and an id only ever reaches a
   reader inside a [Value.Sym] that was created after the id was
   published — so the arrays a reader observes always cover every id it
   can ask for.

   Markup flags.  The XML tagger asks, per output field, whether a
   string holds one of the four bytes it must escape ([<], [>], [&] or
   a double quote).  The answer is a byte per id, filled lazily on the
   first ask and cached, so each interned string is scanned once per
   pool instead of once per document; [intern] never scans, so loading
   data pays nothing for it.  The flag write is a plain, unsynchronised
   store from whichever reader asked first.  Two readers racing on one
   id write the same value; a flag written into an array that a
   concurrent [intern] has just replaced is lost, and the next ask
   simply scans again. *)

type t = {
  lock : Mutex.t;
  index : (string, int) Hashtbl.t;    (* string -> id; guarded by lock *)
  data : string array Atomic.t;       (* id -> string; lock-free reads *)
  hashes : int array Atomic.t;        (* id -> Hashtbl.hash of string *)
  markup : Bytes.t Atomic.t;          (* id -> markup flag, lazily filled *)
  len : int Atomic.t;                 (* published entry count *)
  bytes : int Atomic.t;               (* payload bytes interned *)
  hits : int Atomic.t;                (* intern calls answered from index *)
  misses : int Atomic.t;              (* intern calls that added an entry *)
  decodes : int Atomic.t;             (* id -> string reads *)
}

let create () =
  {
    lock = Mutex.create ();
    index = Hashtbl.create 64;
    data = Atomic.make [||];
    hashes = Atomic.make [||];
    markup = Atomic.make Bytes.empty;
    len = Atomic.make 0;
    bytes = Atomic.make 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    decodes = Atomic.make 0;
  }

(* markup flag values *)
let unknown = '\000'
let plain = '\001'
let has_markup = '\002'

let length t = Atomic.get t.len
let bytes t = Atomic.get t.bytes

(** Intern [s], returning its dense id (existing id for a string seen
    before).  Thread-safe. *)
let intern t (s : string) : int =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.index s with
      | Some id ->
          Atomic.incr t.hits;
          id
      | None ->
          let id = Atomic.get t.len in
          let data = Atomic.get t.data in
          let cap = Array.length data in
          if id = cap then begin
            (* copy-on-write growth: readers keep the old array, which
               still covers every published id *)
            let cap' = max 16 (2 * cap) in
            let data' = Array.make cap' "" in
            Array.blit data 0 data' 0 id;
            Atomic.set t.data data';
            let hashes = Atomic.get t.hashes in
            let hashes' = Array.make cap' 0 in
            Array.blit hashes 0 hashes' 0 id;
            Atomic.set t.hashes hashes';
            let markup' = Bytes.make cap' unknown in
            Bytes.blit (Atomic.get t.markup) 0 markup' 0 id;
            Atomic.set t.markup markup'
          end;
          (Atomic.get t.data).(id) <- s;
          (Atomic.get t.hashes).(id) <- Hashtbl.hash s;
          (* publish the entry only after its payload is in place *)
          Atomic.set t.len (id + 1);
          Hashtbl.add t.index s id;
          Atomic.incr t.misses;
          ignore (Atomic.fetch_and_add t.bytes (String.length s));
          id)

(** The string behind [id].  Lock-free; counts as one decode. *)
let get t id =
  Atomic.incr t.decodes;
  (Atomic.get t.data).(id)

(** Like {!get} but uncounted — for internal comparisons where the
    decode is not an output-boundary event. *)
let unsafe_get t id = (Atomic.get t.data).(id)

(** Precomputed [Hashtbl.hash] of the string behind [id].  Lock-free. *)
let hash t id = (Atomic.get t.hashes).(id)

let is_markup = function '<' | '>' | '&' | '"' -> true | _ -> false

(** Whether the string behind [id] holds none of [<], [>], [&] or a
    double quote: scanned on the first ask, cached after.  Lock-free;
    not a decode. *)
let markup_free t id =
  let flags = Atomic.get t.markup in
  let f = Bytes.get flags id in
  if f = plain then true
  else if f = has_markup then false
  else begin
    let free = not (String.exists is_markup (Atomic.get t.data).(id)) in
    Bytes.set flags id (if free then plain else has_markup);
    free
  end

type counters = { c_hits : int; c_misses : int; c_decodes : int }

let counters t =
  {
    c_hits = Atomic.get t.hits;
    c_misses = Atomic.get t.misses;
    c_decodes = Atomic.get t.decodes;
  }
