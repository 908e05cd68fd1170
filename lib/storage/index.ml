(* Hash indexes over stored tables.

   An index maps a key (the indexed columns' values, compared under the
   total value order) to the row positions holding it.  The physical
   join compiler uses an index on the inner side of an equi-join to skip
   the per-query hash-build (index nested-loop join).

   Buckets are finalized into insertion-order arrays at build time, so
   a probe returns its matches without allocating; a single-column index
   keys its table by the bare [Value.t], so the probe hot path builds
   no key tuple at all.

   [refresh] must be safe to call from concurrent query domains (the
   parallel GApply execution phase runs per-group queries — and hence
   their index probes — on a domain pool), and under MVCC a writer may
   commit *while* another session's query is probing.  A rebuild
   therefore never mutates the store in place: it builds a fresh hash
   table and publishes it with a single atomic swap.  Probers capture a
   {!view} once per query; a captured view is immutable, so a concurrent
   rebuild can never be observed in flight.  Staleness is decided by a
   table version check against an atomic, so the steady-state refresh is
   a wait-free no-op; an actual rebuild takes the per-index mutex and
   re-checks, and publishing [built_version] after the store swap means
   any reader that observes the fresh version also observes the rebuilt
   store. *)

type store =
  | By_value of int array Value.Tbl.t (* single column: key is the value *)
  | By_tuple of int array Tuple.Tbl.t

type t = {
  idx_name : string;
  idx_table : string;
  idx_columns : string list;
  idx_positions : int list;         (* column positions in the table *)
  store : store Atomic.t;           (* key -> row offsets, insertion order;
                                       swapped wholesale on rebuild *)
  built_version : int Atomic.t;     (* Table.version covered; -1 = never *)
  lock : Mutex.t;                   (* serialises rebuilds *)
}

type view = store

let name t = t.idx_name
let table t = t.idx_table
let columns t = t.idx_columns

let key_of_row positions (row : Tuple.t) =
  Tuple.of_list (List.map (fun i -> Tuple.get row i) positions)

let empty_store positions =
  match positions with
  | [ _ ] -> By_value (Value.Tbl.create 1024)
  | _ -> By_tuple (Tuple.Tbl.create 1024)

let create ~name ~(table : Table.t) ~columns : t =
  let schema = Table.schema table in
  let idx_positions = List.map (fun c -> Schema.find c schema) columns in
  {
    idx_name = name;
    idx_table = Table.name table;
    idx_columns = columns;
    idx_positions;
    store = Atomic.make (empty_store idx_positions);
    built_version = Atomic.make (-1);
    lock = Mutex.create ();
  }

(* accumulate reversed offset lists keyed by ['k], then finalize each
   bucket into an insertion-order array in [replace] *)
let build (type k) ~(find : k -> int list option) ~(add : k -> int list -> unit)
    ~(replace : k -> int array -> unit) ~(keys : (k -> unit) -> unit)
    ~(key_of : Tuple.t -> k) (table : Table.t) : unit =
  let i = ref 0 in
  Table.iter
    (fun row ->
      let key = key_of row in
      let existing = Option.value ~default:[] (find key) in
      add key (!i :: existing);
      incr i)
    table;
  keys (fun key ->
      let offsets = Option.get (find key) in
      replace key (Array.of_list (List.rev offsets)))

(** (Re)build the index over the table's current contents.  No-op (a
    single atomic read) when already fresh; thread-safe otherwise, and
    never disturbs views captured by in-flight probers. *)
let refresh (t : t) (table : Table.t) =
  let v = Table.version table in
  if Atomic.get t.built_version <> v then begin
    Mutex.lock t.lock;
    (* another domain may have rebuilt while we waited *)
    if Atomic.get t.built_version <> v then begin
      let fresh =
        match t.idx_positions with
        | [ pos ] ->
            let tbl : int array Value.Tbl.t = Value.Tbl.create 1024 in
            let acc : int list Value.Tbl.t = Value.Tbl.create 1024 in
            build table ~key_of:(fun row -> Tuple.get row pos)
              ~find:(Value.Tbl.find_opt acc)
              ~add:(Value.Tbl.replace acc)
              ~replace:(Value.Tbl.replace tbl)
              ~keys:(fun f -> Value.Tbl.iter (fun k _ -> f k) acc);
            By_value tbl
        | positions ->
            let tbl : int array Tuple.Tbl.t = Tuple.Tbl.create 1024 in
            let acc : int list Tuple.Tbl.t = Tuple.Tbl.create 1024 in
            build table ~key_of:(key_of_row positions)
              ~find:(Tuple.Tbl.find_opt acc)
              ~add:(Tuple.Tbl.replace acc)
              ~replace:(Tuple.Tbl.replace tbl)
              ~keys:(fun f -> Tuple.Tbl.iter (fun k _ -> f k) acc);
            By_tuple tbl
      in
      Atomic.set t.store fresh;
      (* release-publish: readers that see [v] see the rebuilt store *)
      Atomic.set t.built_version v
    end;
    Mutex.unlock t.lock
  end

let view (t : t) : view = Atomic.get t.store

(** Offsets matching [key], in insertion order (ascending); [[||]] when
    none.  Allocation-free: the bucket is the view's own array, which
    callers must not mutate — the join's per-row hot path. *)
let view_find (s : view) (key : Tuple.t) : int array =
  match s with
  | By_value tbl -> (
      match Value.Tbl.find tbl (Tuple.get key 0) with
      | offsets -> offsets
      | exception Not_found -> [||])
  | By_tuple tbl -> (
      match Tuple.Tbl.find tbl key with
      | offsets -> offsets
      | exception Not_found -> [||])

(** [view_find_single] is {!view_find} for a single-column index,
    probing with the bare value — no key tuple on the hot path.
    @raise Invalid_argument on a multi-column index. *)
let view_find_single (s : view) (v : Value.t) : int array =
  match s with
  | By_value tbl -> (
      match Value.Tbl.find tbl v with
      | offsets -> offsets
      | exception Not_found -> [||])
  | By_tuple _ -> invalid_arg "Index.view_find_single: multi-column index"

(** Row offsets matching [key], in insertion order. *)
let lookup (t : t) (key : Tuple.t) : int list =
  Array.to_list (view_find (view t) key)

let cardinality (t : t) =
  match Atomic.get t.store with
  | By_value tbl -> Value.Tbl.length tbl
  | By_tuple tbl -> Tuple.Tbl.length tbl
