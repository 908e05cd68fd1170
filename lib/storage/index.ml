(* Hash indexes over stored tables.

   An index maps a key (the indexed columns' values, compared under the
   total value order) to the row positions holding it.  The physical
   join compiler uses an index on the inner side of an equi-join to skip
   the per-query hash-build (index nested-loop join).

   The store is a key table ([Keytbl], through [Value.Tbl] and
   [Tuple.Tbl]) whose values are the buckets, each an ascending array
   of offsets, so a probe returns its matches without allocating; a
   single-column index keys its table by the bare [Value.t], so the
   probe hot path builds no key tuple at all.

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

(* Number the published rows by key in one key table, then hand each
   key its offsets array, filled in ascending order: a counting sort
   over the key ids. *)
module Build (T : Keytbl.S) = struct
  let build ~(key_of : Tuple.t -> T.key) (table : Table.t) : int array T.t =
    let tbl = T.create 1024 in
    let rows, n = Table.published table in
    let ids = Array.make n 0 in
    for r = 0 to n - 1 do
      ids.(r) <- T.intern tbl (key_of rows.(r)) [||]
    done;
    let counts = Array.make (T.length tbl) 0 in
    Array.iter (fun g -> counts.(g) <- counts.(g) + 1) ids;
    Array.iteri (fun g c -> T.set_value tbl g (Array.make c 0)) counts;
    let filled = Array.make (T.length tbl) 0 in
    Array.iteri
      (fun r g ->
        (T.value tbl g).(filled.(g)) <- r;
        filled.(g) <- filled.(g) + 1)
      ids;
    tbl
end

module By_value_build = Build (Value.Tbl)
module By_tuple_build = Build (Tuple.Tbl)

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
            By_value (By_value_build.build ~key_of:(fun row -> row.(pos)) table)
        | positions ->
            By_tuple (By_tuple_build.build ~key_of:(key_of_row positions) table)
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
