(* Hash indexes over stored tables.

   An index maps a key (the indexed columns' values, compared under the
   total value order) to the row positions holding it.  The physical
   join compiler uses an index on the inner side of an equi-join to skip
   the per-query hash-build (index nested-loop join).

   The store is a key table ([Tuple.Tbl]) whose values are the
   buckets, each an ascending array of offsets, so a probe returns its
   matches without allocating.

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

type view = int array Tuple.Tbl.t

type t = {
  idx_name : string;
  idx_table : string;
  idx_columns : string list;
  idx_positions : int array;        (* column positions in the table *)
  store : view Atomic.t;            (* key -> row offsets, insertion order;
                                       swapped wholesale on rebuild *)
  built_version : int Atomic.t;     (* Table.version covered; -1 = never *)
  lock : Mutex.t;                   (* serialises rebuilds *)
}

let name t = t.idx_name
let table t = t.idx_table
let columns t = t.idx_columns

let create ~name ~(table : Table.t) ~columns : t =
  let schema = Table.schema table in
  {
    idx_name = name;
    idx_table = Table.name table;
    idx_columns = columns;
    idx_positions =
      Array.of_list (List.map (fun c -> Schema.find c schema) columns);
    store = Atomic.make (Tuple.Tbl.create 1);
    built_version = Atomic.make (-1);
    lock = Mutex.create ();
  }

(* Number the published rows by key in one key table
   ({!Tuple.number_rows}), then hand each key its offsets array, filled
   in ascending order: a counting sort over the key ids. *)
let build positions (table : Table.t) : view =
  let tbl = Tuple.Tbl.create 1024 in
  let rows, n = Table.published table in
  let ids = Array.make n 0 in
  Tuple.number_rows tbl [||] ~positions rows ~ids ~pos:0 ~len:n;
  let counts = Array.make (Tuple.Tbl.length tbl) 0 in
  Array.iter (fun g -> counts.(g) <- counts.(g) + 1) ids;
  Array.iteri (fun g c -> Tuple.Tbl.set_value tbl g (Array.make c 0)) counts;
  let filled = Array.make (Tuple.Tbl.length tbl) 0 in
  Array.iteri
    (fun r g ->
      (Tuple.Tbl.value tbl g).(filled.(g)) <- r;
      filled.(g) <- filled.(g) + 1)
    ids;
  tbl

(** (Re)build the index over the table's current contents.  No-op (a
    single atomic read) when already fresh; thread-safe otherwise, and
    never disturbs views captured by in-flight probers. *)
let refresh (t : t) (table : Table.t) =
  let v = Table.version table in
  if Atomic.get t.built_version <> v then begin
    Mutex.lock t.lock;
    (* another domain may have rebuilt while we waited *)
    if Atomic.get t.built_version <> v then begin
      Atomic.set t.store (build t.idx_positions table);
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
  let g = Tuple.Tbl.find_id s key in
  if g < 0 then [||] else Tuple.Tbl.value s g

(** Row offsets matching [key], in insertion order. *)
let lookup (t : t) (key : Tuple.t) : int list =
  Array.to_list (view_find (view t) key)

let cardinality (t : t) = Tuple.Tbl.length (Atomic.get t.store)
