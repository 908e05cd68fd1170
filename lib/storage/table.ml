(* Stored tables: a schema, a growable multi-version row store, and key
   metadata.

   Primary/foreign key declarations exist so the optimizer can recognise
   foreign-key joins, which the invariant-grouping rule (paper §4.3,
   Definition 2) requires.

   MVCC layout: the row store is append-only, with a parallel [stamps]
   array holding each row's begin (commit) timestamp.  Because commits
   are serialized under the engine's commit lock and timestamps come
   from a global monotone clock, [stamps] is nondecreasing — so the set
   of rows visible at snapshot timestamp [at] is exactly a prefix, found
   by binary search.  Readers never take a lock: they load the
   [published] watermark (an atomic release/acquire pair with the
   writer) and then read only slots below it; published slots are
   immutable. *)

type foreign_key = {
  fk_columns : string list;      (** columns of this table *)
  fk_table : string;             (** referenced table *)
  fk_ref_columns : string list;  (** referenced (key) columns *)
}

type t = {
  name : string;
  schema : Schema.t;
  mutable rows : Tuple.t array;
  mutable stamps : int array;    (* stamps.(i) = commit ts of rows.(i);
                                    nondecreasing *)
  mutable row_count : int;       (* rows.(0 .. row_count-1) are live *)
  published : int Atomic.t;      (* watermark readers trust: slots below
                                    it are fully written and immutable *)
  last_ts : int Atomic.t;        (* largest stamp = last commit that
                                    touched this table (conflict check) *)
  version : int Atomic.t;        (* bumped on every mutation; index
                                    staleness checks compare against it *)
  primary_key : string list;
  foreign_keys : foreign_key list;
  dict : Dict.t option;          (* string-column dictionary: inserts
                                    intern [Str] values into [Sym]
                                    handles (None when disabled or no
                                    string columns) *)
}

let create ?(primary_key = []) ?(foreign_keys = []) name columns =
  let schema =
    Schema.rename_source name
      (Schema.of_list
         (List.map (fun (cname, ctype) -> Schema.column cname ctype) columns))
  in
  List.iter
    (fun k -> ignore (Schema.find k schema))
    (primary_key
    @ List.concat_map (fun fk -> fk.fk_columns) foreign_keys);
  {
    name;
    schema;
    rows = [||];
    stamps = [||];
    row_count = 0;
    published = Atomic.make 0;
    last_ts = Atomic.make 0;
    version = Atomic.make 0;
    primary_key;
    foreign_keys;
    dict = Dict.create schema;
  }

let name t = t.name
let schema t = t.schema
let cardinality t = t.row_count
let version t = Atomic.get t.version
let primary_key t = t.primary_key
let foreign_keys t = t.foreign_keys
let last_commit_ts t = Atomic.get t.last_ts

let check_row t (row : Tuple.t) =
  if Tuple.arity row <> Schema.arity t.schema then
    Errors.exec_errorf "table %s: inserting row of arity %d into schema %s"
      t.name (Tuple.arity row) (Schema.to_string t.schema)

let check_rows t rows = List.iter (check_row t) rows

let ensure_capacity t n =
  let cap = Array.length t.rows in
  if t.row_count + n > cap then begin
    let cap' = max (t.row_count + n) (max 16 (2 * cap)) in
    let rows' = Array.make cap' Tuple.empty in
    let stamps' = Array.make cap' 0 in
    Array.blit t.rows 0 rows' 0 t.row_count;
    Array.blit t.stamps 0 stamps' 0 t.row_count;
    t.rows <- rows';
    t.stamps <- stamps'
  end

let encode t row =
  match t.dict with None -> row | Some d -> Dict.encode_row d row

let encode_row = encode
let dict t = t.dict

(* Readers load the watermark first (acquire), then the array refs: the
   writer's release on [published] orders its array writes before any
   read that observed the new watermark.  The length clamp keeps a
   concurrent [clear] (which shrinks the arrays wholesale) from turning
   a stale watermark into an out-of-bounds read. *)
let published_view t =
  let n = Atomic.get t.published in
  let rows = t.rows in
  let stamps = t.stamps in
  let n = min n (min (Array.length rows) (Array.length stamps)) in
  (rows, stamps, n)

let effective_ts t = function
  | Some ts -> max ts (Atomic.get t.last_ts)
  | None -> Atomic.get t.last_ts

let append_stamped t ts row =
  t.rows.(t.row_count) <- encode t row;
  t.stamps.(t.row_count) <- ts;
  t.row_count <- t.row_count + 1

let publish t ts =
  Atomic.set t.last_ts ts;
  Atomic.incr t.version;
  Atomic.set t.published t.row_count

let insert ?ts t row =
  check_row t row;
  let ts = effective_ts t ts in
  ensure_capacity t 1;
  append_stamped t ts row;
  publish t ts

(* All-or-nothing: validate every row before touching the store, so a
   bad row mid-batch can't leave a half-applied insert behind — and
   can't bump [version] for a statement that then fails (a phantom bump
   would invalidate cached plans for a no-op).  One version bump per
   batch, not per row, and one watermark publish: concurrent snapshot
   readers see either none or all of the batch. *)
let insert_all ?ts t rows =
  check_rows t rows;
  let n = List.length rows in
  if n > 0 then begin
    let ts = effective_ts t ts in
    ensure_capacity t n;
    List.iter (fun row -> append_stamped t ts row) rows;
    publish t ts
  end

let clear t =
  t.rows <- [||];
  t.stamps <- [||];
  t.row_count <- 0;
  Atomic.set t.published 0;
  Atomic.incr t.version

(* Rows with stamp <= [at], i.e. committed no later than the snapshot.
   [stamps] is nondecreasing, so this is an upper-bound binary search
   over the published prefix. *)
let visible_count t ~at =
  let _, stamps, n = published_view t in
  if n = 0 || stamps.(0) > at then 0
  else if stamps.(n - 1) <= at then n
  else begin
    (* invariant: stamps.(lo) <= at < stamps.(hi) *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if stamps.(mid) <= at then lo := mid else hi := mid
    done;
    !lo + 1
  end

let rows_at t ~at =
  let rows, _, n = published_view t in
  let k = min n (visible_count t ~at) in
  Array.sub rows 0 k

let to_relation_at t ~at = Relation.of_array t.schema (rows_at t ~at)

let rows t = Array.to_list (Array.sub t.rows 0 t.row_count)

let get_row t i =
  let rows, _, n = published_view t in
  if i < 0 || i >= n then
    Errors.exec_errorf "table %s: row offset %d out of range" t.name i;
  rows.(i)

let to_relation t =
  let rows, _, n = published_view t in
  Relation.of_array t.schema (Array.sub rows 0 n)

let iter f t =
  let rows, _, n = published_view t in
  for i = 0 to n - 1 do
    f rows.(i)
  done
