(* The catalog: a name -> table map plus statistics cache.

   A generation counter is bumped on every shape change (create/drop
   table or index): the plan cache validates entries against it, so DDL
   conservatively invalidates every cached plan while DML only bumps the
   affected table's own version.

   A mutex guards the three hash tables so concurrent sessions can
   resolve names and read/invalidate statistics while another session
   runs DDL/DML.  Table *contents* are not protected here: writers to
   the same table must be serialized by the caller (Engine serializes
   DDL/DML statements). *)

type t = {
  tables : (string, Table.t) Hashtbl.t;
  stats : (string, Stats.table_stats) Hashtbl.t;
  indexes : (string, Index.t) Hashtbl.t;  (* by index name *)
  generation : int Atomic.t;              (* bumped on DDL *)
  stats_epoch : int Atomic.t;             (* bumped on stats (re)compute *)
  commit_ts : int Atomic.t;               (* global commit clock: rows are
                                             stamped with it, snapshots are
                                             keyed by it *)
  lock : Mutex.t;
}

let create () =
  {
    tables = Hashtbl.create 16;
    stats = Hashtbl.create 16;
    indexes = Hashtbl.create 16;
    generation = Atomic.make 0;
    stats_epoch = Atomic.make 0;
    commit_ts = Atomic.make 0;
    lock = Mutex.create ();
  }

let generation cat = Atomic.get cat.generation
let bump_generation cat = Atomic.incr cat.generation
let stats_epoch cat = Atomic.get cat.stats_epoch

(* ---------- commit clock / snapshots ----------

   The clock only moves forward under the engine's commit lock: a writer
   reserves [next_commit_ts] (clock + 1), stamps and applies its rows,
   logs, then publishes with [publish_commit_ts].  Readers calling
   [snapshot] between those two points still see the old clock, so a
   half-applied multi-table commit is never visible. *)

let current_ts cat = Atomic.get cat.commit_ts
let next_commit_ts cat = Atomic.get cat.commit_ts + 1

let publish_commit_ts cat ts =
  if ts > Atomic.get cat.commit_ts then Atomic.set cat.commit_ts ts

let snapshot cat = Mvcc.read_only ~at:(Atomic.get cat.commit_ts)

let locked cat f = Mutex.protect cat.lock f

let normalize name = String.lowercase_ascii name

(* unlocked internals (the lock is not reentrant) *)

let find_table_opt_u cat name = Hashtbl.find_opt cat.tables (normalize name)

let find_table_u cat name =
  match find_table_opt_u cat name with
  | Some t -> t
  | None -> Errors.name_errorf "unknown table %s" name

let add_table cat table =
  locked cat (fun () ->
      let key = normalize (Table.name table) in
      if Hashtbl.mem cat.tables key then
        Errors.name_errorf "table %s already exists" (Table.name table);
      Hashtbl.replace cat.tables key table);
  bump_generation cat

let find_table cat name = locked cat (fun () -> find_table_u cat name)

let find_table_opt cat name =
  locked cat (fun () -> find_table_opt_u cat name)

let mem_table cat name =
  locked cat (fun () -> Hashtbl.mem cat.tables (normalize name))

let drop_table cat name =
  locked cat (fun () ->
      let key = normalize name in
      if not (Hashtbl.mem cat.tables key) then
        Errors.name_errorf "unknown table %s" name;
      Hashtbl.remove cat.tables key;
      Hashtbl.remove cat.stats key);
  bump_generation cat

let table_names cat =
  locked cat (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) cat.tables [])
  |> List.sort String.compare

(** Statistics are cached per table and stamped with the
    [Table.version] they were computed from; a stamp that no longer
    matches the live table means DML ran since, and the entry is
    recomputed lazily — the same version-checked staleness protocol
    indexes use ({!Index.refresh}).  Every (re)computation bumps the
    catalog-wide {!stats_epoch}, which the plan cache keys on so plans
    chosen under superseded statistics are never served warm. *)
let stats_of cat name =
  let key = normalize name in
  let table = find_table cat name in
  let version = Table.version table in
  let cached =
    locked cat (fun () ->
        match Hashtbl.find_opt cat.stats key with
        | Some s when s.Stats.built_version = version -> Some s
        | Some _ | None -> None)
  in
  match cached with
  | Some s -> s
  | None ->
      (* compute outside the lock (it walks the whole table); a racing
         recomputation just replaces the entry with an equal value.
         Version read before the walk: a concurrent insert mid-walk
         leaves the entry stamped stale, to be recomputed next time. *)
      let s =
        Stats.compute ~version (Table.schema table) (Table.to_relation table)
      in
      locked cat (fun () -> Hashtbl.replace cat.stats key s);
      Atomic.incr cat.stats_epoch;
      s

(** Cached statistics without recomputation, however stale. *)
let peek_stats cat name =
  locked cat (fun () -> Hashtbl.find_opt cat.stats (normalize name))

let invalidate_stats cat name =
  let dropped =
    locked cat (fun () ->
        let key = normalize name in
        let had = Hashtbl.mem cat.stats key in
        Hashtbl.remove cat.stats key;
        had)
  in
  if dropped then Atomic.incr cat.stats_epoch

let invalidate_all_stats cat =
  let dropped =
    locked cat (fun () ->
        let n = Hashtbl.length cat.stats in
        Hashtbl.reset cat.stats;
        n > 0)
  in
  if dropped then Atomic.incr cat.stats_epoch

(* ---------- indexes ---------- *)

let create_index cat ~name ~table ~columns =
  locked cat (fun () ->
      let key = normalize name in
      if Hashtbl.mem cat.indexes key then
        Errors.name_errorf "index %s already exists" name;
      let t = find_table_u cat table in
      let index = Index.create ~name ~table:t ~columns in
      Hashtbl.replace cat.indexes key index);
  bump_generation cat

let drop_index cat name =
  locked cat (fun () ->
      let key = normalize name in
      if not (Hashtbl.mem cat.indexes key) then
        Errors.name_errorf "unknown index %s" name;
      Hashtbl.remove cat.indexes key);
  bump_generation cat

let index_names cat =
  locked cat (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) cat.indexes [])
  |> List.sort String.compare

(** Every index as (name, table, columns), sorted by name — the
    snapshot writer serializes these so recovery can re-create them. *)
let index_specs cat =
  locked cat (fun () ->
      Hashtbl.fold
        (fun _ ix acc -> (Index.name ix, Index.table ix, Index.columns ix) :: acc)
        cat.indexes [])
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(** An index on [table] whose column set equals [cols] (any order). *)
let find_index_on cat ~table ~cols =
  let set_eq a b =
    List.sort String.compare a = List.sort String.compare b
  in
  locked cat (fun () ->
      Hashtbl.fold
        (fun _ index acc ->
          match acc with
          | Some _ -> acc
          | None ->
              if
                String.equal (normalize (Index.table index)) (normalize table)
                && set_eq (Index.columns index) cols
              then Some index
              else None)
        cat.indexes None)

(** Does [table] declare a foreign key on [cols] referencing key columns
    [ref_cols] of [ref_table]?  Column sets are compared as sets. *)
let has_foreign_key cat ~table ~cols ~ref_table ~ref_cols =
  match find_table_opt cat table with
  | None -> false
  | Some t ->
      let set_eq a b =
        List.length a = List.length b
        && List.for_all (fun x -> List.mem x b) a
      in
      List.exists
        (fun (fk : Table.foreign_key) ->
          String.equal (normalize fk.Table.fk_table) (normalize ref_table)
          && set_eq fk.Table.fk_columns cols
          && set_eq fk.Table.fk_ref_columns ref_cols)
        (Table.foreign_keys t)

(** Is [cols] (as a set) a superset of the primary key of [table]?
    Used to recognise key/foreign-key equality conditions. *)
let covers_primary_key cat ~table ~cols =
  match find_table_opt cat table with
  | None -> false
  | Some t ->
      let pk = Table.primary_key t in
      pk <> [] && List.for_all (fun k -> List.mem k cols) pk

let dicts cat =
  locked cat (fun () ->
      Hashtbl.fold
        (fun _ t acc -> match Table.dict t with Some d -> d :: acc | None -> acc)
        cat.tables [])

(** Replication snapshot install: replace this catalog's entire
    contents — tables, indexes, cached statistics — with another's (a
    freshly decoded snapshot body that nothing else references yet).
    The generation bump invalidates every cached plan, and the commit
    clock only moves forward (monotone merge), so snapshots pinned by
    in-flight readers keep resolving against the tables they captured
    while new readers see the adopted state. *)
let adopt cat ~from =
  locked cat (fun () ->
      Hashtbl.reset cat.tables;
      Hashtbl.reset cat.stats;
      Hashtbl.reset cat.indexes;
      Hashtbl.iter (fun k v -> Hashtbl.replace cat.tables k v) from.tables;
      Hashtbl.iter (fun k v -> Hashtbl.replace cat.indexes k v) from.indexes);
  publish_commit_ts cat (current_ts from);
  bump_generation cat;
  Atomic.incr cat.stats_epoch

(** Current version of [table] ([0] when it does not exist): the
    per-table half of the plan cache's invalidation fingerprint. *)
let table_version cat name =
  match find_table_opt cat name with
  | Some t -> Table.version t
  | None -> 0
