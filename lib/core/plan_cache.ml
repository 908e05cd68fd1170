(* A version-invalidated LRU cache of prepared (bound + optimized +
   compiled) query plans.

   Keying.  Entries are keyed on the SQL text *and* every knob that
   changes what would be compiled: partition strategy, optimize flag,
   parallelism.  Flipping a knob between two executions of
   the same SQL therefore key-splits instead of serving a stale shape.

   Invalidation.  An entry records a fingerprint of everything its plan
   was derived from: the catalog generation (bumped by any DDL — new
   tables or indexes change what binding/optimization would produce)
   and the [Table.version] of every base table the plan scans (bumped
   by DML — new rows change the statistics the optimizer consulted).
   A lookup revalidates the fingerprint; stale entries are dropped and
   counted as invalidations.  [invalidate_stale] sweeps eagerly after a
   DDL/DML statement so only the *dependent* entries pay.

   Concurrency.  A mutex guards the table + LRU clock; the counters are
   {!Cache_stats} atomics.  The cached [Compile.compiled] closures hold
   no per-run state, so concurrent sessions can run one entry while
   another session looks up or inserts. *)

type key = {
  sql : string;
  partition : Compile.partition_strategy;
  optimize : bool;
  cbo : bool;            (* cost-based choices enabled during prepare *)
  stats_epoch : int;
      (* Catalog.stats_epoch consulted at prepare: a plan chosen under
         superseded statistics key-splits instead of being served warm.
         The engine stores each entry under the epoch read *after* its
         prepare (which may itself have refreshed statistics), so the
         next lookup's live-epoch key matches. *)
  parallelism : int;
}

type entry = {
  key : key;
  plan : Plan.t;                  (* the optimized logical plan *)
  compiled : Compile.compiled;
  generation : int;               (* catalog generation at prepare time *)
  deps : (string * int) list;     (* scanned table -> version at prepare *)
  prepare_ns : int;               (* parse+bind+optimize+compile cost *)
  mutable last_used : int;        (* LRU clock reading *)
}

type t = {
  capacity : int;
  table : (key, entry) Hashtbl.t;
  mutable clock : int;
  lock : Mutex.t;
  stats : Cache_stats.t;
}

let create ?(capacity = 128) () =
  {
    capacity = max 1 capacity;
    table = Hashtbl.create 64;
    clock = 0;
    lock = Mutex.create ();
    stats = Cache_stats.create ();
  }

let locked t f = Mutex.protect t.lock f
let capacity t = t.capacity
let stats t = t.stats
let length t = locked t (fun () -> Hashtbl.length t.table)
let clear t = locked t (fun () -> Hashtbl.reset t.table)

(* ---------- dependency fingerprints ---------- *)

(** Base tables scanned by [plan] (normalized, deduplicated). *)
let tables_of_plan plan =
  Plan.fold
    (fun acc node ->
      match node with
      | Plan.Table_scan { table; _ } ->
          let name = String.lowercase_ascii table in
          if List.mem name acc then acc else name :: acc
      | _ -> acc)
    [] plan
  |> List.sort String.compare

let snapshot_deps cat plan =
  List.map
    (fun name -> (name, Catalog.table_version cat name))
    (tables_of_plan plan)

let is_valid cat (e : entry) =
  e.generation = Catalog.generation cat
  && List.for_all
       (fun (name, v) -> Catalog.table_version cat name = v)
       e.deps

(* ---------- lookup / insert ---------- *)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(** Validated lookup.  A valid entry counts as a hit (crediting its
    prepare cost to the saved-time counter) and is LRU-refreshed; a
    stale entry is dropped and counted as an invalidation.  Misses are
    *not* counted here — the caller records a miss when it actually
    prepares a statement (so probing with non-query text, e.g. the
    engine's pre-parse fast path on a DDL statement, skews nothing). *)
let find t cat key =
  let found =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | None -> None
        | Some e when is_valid cat e ->
            e.last_used <- tick t;
            Some (`Hit e)
        | Some e ->
            Hashtbl.remove t.table key;
            Some (`Stale e))
  in
  match found with
  | Some (`Hit e) ->
      Cache_stats.hit t.stats;
      Cache_stats.add_saved_ns t.stats e.prepare_ns;
      Some e
  | Some (`Stale _) ->
      Cache_stats.invalidation t.stats;
      None
  | None -> None

(** Unvalidated, counter-free lookup (introspection / tests). *)
let peek t key = locked t (fun () -> Hashtbl.find_opt t.table key)

let record_miss t = Cache_stats.miss t.stats

(** Credit a warm execution that bypassed the table (a prepared-
    statement handle revalidating its own entry). *)
let note_hit t (e : entry) =
  locked t (fun () -> e.last_used <- tick t);
  Cache_stats.hit t.stats;
  Cache_stats.add_saved_ns t.stats e.prepare_ns

(** Insert, evicting least-recently-used entries over capacity. *)
let add t (e : entry) =
  let evicted =
    locked t (fun () ->
        e.last_used <- tick t;
        Hashtbl.replace t.table e.key e;
        let n = ref 0 in
        while Hashtbl.length t.table > t.capacity do
          let victim =
            Hashtbl.fold
              (fun _ entry acc ->
                match acc with
                | Some best when best.last_used <= entry.last_used -> acc
                | _ -> Some entry)
              t.table None
          in
          match victim with
          | Some v ->
              Hashtbl.remove t.table v.key;
              incr n
          | None -> Hashtbl.reset t.table
        done;
        !n)
  in
  for _ = 1 to evicted do Cache_stats.eviction t.stats done

let remove t key = locked t (fun () -> Hashtbl.remove t.table key)

(** Eagerly drop every entry whose fingerprint no longer matches the
    catalog (called after DDL/DML).  Returns how many were dropped;
    each counts as an invalidation.  Entries over unrelated tables
    survive untouched. *)
let invalidate_stale t cat =
  let stale =
    locked t (fun () ->
        let stale =
          Hashtbl.fold
            (fun key e acc -> if is_valid cat e then acc else key :: acc)
            t.table []
        in
        List.iter (Hashtbl.remove t.table) stale;
        List.length stale)
  in
  for _ = 1 to stale do Cache_stats.invalidation t.stats done;
  stale
