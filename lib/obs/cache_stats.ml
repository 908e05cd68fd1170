(* Plan-cache counters, registered as gapply_plan_cache_*: atomics, so
   the concurrent sessions of the workload driver can hit/miss/
   invalidate the shared cache from pool domains without lost updates —
   hits + misses always equals the lookups that ran. *)

type t = {
  hits : Metrics.counter;
  misses : Metrics.counter;
  evictions : Metrics.counter;
  invalidations : Metrics.counter;  (* entries dropped as version-stale *)
  prepare_ns : Metrics.counter;     (* parse + bind + optimize + compile *)
  saved_ns : Metrics.counter;       (* preparation time the hits skipped *)
}

(* Bound in order: the registry renders families in registration
   order, and record fields evaluate right to left. *)
let create reg =
  let c name help = Metrics.counter_in reg ~help ("gapply_plan_cache_" ^ name) in
  let hits = c "hits_total" "Plan-cache lookups answered from the cache." in
  let misses = c "misses_total" "Plan-cache lookups that prepared a plan." in
  let evictions = c "evictions_total" "Entries evicted by the LRU bound." in
  let invalidations =
    c "invalidations_total" "Entries dropped because a table they read changed."
  in
  let prepare_ns = c "prepare_ns_total" "Time spent preparing plans on misses." in
  let saved_ns = c "saved_ns_total" "Preparation time that hits avoided." in
  { hits; misses; evictions; invalidations; prepare_ns; saved_ns }

(* A plain-int view, for attributing one run against a long-lived
   engine: counters only grow, so the delta of two snapshots is itself a
   snapshot. *)
type snapshot = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  saved_ns : int;
}

let snapshot (t : t) =
  {
    hits = Metrics.get t.hits;
    misses = Metrics.get t.misses;
    evictions = Metrics.get t.evictions;
    invalidations = Metrics.get t.invalidations;
    saved_ns = Metrics.get t.saved_ns;
  }

(** [diff after before]: per-run delta of a monotonic sink. *)
let diff (after : snapshot) (before : snapshot) =
  {
    hits = after.hits - before.hits;
    misses = after.misses - before.misses;
    evictions = after.evictions - before.evictions;
    invalidations = after.invalidations - before.invalidations;
    saved_ns = after.saved_ns - before.saved_ns;
  }

let hit_rate (s : snapshot) =
  let n = s.hits + s.misses in
  if n = 0 then 0. else float_of_int s.hits /. float_of_int n
