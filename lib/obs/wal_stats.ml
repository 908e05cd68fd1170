(* Durability counters, registered as gapply_wal_*: records and bytes
   appended, fsyncs with their group-commit batch sizes, checkpoints
   and failed auto-checkpoints,
   and what recovery replayed, loaded and quarantined.  Atomics, so
   appends recorded under the engine's commit lock and reads from
   report renderers never tear.  Every engine registers them; one
   without a data directory keeps them at zero. *)

type t = {
  appends : Metrics.counter;
  bytes : Metrics.counter;            (* header + payload bytes appended *)
  fsyncs : Metrics.counter;
  batched_records : Metrics.counter;  (* records covered by all fsyncs *)
  max_batch : Metrics.counter;        (* max gauge: largest group commit *)
  checkpoints : Metrics.counter;
  checkpoint_failures : Metrics.counter;  (* auto-checkpoints that failed *)
  replayed : Metrics.counter;         (* records re-applied by recovery *)
  snapshot_loads : Metrics.counter;
  quarantined_bytes : Metrics.counter; (* torn-tail bytes truncated away *)
}

let create reg =
  let c name help = Metrics.counter_in reg ~help ("gapply_wal_" ^ name) in
  let appends = c "appends_total" "WAL records appended." in
  let bytes = c "bytes_total" "WAL bytes appended." in
  let fsyncs = c "fsyncs_total" "WAL fsyncs." in
  let batched_records = c "batched_records_total" "Records made durable by fsyncs." in
  let max_batch =
    Metrics.gauge_in reg ~help:"Largest group commit (records per fsync)."
      "gapply_wal_max_batch"
  in
  let checkpoints = c "checkpoints_total" "Snapshots written (WAL resets)." in
  let checkpoint_failures =
    c "checkpoint_failures_total"
      "Auto-checkpoints that failed on an I/O error (the WAL is kept)."
  in
  let replayed = c "replayed_total" "Records re-applied by recovery." in
  let snapshot_loads = c "snapshot_loads_total" "Snapshots loaded by recovery." in
  let quarantined_bytes =
    c "quarantined_bytes_total" "Torn-tail bytes recovery truncated away."
  in
  { appends; bytes; fsyncs; batched_records; max_batch; checkpoints;
    checkpoint_failures; replayed; snapshot_loads; quarantined_bytes }

(* The plain-int view [Engine.wal_stats] returns (the append and fsync
   figures the benchmark and the durability tests read). *)
type snapshot = {
  appends : int;
  bytes : int;
  fsyncs : int;
  batched_records : int;
  max_batch : int;
}

let snapshot (t : t) =
  {
    appends = Metrics.get t.appends;
    bytes = Metrics.get t.bytes;
    fsyncs = Metrics.get t.fsyncs;
    batched_records = Metrics.get t.batched_records;
    max_batch = Metrics.get t.max_batch;
  }

(** Any durability traffic at all (gates the EXPLAIN ANALYZE footer, so
    WAL-less engines keep stable output). *)
let active (t : t) =
  Metrics.get t.appends + Metrics.get t.fsyncs + Metrics.get t.checkpoints
  + Metrics.get t.replayed + Metrics.get t.snapshot_loads
  > 0

(** Mean records per fsync — the observed group-commit batch size. *)
let mean_batch (s : snapshot) =
  if s.fsyncs = 0 then 0. else float_of_int s.batched_records /. float_of_int s.fsyncs
