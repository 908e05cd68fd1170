(* Replication counters and position gauges, registered as
   gapply_repl_*: the primary's per-subscriber sender threads and the
   replica's applier thread record without tearing.  Both roles
   register in their engine's registry, so a replica's applier and the
   hub of the server in front of it share one set — a promoted replica
   keeps its applier counters and starts bumping the primary-side ones.
   Lag is derived from the two positions when read. *)

type t = {
  (* primary side *)
  subscribers : Metrics.counter;       (* gauge: live replication streams *)
  batches_sent : Metrics.counter;
  bytes_sent : Metrics.counter;        (* raw WAL bytes shipped *)
  snapshots_sent : Metrics.counter;
  heartbeats_sent : Metrics.counter;
  diverged_rejections : Metrics.counter;
      (* subscribers turned away because their history cannot be a
         prefix of ours (ex-primary rewind, future position) *)
  (* replica side *)
  batches_applied : Metrics.counter;
  units_applied : Metrics.counter;     (* txn groups / bare statements *)
  snapshots_installed : Metrics.counter;
  reconnects : Metrics.counter;
  torn_detected : Metrics.counter;     (* CRC/framing faults in the stream *)
  (* position gauges *)
  applied_epoch : Metrics.counter;
  applied_offset : Metrics.counter;
  primary_epoch : Metrics.counter;     (* last position heard from primary *)
  primary_offset : Metrics.counter;
}

(* Within one epoch, lag is a plain byte difference.  Across a
   checkpoint the old epoch's remaining bytes are unknowable from here,
   so the new epoch's unapplied prefix is the best available lower
   bound. *)
let lag_bytes t =
  let primary = Metrics.get t.primary_offset in
  if Metrics.get t.primary_epoch = Metrics.get t.applied_epoch then
    max 0 (primary - Metrics.get t.applied_offset)
  else primary

let create reg =
  let c name help = Metrics.counter_in reg ~help ("gapply_repl_" ^ name) in
  let g name help = Metrics.gauge_in reg ~help ("gapply_repl_" ^ name) in
  let subscribers = g "subscribers" "Replication streams served now." in
  let batches_sent = c "batches_sent_total" "WAL batches shipped to replicas." in
  let bytes_sent = c "bytes_sent_total" "Raw WAL bytes shipped to replicas." in
  let snapshots_sent = c "snapshots_sent_total" "Snapshots shipped to replicas." in
  let heartbeats_sent = c "heartbeats_sent_total" "Heartbeats sent to replicas." in
  let diverged_rejections =
    c "diverged_rejections_total" "Subscribers refused for a diverged history."
  in
  let batches_applied = c "batches_applied_total" "WAL batches applied here." in
  let units_applied = c "units_applied_total" "Transactions and statements applied." in
  let snapshots_installed =
    c "snapshots_installed_total" "Primary snapshots installed here."
  in
  let reconnects = c "reconnects_total" "Applier reconnects to the primary." in
  let torn_detected = c "torn_detected_total" "Torn or corrupt frames received." in
  let applied_epoch = g "applied_epoch" "WAL epoch applied here." in
  let applied_offset = g "applied_offset" "WAL offset applied here." in
  let primary_epoch = g "primary_epoch" "Primary WAL epoch last heard." in
  let primary_offset = g "primary_offset" "Primary WAL offset last heard." in
  let t =
    { subscribers; batches_sent; bytes_sent; snapshots_sent; heartbeats_sent;
      diverged_rejections; batches_applied; units_applied; snapshots_installed;
      reconnects; torn_detected; applied_epoch; applied_offset; primary_epoch;
      primary_offset }
  in
  Metrics.derived reg ~help:"Bytes the applier trails the primary by."
    "gapply_repl_lag_bytes" (fun () -> lag_bytes t);
  t

let set_applied t ~epoch ~offset =
  Metrics.set t.applied_epoch epoch;
  Metrics.set t.applied_offset offset

let set_primary_position t ~epoch ~offset =
  Metrics.set t.primary_epoch epoch;
  Metrics.set t.primary_offset offset
