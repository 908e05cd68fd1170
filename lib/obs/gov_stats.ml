(* Resource-governor counters, registered as gapply_governor_*: every
   budget violation by kind, every graceful-degradation retry, and the
   largest memory footprint any statement accounted.  Atomics, so
   violations recorded from concurrent sessions never tear. *)

type t = {
  timeouts : Metrics.counter;
  memory_trips : Metrics.counter;
  row_limits : Metrics.counter;
  cancellations : Metrics.counter;
  injected_faults : Metrics.counter;
  downgrades : Metrics.counter;  (* hash -> sort/seq retries taken *)
  peak_bytes : Metrics.counter;  (* max gauge: accounted bytes of any statement *)
}

let create reg =
  let violation kind =
    Metrics.counter_in reg ~label:("kind", kind)
      ~help:"Statements stopped by a resource budget, by kind."
      "gapply_governor_violations_total"
  in
  let timeouts = violation "timeout" in
  let memory_trips = violation "memory" in
  let row_limits = violation "row_limit" in
  let cancellations = violation "cancelled" in
  let injected_faults = violation "injected" in
  let downgrades =
    Metrics.counter_in reg
      ~help:"Memory trips retried with sort partitioning, parallelism 1."
      "gapply_governor_downgrades_total"
  in
  let peak_bytes =
    Metrics.gauge_in reg ~help:"Largest memory footprint a statement accounted."
      "gapply_governor_peak_bytes"
  in
  { timeouts; memory_trips; row_limits; cancellations; injected_faults; downgrades;
    peak_bytes }

let record t (kind : Errors.resource_kind) =
  Metrics.incr
    (match kind with
    | Errors.Timeout -> t.timeouts
    | Errors.Memory_exceeded -> t.memory_trips
    | Errors.Row_limit -> t.row_limits
    | Errors.Cancelled -> t.cancellations
    | Errors.Injected_fault -> t.injected_faults)
