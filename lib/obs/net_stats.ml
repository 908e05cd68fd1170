(* Network front-end counters, registered as gapply_connections_* and
   gapply_statements_*: connections, admission decisions, sheds by
   reason, protocol errors and drain cancellations.  Atomics, so
   acceptor and connection threads record without tearing. *)

type shed_reason =
  | Queue_full  (** admission queue at capacity when the statement arrived *)
  | Deadline    (** queued, but no slot freed before the admission deadline *)
  | Draining    (** rejected because a graceful drain had begun *)
  | Quota       (** the client was at its per-client fair-share cap while
                    other clients held the remaining slots *)

type t = {
  accepted : Metrics.counter;
  closed : Metrics.counter;           (* connections fully torn down *)
  active : Metrics.counter;           (* gauge: live connections *)
  protocol_errors : Metrics.counter;
  idle_timeouts : Metrics.counter;    (* connections reaped for silence *)
  admitted : Metrics.counter;         (* statements that got a slot *)
  shed_queue_full : Metrics.counter;
  shed_deadline : Metrics.counter;
  shed_draining : Metrics.counter;
  shed_quota : Metrics.counter;
  drain_cancelled : Metrics.counter;  (* in-flight statements a drain cancelled *)
}

let create reg =
  let conn name help = Metrics.counter_in reg ~help ("gapply_connections_" ^ name) in
  let shed reason =
    Metrics.counter_in reg ~label:("reason", reason)
      ~help:"Statements shed by admission control, by reason."
      "gapply_statements_shed_total"
  in
  let accepted = conn "accepted_total" "Connections accepted." in
  let closed = conn "closed_total" "Connections closed." in
  let active =
    Metrics.gauge_in reg ~help:"Connections open now." "gapply_connections_active"
  in
  let protocol_errors =
    conn "protocol_errors_total" "Connections closed on a malformed frame."
  in
  let idle_timeouts = conn "idle_timeouts_total" "Connections reaped for silence." in
  let admitted =
    Metrics.counter_in reg ~help:"Statements admitted to an execution slot."
      "gapply_statements_admitted_total"
  in
  let shed_queue_full = shed "queue_full" in
  let shed_deadline = shed "deadline" in
  let shed_draining = shed "draining" in
  let shed_quota = shed "quota" in
  let drain_cancelled =
    Metrics.counter_in reg ~help:"In-flight statements cancelled by a drain."
      "gapply_statements_drain_cancelled_total"
  in
  { accepted; closed; active; protocol_errors; idle_timeouts; admitted;
    shed_queue_full; shed_deadline; shed_draining; shed_quota; drain_cancelled }

let shed t = function
  | Queue_full -> Metrics.incr t.shed_queue_full
  | Deadline -> Metrics.incr t.shed_deadline
  | Draining -> Metrics.incr t.shed_draining
  | Quota -> Metrics.incr t.shed_quota
