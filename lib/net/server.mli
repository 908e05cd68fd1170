(** TCP front end over the embedded engine: the {!Wire} protocol,
    thread-per-connection session state, and admission-controlled
    statement execution.

    Each connection owns an {!Engine.session} — its SET knobs, prepared
    handles and open transaction are private and die with it.  Query
    execution passes through {!Admission}: over capacity, statements
    are shed with a typed [Overloaded] wire frame rather than queued
    without bound.  Backslash meta-commands ({!Meta}) bypass admission
    (they are constant-time reports).

    {!start} flips the engine into always-governed mode so every
    statement carries a cancellation token; {!stop} is a graceful
    drain: close listeners, shed the queue, cancel in-flight statements
    (each surfaces a typed [cancelled] response on its connection),
    wake idle readers, join every thread, flush the WAL.  Every live
    connection observes a typed response or a clean EOF — never a
    hang. *)

type config = {
  host : string;
  port : int;                   (** 0 picks an ephemeral port *)
  acceptors : int;              (** accept threads (>= 1 enforced) *)
  max_concurrent : int;         (** admission gate *)
  queue_depth : int;            (** bounded admission queue *)
  admission_timeout_ms : int;   (** max queueing time before a shed *)
  per_client_cap : int;
      (** max admission slots one [Auth]-identified client may hold at
          once; 0 disables the quota (see {!Admission}) *)
  idle_timeout_ms : int;        (** reap silent connections; 0 = never *)
  http_port : int option;
      (** plain-HTTP [/health] + [/metrics] (Prometheus text) listener;
          [Some 0] picks an ephemeral port *)
}

val default_config : config
(** Loopback, ephemeral port, gate 4, queue 16, 100 ms admission
    deadline, no per-client quota, no idle timeout, no HTTP listener. *)

type t

val start : config -> Engine.t -> t
(** Bind, listen, and serve.  Connection, admission and replication
    counters register in {!Engine.metrics}, which [/metrics] renders
    whole — restarting a server on the same engine keeps counting into
    the same series.  Also registers the replication hub: a
    connection sending [Repl_subscribe] becomes a WAL stream served by
    {!Repl.serve} on its own thread (replication streams bypass
    admission — they are not statements).  Raises [Unix.Unix_error] if
    the address cannot be bound. *)

val port : t -> int
(** The bound SQL port (resolves ephemeral requests). *)

val http_port : t -> int option

val admission : t -> Admission.t

val stop : ?drain_timeout_ms:int -> t -> unit
(** Graceful drain (default 5 s bound on waiting for in-flight
    statements); idempotent.  The engine itself stays open — closing it
    is the owner's job. *)
