(** Admission control: a concurrency gate with a bounded, deadline-aware
    queue in front of it.

    Up to [max_concurrent] statements run at once; up to [queue_depth]
    more wait, each for at most [admission_timeout_ms]; everything else
    is shed immediately with a typed {!Errors.Overloaded} carrying the
    queue occupancy and a retry-after hint derived from the EWMA
    statement service time.  Once {!begin_drain} is called, queued and
    new statements are shed and {!await_idle} observes the in-flight
    count reach zero.

    Threads: safe to call from any number of connection threads.
    Deadline expiry is driven by an internal ticker thread (the stdlib
    has no timed condition wait), started lazily on first queueing and
    joined by {!stop}. *)

type config = {
  max_concurrent : int;       (** statements executing at once (>= 1) *)
  queue_depth : int;          (** bounded waiters beyond the gate (>= 0) *)
  admission_timeout_ms : int; (** max time a statement may queue *)
  per_client_cap : int;
      (** max slots one authenticated client may hold at once; 0
          disables the quota.  Prevents one greedy client from
          monopolizing the gate: over-cap statements queue as usual but
          a deadline expiry while quota-blocked is shed with the typed
          [Quota] reason instead of [Deadline]. *)
}

val default_config : config

type t

val create : Metrics.registry -> config -> t
(** Admission and shed counters, and the running / queued / EWMA
    service-time gauges, register in the registry.
    @raise Invalid_argument on a non-positive gate or negative queue. *)

val admit : ?client:string -> t -> (unit -> 'a) -> 'a
(** Run the thunk inside an execution slot, queueing if the gate is
    full.  [client] is the quota identity (an authenticated token);
    with [per_client_cap] set, a client at its cap queues even while
    the gate has room.  @raise Errors.Overloaded when shed (queue full,
    deadline exceeded, quota-blocked at deadline, or draining) — the
    thunk never ran. *)

val begin_drain : t -> unit
(** Stop admitting: queued waiters are flushed with [Overloaded],
    running statements are left to finish (or be cancelled by the
    caller).  Irreversible. *)

val draining : t -> bool

val await_idle : t -> timeout_ms:int -> bool
(** Block until nothing is running or queued; [false] on timeout. *)

val stop : t -> unit
(** Join the ticker thread.  Call after {!begin_drain} at shutdown. *)

val running : t -> int
val queued : t -> int

val client_running : t -> string -> int
(** Slots currently held by one client token. *)
