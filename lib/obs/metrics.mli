(** Observability primitives — atomic counters, accumulating timers, a
    monotonic clock — and the metrics registry.

    Everything here is safe to update from several domains at once —
    the per-operator instrumentation runs inside
    [Domain_pool.parallel_map_array] workers during the parallel
    execution phase of GApply, so counters use [Atomic] fetch-and-add
    (no lost updates) and timers accumulate non-negative spans
    atomically. *)

type counter
(** Also the handle of a registered gauge. *)

val counter : unit -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val get : counter -> int
val reset : counter -> unit
val set : counter -> int -> unit
val decr : counter -> unit

val raise_to : counter -> int -> unit
(** Max gauge: raise the value to [n] if higher. *)

val now_ns : unit -> int
(** Monotonic clock reading in nanoseconds ([CLOCK_MONOTONIC] via
    bechamel's stub — immune to wall-clock adjustments).  Only
    differences between two readings are meaningful. *)

type timer
(** A timer accumulates elapsed nanosecond spans; it is not a stopwatch
    (concurrent spans from several domains simply sum). *)

val timer : unit -> timer

val add_span : timer -> int -> unit
(** Accumulate one elapsed span; non-positive spans are ignored, so a
    timer never decreases. *)

val elapsed_ns : timer -> int
val reset_timer : timer -> unit

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk and add its elapsed time (also on exception). *)

(** {1 Registry}

    A registry holds metric families: a name, help text, a type
    (counter or gauge) and at most one label.  Each engine owns one;
    its subsystems register their handles in it at creation and update
    them with the primitives above — no name lookup, lock or allocation
    per update.  Registering an existing name (and label value) returns
    the existing handle, so two owners of the same subsystem share its
    counters. *)

type registry

val registry : unit -> registry

val counter_in :
  registry -> ?label:string * string -> help:string -> string -> counter
(** [counter_in reg ~help name], or one series [name{label="value"}] of a
    labelled family with [~label:(label, value)]. *)

val gauge_in :
  registry -> ?label:string * string -> help:string -> string -> counter

val derived : registry -> help:string -> string -> (unit -> int) -> unit
(** A gauge computed when read.  Re-registering the name replaces the
    reader (the newest owner wins). *)

val derived_float : registry -> help:string -> string -> (unit -> float) -> unit

val names : registry -> string list
(** Family names in registration order. *)

val read : registry -> ?label:string -> string -> int
(** Current value of one series.  @raise Invalid_argument if absent. *)

val prometheus : registry -> string
(** Prometheus text exposition: one [# HELP] and one [# TYPE] line per
    family, then its samples ([name value] or [name{label="v"} value]). *)

val line : registry -> string list -> string
(** The one-line [key=value] form of every family whose name starts
    with one of the prefixes: the key is the name without that prefix
    and [_total], plus [_<label value>] for labelled series.  Byte and
    nanosecond families ([*_bytes], [*_ns]) drop the unit from the key
    and print at a human scale. *)
