(** Per-operator execution metrics and trace hooks.

    A sink is attached to one logical-to-physical compilation
    ([Compile.plan ~config:{... observe = Some sink ...}]).  During
    compilation every plan operator registers a {!node} (the metric tree
    mirrors the plan tree, children in plan-child order); at run time
    each operator's batch cursor is wrapped so that

    - every [brun] call counts as one {e invocation} (a per-group query
      under GApply is invoked once per group — the paper's per-group PGQ
      executions);
    - every yielded tuple bumps the node's row counter;
    - every pull adds its elapsed time to the node's (inclusive) timer,
      and the span from invocation to the first tuple accumulates into
      the time-to-first-tuple timer;
    - GApply / Group_by additionally record how many groups their
      partition phase formed.

    All counters are {!Metrics} atomics: the instrumented cursors of the
    parallel execution phase update them from pool domains without lost
    updates.  With [observe = None] the compiler emits no wrappers at
    all, so the tracing-off overhead is zero on the per-batch path.

    A sink observes one compiled plan; make a fresh sink per
    [Engine.exec] / per compilation (that is the reset boundary), or
    call {!reset} to zero an existing tree in place. *)

type event_kind = Open | Next | Close

type event = { op : string; node_id : int; kind : event_kind }
(** Trace event: [Open] fires when an operator's cursor is built (one
    per invocation), [Next] per yielded tuple, [Close] when the stream
    reports end-of-stream.  An abandoned cursor (e.g. the probe under
    EXISTS) opens without closing. *)

type hook = event -> unit
(** Called synchronously from whichever domain runs the operator —
    including pool workers — so a hook must be thread-safe. *)

type node
type t

val make : ?hook:hook -> unit -> t
val set_hook : t -> hook option -> unit

(** {1 Compile-side registration (used by [Compile])} *)

val enter : t -> op:string -> (node -> 'a) -> 'a
(** Register an operator under the node currently being compiled and
    run the continuation with it as the current node.  Single-threaded:
    compilation happens on the submitting domain. *)

val current : t -> node option
(** The node whose operator is currently being compiled. *)

(** {1 Run-side instrumentation} *)

val instrument_batch :
  t -> node -> len:('a -> int) -> (unit -> 'a option) -> unit -> 'a option
(** Wrap one batch cursor (one invocation): counts the invocation,
    emits [Open], then meters every pull as described above.  Each pull
    yields [len batch] rows, counted into [rows], with [batches]
    counting the pulls.  Trace hooks still receive one [Next] per row,
    and one [Close] when the stream first reports its end. *)

val instrument_batches :
  t -> node -> len:('a -> int) -> (unit -> 'a option) array ->
  (unit -> 'a option) array
(** {!instrument_batch} for one invocation whose output is pulled from
    several cursors, in any interleaving (the branches of a UNION ALL
    that an ORDER BY merges): one invocation and one [Open], every pull
    of every cursor metered, and the [Close] once each cursor has
    reported its end. *)

val record :
  t -> node -> invocations:int -> rows:int -> batches:int -> time_ns:int ->
  unit
(** Record [invocations] evaluated outside a cursor (a group-local
    per-group query node run inside its GApply's loop), which together
    yielded [rows] rows in [batches] pulls and took [time_ns]: the
    counts {!instrument_batch} records for as many cursors, with
    [time_ns] also added as time to first tuple when [rows > 0].  A
    hook receives the events at this call: [invocations] [Open]s, one
    [Next] per row, then [invocations] [Close]s.  The loop records once
    per GApply execution, or once per group when {!traced}. *)

val traced : t -> bool
(** Whether a trace hook is installed. *)

val add_partitions : node -> int -> unit
(** Record groups formed by a partition phase (GApply / Group_by). *)

(** {1 Reporting} *)

type stat = {
  op : string;  (** [Plan.op_name] of the operator *)
  invocations : int;
  rows : int;
  batches : int;  (** batch pulls *)
  partitions : int;
  time_ns : int;  (** inclusive of children (time spent inside pulls) *)
  ttft_ns : int;  (** summed invocation-to-first-tuple spans *)
  children : stat list;
}

val root : t -> node option
val snapshot : t -> stat option
(** Immutable copy of the metric tree (safe to take between runs). *)

val reset : t -> unit
(** Zero every counter/timer in the tree (the sink stays attached to
    its compiled plan, so the next run starts from scratch). *)

val flatten : stat -> (int * stat) list
(** Preorder [(depth, stat)] list — the shape benchmark JSON wants. *)

val pp_stat : Format.formatter -> stat -> unit
(** Bare metric tree (no estimates); [Engine] renders the full
    EXPLAIN ANALYZE report with the cost model's estimated column. *)
