(** WAL-shipping replication: primary-side streaming hub and
    replica-side applier.

    The primary tails its durable WAL and ships raw record bytes over
    the wire protocol (batch frames interleaved with heartbeats); the
    replica re-validates every record with the recovery scanner's CRC
    framing, applies complete commit units through the engine's MVCC
    path, and logs each applied batch as one local transaction group
    ending in a {!Wal.Repl_mark} — data and resume position are
    crash-atomic, so a restarted replica resumes exactly after its last
    applied unit with no loss and no duplicates.

    Failure matrix: a torn or gapped stream drops the connection and
    resumes from the durable mark (escalating to a snapshot re-sync
    after repeated strikes); a subscriber whose history cannot be a
    prefix of the primary's is refused with the typed
    ["repl_diverged"] error class; a dead primary is survived by the
    reconnect loop (exponential backoff with full jitter) until
    {!promote} turns the replica into a writable primary. *)

(** {1 Primary side} *)

type hub

val create_hub : Engine.t -> hub
(** Register the WAL-durability wake-up hook and return the hub the
    server hands each subscribing connection to.  Its counters register
    as [gapply_repl_*] in {!Engine.metrics} — the same handles a
    replica's applier on that engine uses. *)

val hub_stats : hub -> Repl_stats.t

val serve :
  hub ->
  Unix.file_descr ->
  stopping:(unit -> bool) ->
  lineage:Wire.lineage ->
  epoch:int ->
  offset:int ->
  unit
(** Turn one connection into a replication stream: apply the position
    rules to the subscriber's claim (stream, snapshot-then-stream, or a
    typed ["repl_diverged"] refusal), then ship batches and heartbeats
    until the peer vanishes or [stopping] flips (a drain, answered with
    a clean [Goodbye]).  Never raises: transport faults end the
    stream.  Runs on the connection's own thread. *)

(** {1 Replica side} *)

type replica

type replica_state =
  | Connecting  (** dialing, or waiting out a backoff delay *)
  | Syncing     (** subscribed, waiting for a snapshot transfer *)
  | Streaming   (** applying batches *)
  | Diverged    (** refused by the primary: terminal until re-bootstrap *)
  | Stopped

val start_replica :
  ?seed:int ->
  host:string ->
  port:int ->
  Engine.t ->
  replica
(** Put the engine in read-only mode (writes get the typed
    {!Errors.Read_only} naming the primary), classify the local
    directory's lineage (resume from a recovered mark, bootstrap a
    fresh/marked directory, or subscribe as diverged and be refused),
    and start the applier thread.  [seed] drives the reconnect
    backoff's jitter deterministically.
    @raise Errors.Exec_error without a data directory. *)

val replica_state : replica -> replica_state
val replica_position : replica -> (int * int) option
(** Durably applied position in primary (epoch, offset) coordinates. *)

val replica_stats : replica -> Repl_stats.t

val status : replica -> string
(** One-line human summary (the [\repl] meta-command's payload). *)

val inject_disconnect : replica -> unit
(** Chaos hook: tear the current stream's socket (a partition); the
    applier reconnects from its durable mark. *)

val stop_replica : replica -> unit
(** Stop and join the applier thread; the engine stays read-only. *)

val promote : replica -> unit
(** Failover: stop the applier, drop the replica lineage marker, and
    clear read-only mode — the engine now accepts writes as a primary.
    Durability of everything applied before the promote is already
    guaranteed by the mark groups. *)

val state_to_string : replica_state -> string
