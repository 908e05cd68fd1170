(** Engine-wide error reporting.

    Each processing phase raises its own exception so tests and callers
    can distinguish failure classes; user-facing entry points render the
    payload with {!to_string}. *)

exception Type_error of string
exception Name_error of string
exception Parse_error of string
exception Plan_error of string
exception Exec_error of string

(** {1 Resource-governor violations}

    Budget checks, the cooperative cancellation token and the
    fault-injection harness raise {!Resource_error} with a structured
    payload: the violation kind, the plan operator whose cursor or
    materialization tripped (when known), and a human-readable detail
    line.  Tests and the engine's degradation logic switch on [kind]
    rather than parsing messages. *)

type resource_kind =
  | Timeout          (** wall-clock budget exhausted *)
  | Memory_exceeded  (** accounted materialization bytes over the ceiling *)
  | Row_limit        (** statement produced more output rows than allowed *)
  | Cancelled        (** the statement's cancellation token was flipped *)
  | Injected_fault   (** raised by the deterministic fault harness *)

type resource_violation = {
  kind : resource_kind;
  operator : string option;
  detail : string;
}

exception Resource_error of resource_violation

val resource_errorf :
  ?operator:string -> resource_kind ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a

val resource_kind_to_string : resource_kind -> string
val resource_violation_to_string : resource_violation -> string

(** {1 Recovery failures}

    The durability layer distinguishes the expected crash artifact — a
    torn WAL tail, which recovery quarantines and truncates before
    continuing — from real corruption (a bad record with valid records
    after it, a snapshot failing its checksum, an unreadable WAL
    header), which aborts recovery with {!Recovery_error} rather than
    silently dropping committed statements.  A quarantined tail is
    reported through the same typed payload (see [Recovery.outcome]). *)

type recovery_kind =
  | Torn_tail            (** incomplete record at the end of the WAL *)
  | Mid_log_corruption   (** bad checksum with valid records after it *)
  | Snapshot_corrupt     (** snapshot magic / checksum / decode failure *)
  | Wal_header_corrupt   (** unreadable WAL header or epoch mismatch *)

type recovery_violation = {
  rkind : recovery_kind;
  at_offset : int;  (** byte offset in the offending file; [-1] = n/a *)
  rdetail : string;
}

exception Recovery_error of recovery_violation

val recovery_errorf :
  ?at_offset:int -> recovery_kind ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a

val recovery_kind_to_string : recovery_kind -> string
val recovery_violation_to_string : recovery_violation -> string

(** {1 Transaction conflicts}

    First-committer-wins aborts under snapshot isolation: a COMMIT whose
    write set overlaps a table someone else committed to after this
    transaction's snapshot was taken raises {!Txn_conflict}.  The
    concurrent-session driver treats these as expected traffic (retry or
    report), so the payload is structured rather than a message. *)

type txn_violation = {
  txn_id : int;  (** aborted transaction's id; [-1] = n/a (misuse) *)
  conflict_table : string option;
      (** table whose last committer overtook this transaction's
          snapshot; [None] for transaction-control misuse *)
  tdetail : string;
}

exception Txn_conflict of txn_violation

val txn_conflictf :
  ?txn_id:int -> ?conflict_table:string ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a

val txn_violation_to_string : txn_violation -> string

(** {1 Admission-control sheds}

    The network front end's admission controller raises {!Overloaded}
    when offered load exceeds capacity: the statement was never
    admitted (nothing ran, nothing to undo) and the payload tells the
    client how deep the queue was and when retrying is likely to
    succeed.  Wire clients switch on this class to back off instead of
    treating a shed as a statement failure. *)

type overload_info = {
  queue_depth : int;     (** admission-queue occupancy at shed time *)
  retry_after_ms : int;  (** backoff hint from the recent service rate *)
  odetail : string;
}

exception Overloaded of overload_info

val overloadedf :
  queue_depth:int -> retry_after_ms:int ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a

val overload_to_string : overload_info -> string

(** {1 Single-writer violations}

    A replica (or a primary that degraded after a disk-full event)
    answers write statements with {!Read_only}: a machine-readable
    redirect naming the writable primary when one is known, so clients
    can re-issue the statement there instead of retrying locally. *)

type read_only_info = {
  primary : string option;  (** "host:port" of the writable primary *)
  ro_detail : string;
}

exception Read_only of read_only_info

val read_onlyf :
  ?primary:string -> ('a, Format.formatter, unit, 'b) format4 -> 'a

val read_only_to_string : read_only_info -> string

exception Disk_full of string
(** The data directory's device rejected a WAL append or a snapshot
    write (ENOSPC or the injected equivalent); the engine degrades to
    read-only instead of crashing. *)

val disk_fullf : ('a, Format.formatter, unit, 'b) format4 -> 'a

val type_errorf : ('a, Format.formatter, unit, 'b) format4 -> 'a
val name_errorf : ('a, Format.formatter, unit, 'b) format4 -> 'a
val parse_errorf : ('a, Format.formatter, unit, 'b) format4 -> 'a
val plan_errorf : ('a, Format.formatter, unit, 'b) format4 -> 'a
val exec_errorf : ('a, Format.formatter, unit, 'b) format4 -> 'a

val to_string : exn -> string
(** Render an engine exception as a one-line message; re-raises foreign
    exceptions. *)

val is_engine_error : exn -> bool

val error_class : exn -> string
(** The stable class of an engine error ([Resource_error]'s violation
    kind, ["type"], ["exec"], ["disk_full"], ...), free of the message's
    varying details: what wire clients switch on and what [Session]
    digests failed statements by.  ["internal"] for any other exception. *)
