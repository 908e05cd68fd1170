(* Engine-wide error reporting.

   Every layer of the engine raises one of these exceptions; user-facing
   entry points (the CLI, the [Engine] facade) catch them and render the
   payload.  We deliberately use distinct exceptions per phase so tests can
   assert on the failure class. *)

exception Type_error of string
(** A value or expression was used at the wrong type. *)

exception Name_error of string
(** An unresolvable or ambiguous column / table / variable name. *)

exception Parse_error of string
(** Raised by the SQL lexer/parser with position information. *)

exception Plan_error of string
(** A malformed logical plan (bad arity, unknown column, ...). *)

exception Exec_error of string
(** A runtime evaluation failure. *)

(* Resource-governor violations get their own structured exception: the
   engine's budget checks, cancellation token and fault-injection
   harness all raise through here, so callers (Engine, Session, the
   CLI, the chaos suite) can switch on the kind instead of parsing a
   message, and the operator field carries provenance — which plan
   operator's cursor or materialization tripped the budget. *)

type resource_kind =
  | Timeout
  | Memory_exceeded
  | Row_limit
  | Cancelled
  | Injected_fault

type resource_violation = {
  kind : resource_kind;
  operator : string option;  (* [Plan.op_name]-style provenance *)
  detail : string;
}

exception Resource_error of resource_violation

let resource_kind_to_string = function
  | Timeout -> "timeout"
  | Memory_exceeded -> "memory limit exceeded"
  | Row_limit -> "row limit exceeded"
  | Cancelled -> "cancelled"
  | Injected_fault -> "injected fault"

let resource_errorf ?operator kind fmt =
  Format.kasprintf
    (fun detail -> raise (Resource_error { kind; operator; detail }))
    fmt

let resource_violation_to_string (v : resource_violation) =
  Printf.sprintf "%s%s%s"
    (resource_kind_to_string v.kind)
    (if v.detail = "" then "" else ": " ^ v.detail)
    (match v.operator with
    | None -> ""
    | Some op -> Printf.sprintf " (in %s)" op)

(* Durability-layer failures are structured the same way: recovery
   distinguishes the expected crash artifact (a torn tail, quarantined
   and truncated so recovery still succeeds) from real corruption (a bad
   record with valid records after it, a snapshot failing its checksum,
   an unreadable WAL header), which aborts recovery with this typed
   exception instead of silently losing committed statements. *)

type recovery_kind =
  | Torn_tail
  | Mid_log_corruption
  | Snapshot_corrupt
  | Wal_header_corrupt

type recovery_violation = {
  rkind : recovery_kind;
  at_offset : int;  (* byte offset in the WAL / snapshot file; -1 = n/a *)
  rdetail : string;
}

exception Recovery_error of recovery_violation

let recovery_kind_to_string = function
  | Torn_tail -> "torn tail"
  | Mid_log_corruption -> "mid-log corruption"
  | Snapshot_corrupt -> "snapshot corrupt"
  | Wal_header_corrupt -> "WAL header corrupt"

let recovery_errorf ?(at_offset = -1) rkind fmt =
  Format.kasprintf
    (fun rdetail -> raise (Recovery_error { rkind; at_offset; rdetail }))
    fmt

let recovery_violation_to_string (v : recovery_violation) =
  Printf.sprintf "%s%s%s"
    (recovery_kind_to_string v.rkind)
    (if v.at_offset < 0 then ""
     else Printf.sprintf " at offset %d" v.at_offset)
    (if v.rdetail = "" then "" else ": " ^ v.rdetail)

(* Transaction-control failures are typed so the concurrent-session
   driver and the serializability suite can switch on the conflict case
   (first-committer-wins aborts are expected traffic, not bugs) without
   parsing messages. *)

type txn_violation = {
  txn_id : int;          (* aborted transaction; -1 = n/a (misuse) *)
  conflict_table : string option;
      (* table whose last committer overtook this transaction's
         snapshot; None for BEGIN-in-txn style misuse *)
  tdetail : string;
}

exception Txn_conflict of txn_violation

let txn_conflictf ?(txn_id = -1) ?conflict_table fmt =
  Format.kasprintf
    (fun tdetail ->
      raise (Txn_conflict { txn_id; conflict_table; tdetail }))
    fmt

let txn_violation_to_string (v : txn_violation) =
  Printf.sprintf "%s%s"
    v.tdetail
    (match v.conflict_table with
    | None -> ""
    | Some t -> Printf.sprintf " (table %s)" t)

(* Admission-control sheds are typed so wire clients (and the open-loop
   bench driver) can distinguish "the server is over capacity, back off
   and retry" from a statement that actually failed.  The payload
   carries the observable a client needs to behave well under overload:
   the queue depth it was shed behind and a retry-after hint derived
   from the recent service rate. *)

type overload_info = {
  queue_depth : int;     (* admission-queue occupancy at shed time *)
  retry_after_ms : int;  (* backoff hint from the recent service rate *)
  odetail : string;
}

exception Overloaded of overload_info

let overloadedf ~queue_depth ~retry_after_ms fmt =
  Format.kasprintf
    (fun odetail -> raise (Overloaded { queue_depth; retry_after_ms; odetail }))
    fmt

let overload_to_string (o : overload_info) =
  Printf.sprintf "%s (queue depth %d, retry after %d ms)"
    (if o.odetail = "" then "server over capacity" else o.odetail)
    o.queue_depth o.retry_after_ms

(* Single-writer violations are typed so a replica (or a primary that
   degraded after a disk-full event) can answer writes with a machine-
   readable redirect instead of a generic failure: the payload names the
   primary when one is known, so a well-behaved client can re-issue the
   statement there. *)

type read_only_info = {
  primary : string option;  (* "host:port" of the writable primary, if known *)
  ro_detail : string;
}

exception Read_only of read_only_info

let read_onlyf ?primary fmt =
  Format.kasprintf
    (fun ro_detail -> raise (Read_only { primary; ro_detail }))
    fmt

let read_only_to_string (r : read_only_info) =
  Printf.sprintf "%s%s" r.ro_detail
    (match r.primary with
    | None -> ""
    | Some p -> Printf.sprintf " (primary at %s)" p)

exception Disk_full of string
(** The data directory's device rejected a WAL append or a snapshot
    write (ENOSPC, or the injected equivalent).  The engine reacts by
    degrading to read-only rather than crashing: in-memory state may be
    ahead of the durable log at that point, which is exactly the
    already-handled crash window. *)

let disk_fullf fmt = Format.kasprintf (fun s -> raise (Disk_full s)) fmt

let type_errorf fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt
let name_errorf fmt = Format.kasprintf (fun s -> raise (Name_error s)) fmt
let parse_errorf fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt
let plan_errorf fmt = Format.kasprintf (fun s -> raise (Plan_error s)) fmt
let exec_errorf fmt = Format.kasprintf (fun s -> raise (Exec_error s)) fmt

(** Render any engine exception as a one-line message; re-raises foreign
    exceptions. *)
let to_string = function
  | Type_error m -> "type error: " ^ m
  | Name_error m -> "name error: " ^ m
  | Parse_error m -> "parse error: " ^ m
  | Plan_error m -> "plan error: " ^ m
  | Exec_error m -> "execution error: " ^ m
  | Resource_error v -> "resource error: " ^ resource_violation_to_string v
  | Recovery_error v -> "recovery error: " ^ recovery_violation_to_string v
  | Txn_conflict v -> "transaction conflict: " ^ txn_violation_to_string v
  | Overloaded o -> "overloaded: " ^ overload_to_string o
  | Read_only r -> "read-only: " ^ read_only_to_string r
  | Disk_full m -> "disk full: " ^ m
  | e -> raise e

let is_engine_error = function
  | Type_error _ | Name_error _ | Parse_error _ | Plan_error _ | Exec_error _
  | Resource_error _ | Recovery_error _ | Txn_conflict _ | Overloaded _
  | Read_only _ | Disk_full _ ->
      true
  | _ -> false

(* The stable class of an engine error: what wire clients switch on and
   what [Session] digests failed statements by.  A class never carries
   the message's details (byte counts, timings, names), which vary
   between runs of the same statement. *)
let error_class = function
  | Resource_error v -> resource_kind_to_string v.kind
  | Type_error _ -> "type"
  | Name_error _ -> "name"
  | Parse_error _ -> "parse"
  | Plan_error _ -> "plan"
  | Exec_error _ -> "exec"
  | Txn_conflict _ -> "txn_conflict"
  | Recovery_error _ -> "recovery"
  | Overloaded _ -> "overloaded"
  | Read_only _ -> "read_only"
  | Disk_full _ -> "disk_full"
  | _ -> "internal"
