(* The durability policy layer the engine talks to: one value per
   database directory bundling the recovered catalog, the open WAL, the
   durability mode, and the checkpoint trigger.

   Commit protocol (driven by Engine): a DDL/DML statement is applied
   in memory first; only if it succeeds is it logged here.  A crash
   after the in-memory apply but before the log write loses nothing —
   the statement was never acknowledged.  What [log_statement] then
   does depends on the mode:

     Off     nothing touches the WAL at all (the hot path is exactly
             the in-memory engine; see the durability bench)
     Lazy    append, group-commit fsync every [group_commit] records
     Strict  append + fsync before the statement is acknowledged

   After every logged commit the engine runs the auto-checkpoint: once
   the WAL passes [checkpoint_bytes], a snapshot is cut and the log
   reset, bounding both recovery time and disk growth.  It runs after
   the commit is published, outside the statement's outcome: the record
   is already in the log, so a snapshot that fails leaves the WAL in
   place for the next commit to retry.

   Checkpoint sequence (each step a crash may interrupt, each state
   recoverable):

     1. fsync the WAL                    crash: plain replay
     2. snapshot -> temp file, fsync     crash: orphan .tmp, ignored
     3. rename over snapshot.db          crash before: old snapshot wins
        [Fault.Checkpoint fires here]    crash after: snapshot + full
                                         WAL coexist; the offset stamp
                                         keeps replay idempotent
     4. WAL reset under epoch + 1        done

   Switching Off -> Lazy/Strict must re-base first: statements executed
   under Off never reached the log, so the WAL no longer describes the
   in-memory state.  A checkpoint folds that state into a snapshot and
   the gap disappears. *)

type durability = Off | Lazy | Strict

let durability_to_string = function
  | Off -> "off"
  | Lazy -> "lazy"
  | Strict -> "strict"

let durability_of_string s =
  match String.lowercase_ascii s with
  | "off" -> Some Off
  | "lazy" -> Some Lazy
  | "strict" -> Some Strict
  | _ -> None

let default_group_commit = 64
let default_checkpoint_bytes = 1 lsl 20  (* 1 MiB *)

type t = {
  dir : string;
  catalog : Catalog.t;
  wal : Wal.t;
  mutable durability : durability;
  mutable group_commit : int;
  mutable checkpoint_bytes : int;
  mutable closed : bool;
  mutable on_durable : unit -> unit;
      (* replication hook: called after any log write that may have
         advanced the durable prefix, so a streaming sender can wake
         instead of polling.  Must be cheap and non-raising. *)
}

let open_dir ?(durability = Strict) ?(group_commit = default_group_commit)
    ?(checkpoint_bytes = default_checkpoint_bytes) ~stats dir =
  let catalog, wal, outcome = Recovery.recover ~stats dir in
  ( {
      dir;
      catalog;
      wal;
      durability;
      group_commit;
      checkpoint_bytes;
      closed = false;
      on_durable = (fun () -> ());
    },
    outcome )

let dir t = t.dir
let catalog t = t.catalog
let durability t = t.durability
let group_commit t = t.group_commit
let checkpoint_bytes t = t.checkpoint_bytes
let wal_length t = Wal.length t.wal
let wal_epoch t = Wal.epoch t.wal
let wal_durable_length t = Wal.durable_length t.wal
let set_group_commit t n = t.group_commit <- max 1 n
let set_checkpoint_bytes t n = t.checkpoint_bytes <- n
let set_on_durable t f = t.on_durable <- f

let flush t =
  Wal.fsync t.wal;
  t.on_durable ()

(* Raw durable WAL bytes for the replication sender: a fresh read-only
   descriptor per call, so tailing never perturbs the append handle.
   Returns what the file holds in [pos, pos+len) — the caller only asks
   for ranges inside the durable prefix, and a concurrent checkpoint
   truncation is caught by the receiver's CRC/epoch validation. *)
let read_wal_bytes t ~pos ~len =
  let path = Recovery.wal_path t.dir in
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      let buf = Bytes.create len in
      let filled = ref 0 and eof = ref false in
      while (not !eof) && !filled < len do
        match Unix.read fd buf !filled (len - !filled) with
        | 0 -> eof := true
        | n -> filled := !filled + n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      Bytes.sub_string buf 0 !filled)

let checkpoint t =
  Wal.fsync t.wal;
  let epoch = Wal.epoch t.wal in
  let wal_offset = Wal.length t.wal in
  let bytes =
    Snapshot.write t.catalog ~epoch ~wal_offset
      ~path:(Recovery.snapshot_path t.dir)
  in
  if Fault.crash_now Fault.Checkpoint then raise (Fault.Crash Fault.Checkpoint);
  Wal.reset t.wal ~epoch:(epoch + 1);
  Metrics.incr (Wal.stats t.wal).Wal_stats.checkpoints;
  t.on_durable ();
  bytes

let set_durability t d =
  (if t.durability = Off && d <> Off then
     (* statements executed under Off never reached the log; fold the
        current state into a snapshot so the WAL starts clean *)
     ignore (checkpoint t));
  (if d = Off && t.durability <> Off then
     (* make what was already logged durable before going dark *)
     Wal.fsync t.wal);
  t.durability <- d

let sync_policy t =
  match t.durability with
  | Off -> ()
  | Strict -> Wal.fsync t.wal
  | Lazy -> if Wal.pending t.wal >= t.group_commit then Wal.fsync t.wal

let maybe_checkpoint t =
  if t.durability <> Off && t.checkpoint_bytes > 0
     && Wal.length t.wal >= t.checkpoint_bytes
  then ignore (checkpoint t)

let log_record t record =
  if t.durability <> Off then begin
    ignore (Wal.append t.wal record);
    sync_policy t;
    t.on_durable ()
  end

let log_statement t sql = log_record t (Wal.Stmt sql)
let log_load_tpch t ~seed ~msf = log_record t (Wal.Load_tpch { seed; msf })

(* A committed transaction is logged as one contiguous group —
   begin marker, its statements, commit marker — with a single sync
   decision at the end (the whole group is one durability unit, so
   Strict pays one fsync per transaction, not per statement).  The
   auto-checkpoint runs after the whole group, so a checkpoint can never
   split a transaction across the snapshot boundary. *)
let log_txn t ~id stmts =
  if t.durability <> Off then begin
    ignore (Wal.append t.wal (Wal.Txn_begin id));
    List.iter (fun sql -> ignore (Wal.append t.wal (Wal.Stmt sql))) stmts;
    ignore (Wal.append t.wal (Wal.Txn_commit id));
    sync_policy t;
    t.on_durable ()
  end

(* Replica-side batch logging: one applied replication batch becomes one
   local transaction group whose last payload record is the primary-side
   position it reached, followed by an unconditional fsync.  The group
   is the crash-atomicity unit — recovery either replays the whole batch
   (and resumes from its mark) or none of it, so catch-up can never
   duplicate or drop a shipped statement.  Ignores the durability mode:
   a replica that does not persist its position cannot resume, and the
   fsync doubles as the batch acknowledgement boundary.  No
   auto-checkpoint here — the applier checkpoints explicitly so it can
   re-log a fresh mark right after the WAL reset erases the old ones. *)
let log_repl_group t ~id ~mark:(repl_epoch, repl_offset) records =
  ignore (Wal.append t.wal (Wal.Txn_begin id));
  List.iter (fun r -> ignore (Wal.append t.wal r)) records;
  ignore (Wal.append t.wal (Wal.Repl_mark { repl_epoch; repl_offset }));
  ignore (Wal.append t.wal (Wal.Txn_commit id));
  Wal.fsync t.wal;
  t.on_durable ()

let close t =
  if not t.closed then begin
    if t.durability <> Off then Wal.fsync t.wal;
    Wal.close t.wal;
    t.closed <- true
  end
