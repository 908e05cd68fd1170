(* WAL-shipping replication over the wire protocol.

   Primary side: a subscriber turns its connection into a one-way
   stream.  The sender tails the durable WAL under the engine's commit
   lock (so a read never straddles a checkpoint truncation) and ships
   raw record bytes in batch frames; when it has nothing to ship it
   heartbeats, so the replica can distinguish "idle primary" from
   "dead primary".  A checkpoint bumps the WAL epoch and discards the
   old file, so a subscriber holding a stale epoch — or arriving with
   no usable position — gets a full snapshot transfer stamped with the
   position the stream then resumes from.

   Replica side: a reconnect loop (shared {!Net_client.Backoff} policy)
   subscribes from its durable replication mark, reassembles the byte
   stream, re-validates every record with the recovery scanner's own
   CRC framing, cuts the stream at complete commit units, and hands
   them to {!Engine.apply_replicated} — which logs each batch as one
   local transaction group ending in a {!Wal.Repl_mark}, making applied
   data and resume position crash-atomic.

   Divergence is a first-class refusal, not a heuristic: a subscriber
   whose local history cannot be a prefix of the primary's (an
   ex-primary with unmarked commits, a promoted replica that took
   writes, a position past the primary's durable end) is answered with
   a typed ["repl_diverged"] failure and must be re-bootstrapped
   explicitly.  A torn or gapped stream is retried from the durable
   mark; after [torn_strike_limit] consecutive failures the replica
   escalates to a snapshot re-sync. *)

let poll_interval = 0.002 (* sender/applier wake-up granularity *)
let heartbeat_every_ns = 100_000_000 (* 100ms of idle between heartbeats *)
let max_batch_bytes = 1 lsl 20 (* cap one batch frame at 1 MiB *)
let torn_strike_limit = 3

(* ---------- primary: the streaming hub ---------- *)

type hub = {
  db : Engine.t;
  hstats : Repl_stats.t;
  dirty : bool Atomic.t; (* set by the store's on-durable hook *)
}

let create_hub db =
  let hstats = Repl_stats.create (Engine.metrics db) in
  let hub = { db; hstats; dirty = Atomic.make true } in
  Engine.set_on_durable db (fun () -> Atomic.set hub.dirty true);
  hub

let hub_stats hub = hub.hstats

let send_snapshot hub fd =
  let epoch, offset, body = Engine.repl_snapshot hub.db in
  Wire.write_response fd (Wire.Repl_snapshot { epoch; offset; body });
  Metrics.incr hub.hstats.snapshots_sent;
  (epoch, offset)

let stream hub fd ~stopping (epoch0, offset0) =
  let pos_epoch = ref epoch0 and pos = ref offset0 in
  let last_beat = ref (Metrics.now_ns ()) in
  while not (stopping ()) do
    let cur_epoch, durable = Engine.repl_position hub.db in
    if cur_epoch <> !pos_epoch then begin
      (* the primary checkpointed: the epoch we were tailing is gone;
         re-sync the subscriber onto the new one *)
      let e, o = send_snapshot hub fd in
      pos_epoch := e;
      pos := o;
      last_beat := Metrics.now_ns ()
    end
    else if durable > !pos then begin
      let len = min max_batch_bytes (durable - !pos) in
      let data = Engine.repl_read_wal hub.db ~pos:!pos ~len in
      if data = "" then Thread.delay poll_interval
      else begin
        Wire.write_response fd
          (Wire.Repl_batch { epoch = cur_epoch; offset = !pos; data });
        Metrics.incr hub.hstats.batches_sent;
        Metrics.add hub.hstats.bytes_sent (String.length data);
        pos := !pos + String.length data;
        last_beat := Metrics.now_ns ()
      end
    end
    else begin
      let now = Metrics.now_ns () in
      if now - !last_beat >= heartbeat_every_ns then begin
        Wire.write_response fd
          (Wire.Repl_heartbeat { epoch = cur_epoch; offset = durable });
        Metrics.incr hub.hstats.heartbeats_sent;
        last_beat := now
      end;
      if not (Atomic.exchange hub.dirty false) then Thread.delay poll_interval
    end
  done;
  (* drain: the subscriber sees a clean goodbye, not a cut stream *)
  try Wire.write_response fd Wire.Goodbye
  with Unix.Unix_error _ | Wire.Protocol_error _ -> ()

(* Position rules for a subscriber claiming [(lineage, epoch, offset)]
   against our durable [(cur_epoch, durable)]:
   - [Unmarked]: local history that never came from replication —
     refuse; streaming anywhere would silently rewind it.
   - [Marked] ahead of us (future epoch, or our epoch past our durable
     end): the subscriber has history we don't — refuse.
   - [Marked] at our epoch within the durable prefix: resume streaming.
   - [Marked] at a stale epoch (we checkpointed since): the bytes it
     needs are gone — snapshot re-sync.
   - [Bootstrap]: snapshot. *)
let serve hub fd ~stopping ~(lineage : Wire.lineage) ~epoch ~offset =
  Metrics.incr hub.hstats.subscribers;
  Fun.protect
    ~finally:(fun () -> Metrics.decr hub.hstats.subscribers)
    (fun () ->
      match
        let cur_epoch, durable = Engine.repl_position hub.db in
        match lineage with
        | Wire.Unmarked ->
            Error
              (Printf.sprintf
                 "local history without a replication mark cannot be a \
                  prefix of this primary (position %d:%d) — wipe the data \
                  directory or re-bootstrap explicitly"
                 epoch offset)
        | Wire.Marked
          when epoch > cur_epoch || (epoch = cur_epoch && offset > durable) ->
            Error
              (Printf.sprintf
                 "subscriber position %d:%d is ahead of the primary's \
                  durable %d:%d — diverged history"
                 epoch offset cur_epoch durable)
        | Wire.Marked when epoch = cur_epoch -> Ok (epoch, offset)
        | Wire.Marked (* stale epoch *) | Wire.Bootstrap ->
            Ok (send_snapshot hub fd)
      with
      | Ok pos -> stream hub fd ~stopping pos
      | Error detail ->
          Metrics.incr hub.hstats.diverged_rejections;
          Wire.write_response fd
            (Wire.Failed { cls = "repl_diverged"; message = detail })
      | exception (Unix.Unix_error _ | Wire.Protocol_error _ | End_of_file)
        ->
          ()
      | exception e when Errors.is_engine_error e ->
          (try
             Wire.write_response fd
               (Wire.Failed { cls = "repl"; message = Errors.to_string e })
           with Unix.Unix_error _ | Wire.Protocol_error _ -> ()))

(* ---------- replica: the applier ---------- *)

type replica_state = Connecting | Syncing | Streaming | Diverged | Stopped

let state_to_string = function
  | Connecting -> "connecting"
  | Syncing -> "syncing"
  | Streaming -> "streaming"
  | Diverged -> "diverged"
  | Stopped -> "stopped"

type replica = {
  rdb : Engine.t;
  rstats : Repl_stats.t;
  host : string;
  port : int;
  dir : string;
  backoff : Net_client.Backoff.t;
  mu : Mutex.t;
  mutable state : replica_state;
  mutable position : (int * int) option; (* durably applied, primary coords *)
  mutable initial_lineage : Wire.lineage; (* when [position] is None *)
  mutable force_bootstrap : bool; (* torn-strike escalation *)
  mutable torn_strikes : int;
  mutable sock : Unix.file_descr option;
  mutable stop_flag : bool;
  mutable last_contact_ns : int;
  mutable thread : Thread.t option;
}

let lineage_path dir = Filename.concat dir "repl.lineage"

(* The marker distinguishing "this directory belongs to a replica" from
   an ex-primary after a crash in the window where a checkpoint erased
   every mark from the local WAL: with the file, a mark-less recovery
   is safe to re-bootstrap; without it, it is diverged history. *)
let write_lineage_file dir =
  let oc = open_out (lineage_path dir) in
  output_string oc "replica\n";
  close_out oc

let replica_state r = Mutex.protect r.mu (fun () -> r.state)
let replica_position r = Mutex.protect r.mu (fun () -> r.position)
let replica_stats r = r.rstats

let set_state r s = Mutex.protect r.mu (fun () -> r.state <- s)
let stopped r = Mutex.protect r.mu (fun () -> r.stop_flag)

let status r =
  Mutex.protect r.mu (fun () ->
      Printf.sprintf "replica of %s:%d: %s%s (torn strikes %d)" r.host r.port
        (state_to_string r.state)
        (match r.position with
        | Some (e, o) -> Printf.sprintf " at %d:%d" e o
        | None -> "")
        r.torn_strikes)

(* A backoff sleep that a concurrent [stop]/[promote] can cut short. *)
let sleep_interruptible r ms =
  let slices = (ms + 9) / 10 in
  let i = ref 0 in
  while !i < slices && not (stopped r) do
    Thread.delay 0.01;
    incr i
  done

let note_torn r =
  Metrics.incr r.rstats.torn_detected;
  Mutex.protect r.mu (fun () ->
      r.torn_strikes <- r.torn_strikes + 1;
      if r.torn_strikes >= torn_strike_limit then r.force_bootstrap <- true)

let note_progress r mark =
  Mutex.protect r.mu (fun () ->
      r.position <- Some mark;
      r.torn_strikes <- 0;
      r.force_bootstrap <- false);
  Net_client.Backoff.reset r.backoff

(* Cut the reassembly buffer at the last complete commit unit boundary
   (a bare statement/load, or a whole Txn_begin..Txn_commit group),
   apply those units, and durably advance the mark.  Bytes past the cut
   stay buffered until the next batch completes them.  [Error] means
   the stream itself is torn (bad marker or checksum), never "need more
   bytes". *)
let drain_units r buf ~epoch ~base =
  let data = Buffer.contents buf in
  let units = ref [] and current = ref [] in
  let in_txn = ref false in
  let unit_end = ref 0 in
  let pos = ref 0 in
  let torn = ref false and stop = ref false in
  while not !stop do
    match Wal.parse_at data !pos with
    | Wal.Eof | Wal.Incomplete -> stop := true
    | Wal.Bad _ ->
        torn := true;
        stop := true
    | Wal.Record (record, next) ->
        (match record with
        | Wal.Txn_begin _ ->
            in_txn := true;
            current := [ record ]
        | Wal.Txn_commit _ ->
            current := record :: !current;
            units := List.rev !current :: !units;
            current := [];
            in_txn := false;
            unit_end := next
        | Wal.Stmt _ | Wal.Load_tpch _ | Wal.Repl_mark _ ->
            if !in_txn then current := record :: !current
            else begin
              units := [ record ] :: !units;
              unit_end := next
            end);
        pos := next
  done;
  if !torn then Error ()
  else begin
    (if !unit_end > 0 then begin
       let units = List.rev !units in
       let mark = (epoch, !base + !unit_end) in
       Engine.apply_replicated r.rdb units ~mark;
       note_progress r mark;
       Metrics.incr r.rstats.batches_applied;
       Metrics.add r.rstats.units_applied (List.length units);
       Repl_stats.set_applied r.rstats ~epoch ~offset:(snd mark);
       let rest = String.sub data !unit_end (String.length data - !unit_end) in
       Buffer.clear buf;
       Buffer.add_string buf rest;
       base := !base + !unit_end
     end);
    Ok ()
  end

(* One subscription: send the claim, then consume the stream until it
   ends (EOF, goodbye, fault) or we are stopped.  Divergence flips the
   terminal state. *)
let stream_once r fd =
  let lineage, (sub_epoch, sub_offset) =
    Mutex.protect r.mu (fun () ->
        if r.force_bootstrap then (Wire.Bootstrap, (0, 0))
        else
          match r.position with
          | Some (e, o) -> (Wire.Marked, (e, o))
          | None -> (r.initial_lineage, (0, 0)))
  in
  Wire.write_request fd
    (Wire.Repl_subscribe { lineage; epoch = sub_epoch; offset = sub_offset });
  set_state r (match lineage with Wire.Marked -> Streaming | _ -> Syncing);
  let buf = Buffer.create 65536 in
  let cur_epoch = ref sub_epoch and base = ref sub_offset in
  let continue_ = ref true in
  while !continue_ && not (stopped r) do
    match Wire.read_response fd with
    | None | Some Wire.Goodbye -> continue_ := false
    | Some (Wire.Failed { cls = "repl_diverged"; _ }) ->
        set_state r Diverged;
        continue_ := false
    | Some (Wire.Failed _) -> continue_ := false
    | Some (Wire.Repl_snapshot { epoch; offset; body }) ->
        Engine.install_replica_snapshot r.rdb ~mark:(epoch, offset) body;
        note_progress r (epoch, offset);
        Buffer.clear buf;
        cur_epoch := epoch;
        base := offset;
        r.last_contact_ns <- Metrics.now_ns ();
        Metrics.incr r.rstats.snapshots_installed;
        Repl_stats.set_applied r.rstats ~epoch ~offset;
        Repl_stats.set_primary_position r.rstats ~epoch ~offset;
        set_state r Streaming
    | Some (Wire.Repl_heartbeat { epoch; offset }) ->
        r.last_contact_ns <- Metrics.now_ns ();
        Repl_stats.set_primary_position r.rstats ~epoch ~offset
    | Some (Wire.Repl_batch { epoch; offset; data }) ->
        r.last_contact_ns <- Metrics.now_ns ();
        if epoch <> !cur_epoch || offset <> !base + Buffer.length buf then begin
          (* bytes went missing between frames: same treatment as a
             checksum fault — drop the stream, resume from the mark *)
          note_torn r;
          continue_ := false
        end
        else begin
          Buffer.add_string buf data;
          Repl_stats.set_primary_position r.rstats ~epoch
            ~offset:(offset + String.length data);
          match drain_units r buf ~epoch ~base with
          | Ok () -> ()
          | Error () ->
              note_torn r;
              continue_ := false
        end
    | Some (Wire.Rows _ | Wire.Message _ | Wire.Explanation _
           | Wire.Overloaded _) ->
        (* not a replication frame: the peer is not a primary *)
        continue_ := false
    | exception Wire.Protocol_error _ ->
        note_torn r;
        continue_ := false
    | exception (Unix.Unix_error _ | End_of_file) -> continue_ := false
  done

let run r =
  let first = ref true in
  while (not (stopped r)) && replica_state r <> Diverged do
    if not !first then Metrics.incr r.rstats.reconnects;
    first := false;
    set_state r Connecting;
    (match Wire.dial ~host:r.host ~port:r.port with
    | fd ->
        Mutex.protect r.mu (fun () -> r.sock <- Some fd);
        (try stream_once r fd with
        | Unix.Unix_error _ ->
            (* the primary dropped the connection before the stream
               loop took over (the subscribe write): reconnect *)
            ()
        | e when Errors.is_engine_error e ->
            (* an apply failure is a replica bug or local disk trouble;
               surfacing it as a torn stream forces escalation instead
               of a silent tight loop *)
            note_torn r);
        Mutex.protect r.mu (fun () -> r.sock <- None);
        (try Unix.close fd with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ());
    if (not (stopped r)) && replica_state r <> Diverged then
      sleep_interruptible r (Net_client.Backoff.next_delay_ms r.backoff)
  done;
  if stopped r then set_state r Stopped

let start_replica ?(seed = 0) ~host ~port db =
  let dir =
    match Engine.data_dir db with
    | Some d -> d
    | None -> Errors.exec_errorf "replication requires a data directory"
  in
  let rstats = Repl_stats.create (Engine.metrics db) in
  let position, initial_lineage =
    match
      (Engine.repl_recovered_position db, Engine.repl_recovered_diverged db)
    with
    | Some p, false -> (Some p, Wire.Marked)
    | Some _, true -> (None, Wire.Unmarked)
    | None, _ ->
        if Sys.file_exists (lineage_path dir) || Engine.watermark db = 0 then
          (None, Wire.Bootstrap)
        else (None, Wire.Unmarked)
  in
  Engine.set_read_only db
    (Some
       {
         Errors.primary = Some (Printf.sprintf "%s:%d" host port);
         ro_detail = "replica: writes must go to the primary";
       });
  if initial_lineage <> Wire.Unmarked then write_lineage_file dir;
  let r =
    {
      rdb = db;
      rstats;
      host;
      port;
      dir;
      backoff = Net_client.Backoff.create ~base_ms:5 ~cap_ms:500 ~seed ();
      mu = Mutex.create ();
      state = Connecting;
      position;
      initial_lineage;
      force_bootstrap = false;
      torn_strikes = 0;
      sock = None;
      stop_flag = false;
      last_contact_ns = Metrics.now_ns ();
      thread = None;
    }
  in
  (match position with
  | Some (epoch, offset) -> Repl_stats.set_applied rstats ~epoch ~offset
  | None -> ());
  r.thread <- Some (Thread.create run r);
  r

let inject_disconnect r =
  match Mutex.protect r.mu (fun () -> r.sock) with
  | Some fd -> (
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
  | None -> ()

let stop_replica r =
  Mutex.protect r.mu (fun () -> r.stop_flag <- true);
  inject_disconnect r;
  (match r.thread with Some th -> Thread.join th | None -> ());
  r.thread <- None;
  set_state r Stopped

let promote r =
  stop_replica r;
  (try Sys.remove (lineage_path r.dir) with Sys_error _ -> ());
  Engine.set_read_only r.rdb None
