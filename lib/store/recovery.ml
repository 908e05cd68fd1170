(* Recovery: rebuild the database a crash (or clean shutdown) left in a
   data directory.

   The directory holds at most three files we care about:

     wal.log           the current write-ahead log
     snapshot.db       the latest complete snapshot (atomically renamed)
     snapshot.db.tmp   an orphan from a crash before the rename — junk

   The state machine, keyed on the snapshot stamp (E, O) and the WAL
   header epoch W:

     no snapshot, no/empty WAL      fresh database, epoch 0
     no snapshot, W = 0             replay the whole log
     no snapshot, W > 0             Recovery_error: a checkpoint bumped
                                    the epoch, so a snapshot must exist
     snapshot, no WAL               trust the snapshot, restart at E+1
     snapshot, W = E                crash before the checkpoint's WAL
                                    reset: replay records at offset >= O
                                    (the snapshot already covers the rest)
     snapshot, W = E + 1            normal case: replay the whole log
     snapshot, other W              Recovery_error: the files disagree

   A torn tail — the one WAL state a crash legitimately produces — is
   quarantined (tail bytes copied to wal.quarantine-<epoch>, log
   truncated at the last valid record) and recovery continues; the
   typed violation is carried in the outcome, not raised.  Anything
   else (mid-log corruption, a bad snapshot checksum) aborts with
   [Errors.Recovery_error]: losing committed statements silently is the
   failure mode this module exists to prevent.

   Replay is logical: each [Stmt] record's canonical SQL is re-parsed
   and re-bound against the rebuilt catalog (the binder executes
   DDL/DML as a side effect); [Load_tpch] re-runs the deterministic
   generator with the logged seed, producing identical rows. *)

let wal_path dir = Filename.concat dir "wal.log"
let snapshot_path dir = Filename.concat dir "snapshot.db"

let quarantine_path dir ~epoch =
  Filename.concat dir (Printf.sprintf "wal.quarantine-%d" epoch)

type outcome = {
  snapshot_loaded : bool;
  replayed : int;                 (* WAL records re-applied *)
  quarantined : Errors.recovery_violation option;
  uncommitted_skipped : int;      (* statements of an in-flight transaction
                                     discarded with its trailing group *)
  recovered_epoch : int;          (* epoch the reopened WAL runs under *)
  recovered_wal_length : int;
  repl_position : (int * int) option;
      (* last replication mark in the committed prefix: the primary-side
         (epoch, offset) a replica's catch-up resumes from.  None on a
         primary (which never logs marks) or when a checkpoint has
         folded every mark into the snapshot. *)
  repl_diverged : bool;
      (* payload records committed after the last replication mark's
         group: this node has marks AND local writes of its own — a
         promoted ex-replica whose history can no longer be a prefix of
         any primary's.  Resuming from [repl_position] would silently
         rewind those writes, so the applier must refuse. *)
}

let file_size path =
  match Unix.stat path with
  | { Unix.st_size; _ } -> Some st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None

(* copy everything from [from] aside, then cut the log back so the
   reopened WAL appends over clean ground *)
let quarantine_tail ~(stats : Wal_stats.t) ~dir ~epoch path ~from ~file_length =
  let tail_len = file_length - from in
  let ic = open_in_bin path in
  let tail =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        seek_in ic from;
        really_input_string ic tail_len)
  in
  let qpath = quarantine_path dir ~epoch in
  let oc = open_out_bin qpath in
  output_string oc tail;
  close_out oc;
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd from;
  Unix.fsync fd;
  Unix.close fd;
  Metrics.add stats.Wal_stats.quarantined_bytes tail_len

(* A transaction group whose commit marker never made it to disk is a
   crash artifact exactly like a torn record: the transaction was never
   acknowledged.  [Store.log_txn] appends whole groups, so an open group
   can only be the log's trailing records; this returns where it starts
   (and its id and statement count) so recovery can quarantine from
   there — keeping the invariant that a reopened log never holds an
   embedded unterminated group. *)
let uncommitted_cut (records : (int * Wal.record) list) =
  List.fold_left
    (fun acc (off, r) ->
      match r with
      | Wal.Txn_begin id -> Some (off, id, 0)
      | Wal.Txn_commit _ -> None
      | Wal.Repl_mark _ -> acc  (* position-only: keeps the group open
                                   but is not a lost statement *)
      | Wal.Stmt _ | Wal.Load_tpch _ -> (
          match acc with
          | Some (o, id, n) -> Some (o, id, n + 1)
          | None -> None))
    None records

(* Latest replication mark in the committed prefix, plus divergence:
   marks live inside their batch's transaction group ([Txn_begin],
   statements, mark, [Txn_commit]), so after the uncommitted cut the
   last one seen is exactly the position whose data is fully applied.
   A payload record committed {e outside} a marked group after that
   mark means the node took writes of its own (it was promoted): its
   history is no longer a prefix of any primary's, and the stale mark
   must not be offered as a resume position. *)
let repl_lineage records =
  let mark, _, diverged =
    List.fold_left
      (fun (mark, in_marked, diverged) (_, r) ->
        match r with
        | Wal.Repl_mark { repl_epoch; repl_offset } ->
            (* statements earlier in this same group were replicated
               data: they cleared [diverged] retroactively by design *)
            (Some (repl_epoch, repl_offset), true, false)
        | Wal.Txn_commit _ -> (mark, false, diverged)
        | Wal.Txn_begin _ -> (mark, in_marked, diverged)
        | Wal.Stmt _ | Wal.Load_tpch _ ->
            (mark, in_marked,
             diverged || ((not in_marked) && mark <> None)))
      (None, false, false) records
  in
  (mark, diverged)

let replay_record catalog = function
  | Wal.Stmt sql ->
      ignore
        (Sql_binder.bind_statement catalog (Sql_parser.parse_statement sql))
  | Wal.Load_tpch { seed; msf } ->
      ignore (Tpch_gen.load ?seed catalog ~msf)
  | Wal.Txn_begin _ | Wal.Txn_commit _ | Wal.Repl_mark _ ->
      (* group markers and replication watermarks: recovery only ever
         replays complete groups (an unterminated trailing group is
         quarantined before replay), so the statements between the
         markers apply directly; the mark's position is reported in the
         outcome, not applied *)
      ()

let replay ~(stats : Wal_stats.t) catalog records ~from_offset =
  let n =
    List.fold_left
      (fun n (offset, record) ->
        if offset < from_offset then n
        else
          match record with
          | Wal.Txn_begin _ | Wal.Txn_commit _ | Wal.Repl_mark _ -> n
          | record ->
              replay_record catalog record;
              n + 1)
      0 records
  in
  Metrics.add stats.Wal_stats.replayed n;
  n

let recover ?(stats = Wal_stats.create (Metrics.registry ())) dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let wal_file = wal_path dir in
  let snap_file = snapshot_path dir in
  (* an orphan temp snapshot is the expected residue of a crash before
     the rename; the snapshot path itself is still the previous, intact
     snapshot — just discard the orphan *)
  let tmp = snap_file ^ ".tmp" in
  if Sys.file_exists tmp then Sys.remove tmp;
  let snapshot =
    if Sys.file_exists snap_file then begin
      let loaded = Snapshot.load snap_file in
      Metrics.incr stats.Wal_stats.snapshot_loads;
      Some loaded
    end
    else None
  in
  let wal_scan =
    match file_size wal_file with
    | None | Some 0 -> None  (* absent or created-then-crashed: fresh log *)
    | Some _ -> Some (Wal.scan wal_file)
  in
  match (snapshot, wal_scan) with
  | None, None ->
      let wal = Wal.create ~stats wal_file ~epoch:0 in
      ( Catalog.create (),
        wal,
        {
          snapshot_loaded = false;
          replayed = 0;
          quarantined = None;
          uncommitted_skipped = 0;
          recovered_epoch = 0;
          recovered_wal_length = Wal.length wal;
          repl_position = None;
          repl_diverged = false;
        } )
  | snapshot, Some scan ->
      let snap_epoch, from_offset, catalog =
        match snapshot with
        | None ->
            if scan.scanned_epoch <> 0 then
              Errors.recovery_errorf Errors.Wal_header_corrupt
                "WAL is at epoch %d but no snapshot exists — a checkpoint \
                 wrote one, where is it?"
                scan.scanned_epoch;
            (-1, 0, Catalog.create ())
        | Some { Snapshot.catalog; snap_epoch; wal_offset } ->
            if scan.scanned_epoch = snap_epoch then
              (* crash between the snapshot rename and the WAL reset:
                 the log still holds records the snapshot already
                 covers — skip them by offset *)
              (snap_epoch, wal_offset, catalog)
            else if scan.scanned_epoch = snap_epoch + 1 then
              (snap_epoch, 0, catalog)
            else
              Errors.recovery_errorf Errors.Wal_header_corrupt
                "snapshot covers epoch %d but the WAL is at epoch %d"
                snap_epoch scan.scanned_epoch
      in
      ignore snap_epoch;
      (* an in-flight transaction's trailing group subsumes any torn
         record beyond it: quarantine from whichever cut comes first *)
      let records, valid_length, quarantined, uncommitted_skipped =
        match uncommitted_cut scan.records with
        | Some (cut, id, stmts) ->
            let v =
              {
                Errors.rkind = Errors.Torn_tail;
                at_offset = cut;
                rdetail =
                  Printf.sprintf
                    "transaction %d in flight at the crash (%d statement(s), \
                     %d byte(s))"
                    id stmts (scan.file_length - cut);
              }
            in
            ( List.filter (fun (o, _) -> o < cut) scan.records,
              cut,
              Some v,
              stmts )
        | None -> (
            match scan.torn with
            | None -> (scan.records, scan.valid_length, None, 0)
            | Some v -> (scan.records, scan.valid_length, Some v, 0))
      in
      (match quarantined with
      | Some _ ->
          quarantine_tail ~stats ~dir ~epoch:scan.scanned_epoch wal_file
            ~from:valid_length ~file_length:scan.file_length
      | None -> ());
      let replayed = replay ~stats catalog records ~from_offset in
      let wal =
        Wal.open_existing ~stats wal_file ~epoch:scan.scanned_epoch
          ~length:valid_length
      in
      let repl_position, repl_diverged = repl_lineage records in
      ( catalog,
        wal,
        {
          snapshot_loaded = snapshot <> None;
          replayed;
          quarantined;
          uncommitted_skipped;
          recovered_epoch = scan.scanned_epoch;
          recovered_wal_length = valid_length;
          repl_position;
          repl_diverged;
        } )
  | Some { Snapshot.catalog; snap_epoch; _ }, None ->
      (* snapshot without a log: trust it and start a fresh log one
         epoch later (the epoch a checkpoint would have moved to) *)
      let wal = Wal.create ~stats wal_file ~epoch:(snap_epoch + 1) in
      ( catalog,
        wal,
        {
          snapshot_loaded = true;
          replayed = 0;
          quarantined = None;
          uncommitted_skipped = 0;
          recovered_epoch = snap_epoch + 1;
          recovered_wal_length = Wal.length wal;
          repl_position = None;
          repl_diverged = false;
        } )

(** Hex digest of the canonical whole-database serialization; two
    catalogs with the same tables, rows (in insertion order) and
    indexes digest identically.  The chaos suite compares a recovered
    database against an in-memory reference with this. *)
let db_digest catalog = Digest.to_hex (Digest.string (Snapshot.encode_body catalog))

let outcome_to_string o =
  Printf.sprintf
    "recovered epoch %d: snapshot %s, %d record(s) replayed%s%s"
    o.recovered_epoch
    (if o.snapshot_loaded then "loaded" else "absent")
    o.replayed
    (match o.quarantined with
    | None -> ""
    | Some v -> ", quarantined " ^ Errors.recovery_violation_to_string v)
    (if o.uncommitted_skipped = 0 then ""
     else
       Printf.sprintf ", %d uncommitted statement(s) discarded"
         o.uncommitted_skipped)
