(* Durability unit + integration suite: WAL codec and torn-tail policy,
   snapshot round-trips, recovery's epoch state machine, the engine's
   durability modes, and a qcheck round-trip property driving random
   DDL/DML with a checkpoint and a simulated crash.

   Crash *injection* sweeps (the four hook points) live in
   test_crash.ml; this file covers the mechanisms they rely on. *)

let counter = ref 0

let tmpdir () =
  incr counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gapply_store_%d_%d" (Unix.getpid ()) !counter)
  in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

let msg_or_fail = function
  | Engine.Message m -> m
  | Engine.Rows _ -> "rows"
  | Engine.Explanation _ -> "explanation"
  | Engine.Failed e -> Alcotest.failf "statement failed: %s" (Errors.to_string e)

let exec_ok db sql = ignore (msg_or_fail (Engine.exec db sql))

let digest db = Recovery.db_digest (Engine.catalog db)

(* ---------- WAL codec ---------- *)

let test_wal_roundtrip () =
  let dir = tmpdir () in
  let path = Recovery.wal_path dir in
  let wal = Wal.create path ~epoch:3 in
  let records =
    [
      Wal.Stmt "CREATE TABLE t (a INT)";
      Wal.Stmt "INSERT INTO t VALUES (1, 'x')";
      Wal.Load_tpch { seed = Some 42; msf = 0.25 };
      Wal.Load_tpch { seed = None; msf = 1.0 };
    ]
  in
  let offsets = List.map (Wal.append wal) records in
  Wal.fsync wal;
  Wal.close wal;
  let scan = Wal.scan path in
  Alcotest.(check int) "epoch" 3 scan.Wal.scanned_epoch;
  Alcotest.(check bool) "no tear" true (scan.Wal.torn = None);
  Alcotest.(check (list int)) "offsets" offsets
    (List.map fst scan.Wal.records);
  Alcotest.(check (list string)) "records"
    (List.map Wal.record_to_string records)
    (List.map (fun (_, r) -> Wal.record_to_string r) scan.Wal.records);
  Alcotest.(check int) "valid = file length" scan.Wal.file_length
    scan.Wal.valid_length

(* ---------- I/O hardening (injected short writes / EINTR) ---------- *)

(* Every write syscall is disturbed — interrupted by a fake signal or
   forced to a 1-byte partial write, round-robin — and the log must
   still come out byte-perfect: the retry loop in [Wal.write_all]
   accumulates progress across partial writes and treats EINTR as a
   zero-byte attempt. *)
let test_wal_survives_short_writes_and_eintr () =
  let dir = tmpdir () in
  let path = Recovery.wal_path dir in
  let flip = ref 0 in
  Wal.set_write_fault
    (Some
       (fun () ->
         incr flip;
         match !flip mod 3 with
         | 0 -> Some Wal.Eintr
         | 1 -> Some Wal.Short_write
         | _ -> None));
  Fun.protect ~finally:(fun () -> Wal.set_write_fault None) (fun () ->
      let wal = Wal.create path ~epoch:2 in
      let records =
        [
          Wal.Stmt "create table t (a int)";
          Wal.Txn_begin 5;
          Wal.Stmt "insert into t values (1)";
          Wal.Txn_commit 5;
          Wal.Load_tpch { seed = Some 7; msf = 0.5 };
        ]
      in
      List.iter (fun r -> ignore (Wal.append wal r)) records;
      Wal.fsync wal;
      Wal.close wal;
      let scan = Wal.scan path in
      Alcotest.(check int) "epoch survives faulted writes" 2
        scan.Wal.scanned_epoch;
      Alcotest.(check bool) "no tear" true (scan.Wal.torn = None);
      Alcotest.(check (list string)) "all records intact"
        (List.map Wal.record_to_string records)
        (List.map (fun (_, r) -> Wal.record_to_string r) scan.Wal.records))

(* A write that never makes progress (EINTR forever) must not spin: the
   retry loop gives up after [max_io_retries] consecutive progress-free
   attempts with a typed error, not a hang and not corruption. *)
let test_wal_progress_free_write_fails_typed () =
  let dir = tmpdir () in
  let path = Recovery.wal_path dir in
  Wal.set_write_fault (Some (fun () -> Some Wal.Eintr));
  Fun.protect ~finally:(fun () -> Wal.set_write_fault None) (fun () ->
      match Wal.create path ~epoch:0 with
      | exception Errors.Exec_error m ->
          Alcotest.(check bool)
            (Printf.sprintf "mentions the retry bound: %s" m)
            true
            (let needle = string_of_int Wal.max_io_retries in
             let n = String.length needle and len = String.length m in
             let rec go i = i + n <= len && (String.sub m i n = needle || go (i + 1)) in
             go 0)
      | _ -> Alcotest.fail "expected a typed exec error, got a WAL")

(* Transaction markers round-trip like any record, and a committed
   group replays while an unterminated trailing group is quarantined
   whole — recovery applies exactly the committed transactions. *)
let test_wal_txn_group_roundtrip () =
  let dir = tmpdir () in
  let path = Recovery.wal_path dir in
  let wal = Wal.create path ~epoch:0 in
  let records =
    [
      Wal.Stmt "create table t (a int)";
      Wal.Txn_begin 7;
      Wal.Stmt "insert into t values (1)";
      Wal.Stmt "insert into t values (2)";
      Wal.Txn_commit 7;
    ]
  in
  List.iter (fun r -> ignore (Wal.append wal r)) records;
  Wal.fsync wal;
  Wal.close wal;
  let scan = Wal.scan path in
  Alcotest.(check bool) "no tear" true (scan.Wal.torn = None);
  Alcotest.(check (list string)) "markers round-trip"
    (List.map Wal.record_to_string records)
    (List.map (fun (_, r) -> Wal.record_to_string r) scan.Wal.records);
  (* recovery replays the committed group *)
  let cat, wal', outcome = Recovery.recover dir in
  Wal.close wal';
  Alcotest.(check int) "both inserts replayed" 2
    (Table.cardinality (Catalog.find_table cat "t"));
  Alcotest.(check int) "markers are not counted as replayed statements" 3
    outcome.Recovery.replayed;
  Alcotest.(check int) "nothing skipped" 0
    outcome.Recovery.uncommitted_skipped

let test_wal_uncommitted_tail_quarantined () =
  let dir = tmpdir () in
  let path = Recovery.wal_path dir in
  let wal = Wal.create path ~epoch:0 in
  List.iter
    (fun r -> ignore (Wal.append wal r))
    [
      Wal.Stmt "create table t (a int)";
      Wal.Stmt "insert into t values (1)";
      (* a transaction whose commit marker never reached the disk *)
      Wal.Txn_begin 3;
      Wal.Stmt "insert into t values (2)";
      Wal.Stmt "insert into t values (3)";
    ];
  Wal.fsync wal;
  Wal.close wal;
  let cat, wal', outcome = Recovery.recover dir in
  Alcotest.(check int) "only the committed prefix replayed" 1
    (Table.cardinality (Catalog.find_table cat "t"));
  Alcotest.(check int) "the in-flight statements were counted" 2
    outcome.Recovery.uncommitted_skipped;
  (match outcome.Recovery.quarantined with
  | Some v ->
      Alcotest.(check bool) "quarantined as a torn tail" true
        (v.Errors.rkind = Errors.Torn_tail)
  | None -> Alcotest.fail "expected the in-flight group to be quarantined");
  (* the reopened log holds no trace of the group: a second recovery is
     clean and idempotent *)
  Wal.close wal';
  let cat2, wal2, outcome2 = Recovery.recover dir in
  Wal.close wal2;
  Alcotest.(check int) "idempotent" 1
    (Table.cardinality (Catalog.find_table cat2 "t"));
  Alcotest.(check bool) "second recovery sees a clean log" true
    (outcome2.Recovery.quarantined = None)

(* Store.log_txn writes one contiguous group and recovery replays it
   through the engine; a transaction left open at close time (staged
   only, never logged) leaves no trace. *)
let test_engine_txn_commit_durable () =
  let dir = tmpdir () in
  let db = Engine.create ~data_dir:dir ~durability:Store.Strict () in
  exec_ok db "create table t (a int, b text)";
  let sess = Engine.new_session db in
  exec_ok db "insert into t values (1, 'auto')";
  ignore (Engine.exec_session sess "begin");
  ignore (Engine.exec_session sess "insert into t values (2, 'txn')");
  ignore (Engine.exec_session sess "insert into t values (3, 'txn')");
  (match Engine.exec_session sess "commit" with
  | Engine.Message _ -> ()
  | o -> Alcotest.failf "commit failed: %s" (msg_or_fail o));
  (* a second transaction stays open: staged rows are memory-only *)
  ignore (Engine.exec_session sess "begin");
  ignore (Engine.exec_session sess "insert into t values (99, 'lost')");
  let before = digest db in
  (* abandon without close: strict mode means every *acknowledged*
     commit is already durable *)
  let recovered = Engine.create ~data_dir:dir () in
  Alcotest.(check string)
    "committed transaction survives, open transaction does not" before
    (digest recovered);
  Alcotest.(check int) "three committed rows" 3
    (Table.cardinality (Catalog.find_table (Engine.catalog recovered) "t"));
  Engine.close recovered;
  Engine.close db

let test_wal_torn_tail () =
  let dir = tmpdir () in
  let path = Recovery.wal_path dir in
  let wal = Wal.create path ~epoch:0 in
  ignore (Wal.append wal (Wal.Stmt "CREATE TABLE t (a INT)"));
  let tear_at = Wal.length wal in
  ignore (Wal.append wal (Wal.Stmt "INSERT INTO t VALUES (1)"));
  Wal.fsync wal;
  Wal.close wal;
  (* chop the second record in half: the canonical crash artifact *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (tear_at + 5);
  Unix.close fd;
  let scan = Wal.scan path in
  Alcotest.(check int) "only the full record survives" 1
    (List.length scan.Wal.records);
  (match scan.Wal.torn with
  | Some v ->
      Alcotest.(check bool) "typed as torn tail" true
        (v.Errors.rkind = Errors.Torn_tail);
      Alcotest.(check int) "tear located" tear_at v.Errors.at_offset
  | None -> Alcotest.fail "expected a torn tail");
  Alcotest.(check int) "valid prefix ends at the tear" tear_at
    scan.Wal.valid_length

let test_wal_midlog_corruption () =
  let dir = tmpdir () in
  let path = Recovery.wal_path dir in
  let wal = Wal.create path ~epoch:0 in
  let off1 = Wal.append wal (Wal.Stmt "CREATE TABLE t (a INT)") in
  ignore (Wal.append wal (Wal.Stmt "INSERT INTO t VALUES (1)"));
  Wal.fsync wal;
  Wal.close wal;
  (* flip one payload byte of the *first* record: a valid record
     follows, so this is in-place corruption, not a tear — scanning
     must refuse rather than silently drop the committed suffix *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd (off1 + 12) Unix.SEEK_SET);
  ignore (Unix.write_substring fd "\xff" 0 1);
  Unix.close fd;
  (match Wal.scan path with
  | _ -> Alcotest.fail "expected Recovery_error"
  | exception Errors.Recovery_error v ->
      Alcotest.(check bool) "typed as mid-log corruption" true
        (v.Errors.rkind = Errors.Mid_log_corruption));
  (* recovery refuses the directory for the same reason *)
  match Recovery.recover dir with
  | _ -> Alcotest.fail "recovery must refuse a mid-corrupted log"
  | exception Errors.Recovery_error _ -> ()

(* ---------- snapshots ---------- *)

let populated_catalog () =
  let cat = Catalog.create () in
  let t =
    Table.create ~primary_key:[ "a" ]
      ~foreign_keys:
        [ { Table.fk_columns = [ "b" ]; fk_table = "u"; fk_ref_columns = [ "x" ] } ]
      "t"
      [ ("a", Datatype.Int); ("b", Datatype.Int); ("c", Datatype.Str);
        ("d", Datatype.Float); ("e", Datatype.Bool) ]
  in
  Table.insert_all t
    [
      Tuple.of_list
        [ Value.Int 1; Value.Int 10; Value.Str "x"; Value.Float 1.5;
          Value.Bool true ];
      Tuple.of_list
        [ Value.Int 2; Value.Int 20; Value.Str ""; Value.Float (-0.0);
          Value.Bool false ];
      Tuple.of_list
        [ Value.Int 3; Value.Int 10; Value.Null; Value.Float nan;
          Value.Null ];
    ];
  Catalog.add_table cat t;
  let u = Table.create ~primary_key:[ "x" ] "u" [ ("x", Datatype.Int) ] in
  Table.insert u (Tuple.of_list [ Value.Int 10 ]);
  Catalog.add_table cat u;
  Catalog.create_index cat ~name:"t_b" ~table:"t" ~columns:[ "b" ];
  cat

let test_snapshot_roundtrip () =
  let dir = tmpdir () in
  let cat = populated_catalog () in
  let path = Recovery.snapshot_path dir in
  ignore (Snapshot.write cat ~epoch:7 ~wal_offset:123 ~path);
  let loaded = Snapshot.load path in
  Alcotest.(check int) "epoch" 7 loaded.Snapshot.snap_epoch;
  Alcotest.(check int) "wal offset" 123 loaded.Snapshot.wal_offset;
  Alcotest.(check string) "identical database"
    (Recovery.db_digest cat)
    (Recovery.db_digest loaded.Snapshot.catalog);
  Alcotest.(check (list string)) "indexes survive" [ "t_b" ]
    (Catalog.index_names loaded.Snapshot.catalog);
  Alcotest.(check (list string)) "pk survives" [ "a" ]
    (Table.primary_key (Catalog.find_table loaded.Snapshot.catalog "t"))

let test_snapshot_corruption_detected () =
  let dir = tmpdir () in
  let cat = populated_catalog () in
  let path = Recovery.snapshot_path dir in
  ignore (Snapshot.write cat ~epoch:0 ~wal_offset:16 ~path);
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd (size - 3) Unix.SEEK_SET);
  ignore (Unix.write_substring fd "\x7e" 0 1);
  Unix.close fd;
  match Snapshot.load path with
  | _ -> Alcotest.fail "expected Recovery_error"
  | exception Errors.Recovery_error v ->
      Alcotest.(check bool) "typed as snapshot corruption" true
        (v.Errors.rkind = Errors.Snapshot_corrupt)

(* ---------- engine-level persistence ---------- *)

let test_persistence_across_engines () =
  let dir = tmpdir () in
  let db = Engine.create ~data_dir:dir () in
  exec_ok db "create table t (a int, b text, primary key (a))";
  exec_ok db "insert into t values (1, 'x'), (2, 'y')";
  exec_ok db "create index t_a on t (a)";
  exec_ok db "insert into t values (3, 'z')";
  let reference = digest db in
  Engine.close db;
  let db2 = Engine.create ~data_dir:dir () in
  Alcotest.(check string) "bit-identical database after reopen" reference
    (digest db2);
  (match Engine.recovery_outcome db2 with
  | Some o -> Alcotest.(check int) "all four statements replayed" 4 o.Recovery.replayed
  | None -> Alcotest.fail "expected a recovery outcome");
  (match Engine.exec db2 "select a, b from t where a = 2" with
  | Engine.Rows rel -> Alcotest.(check int) "query works" 1 (Relation.cardinality rel)
  | _ -> Alcotest.fail "expected rows");
  Engine.close db2

(* The auto-checkpoint runs after its commit is logged and published,
   and its snapshot writes through the WAL's I/O.  A snapshot that fails
   never fails the statement, whose record is already in the log: the
   row is visible at once and survives a restart.  Any other I/O error
   is counted and leaves the WAL for the next commit to retry; ENOSPC
   degrades the engine to read-only. *)
let test_auto_checkpoint_failure_keeps_commit () =
  let dir = tmpdir () in
  let db = Engine.create ~data_dir:dir ~checkpoint_wal_bytes:1 () in
  let tmp = Recovery.snapshot_path dir ^ ".tmp" in
  let rows () =
    match Engine.exec db "select count(*) as n from t" with
    | Engine.Rows rel -> (
        match Relation.rows rel with
        | [ [| Value.Int n |] ] -> n
        | _ -> Alcotest.fail "expected one count")
    | _ -> Alcotest.fail "expected rows"
  in
  let counter name = Metrics.read (Engine.metrics db) ("gapply_wal_" ^ name) in
  let failures () = counter "checkpoint_failures_total" in
  Fun.protect
    ~finally:(fun () ->
      Wal.set_write_fault None;
      if Sys.file_exists tmp && Sys.is_directory tmp then Unix.rmdir tmp;
      Engine.close db)
    (fun () ->
      exec_ok db "create table t (a int)";
      (* a directory where the snapshot's temp file goes *)
      Unix.mkdir tmp 0o755;
      let checkpoints = counter "checkpoints_total" in
      exec_ok db "insert into t values (1)";
      Alcotest.(check int) "the committed row is visible" 1 (rows ());
      Alcotest.(check int) "the failed snapshot is counted" 1 (failures ());
      Alcotest.(check int) "no checkpoint landed" checkpoints
        (counter "checkpoints_total");
      Alcotest.(check bool) "an I/O error does not degrade" true
        (Engine.read_only db = None);
      Unix.rmdir tmp;
      exec_ok db "insert into t values (2)";
      Alcotest.(check int) "the next commit retries the checkpoint"
        (checkpoints + 1) (counter "checkpoints_total");
      Alcotest.(check int) "the retry succeeded" 1 (failures ());
      (* the record's write goes through, the snapshot's hits ENOSPC *)
      let writes = ref 0 in
      Wal.set_write_fault
        (Some
           (fun () ->
             incr writes;
             if !writes >= 2 then Some Wal.Enospc else None));
      exec_ok db "insert into t values (3)";
      Alcotest.(check bool) "the snapshot's write was reached" true
        (!writes >= 2);
      Wal.set_write_fault None;
      Alcotest.(check int) "the committed row is visible" 3 (rows ());
      match Engine.read_only db with
      | Some { Errors.primary = None; _ } -> ()
      | _ -> Alcotest.fail "ENOSPC in the snapshot must degrade to read-only");
  let db2 = Engine.create ~data_dir:dir () in
  Fun.protect
    ~finally:(fun () -> Engine.close db2)
    (fun () ->
      match Engine.exec db2 "select a from t" with
      | Engine.Rows rel ->
          Alcotest.(check int) "every committed row survives a restart" 3
            (Relation.cardinality rel)
      | _ -> Alcotest.fail "expected rows")

(* A manual checkpoint is its command's own outcome: ENOSPC fails it as
   [Disk_full] and degrades the engine, like the auto-checkpoint. *)
let test_manual_checkpoint_disk_full () =
  let dir = tmpdir () in
  let db = Engine.create ~data_dir:dir () in
  Fun.protect
    ~finally:(fun () ->
      Wal.set_write_fault None;
      Engine.close db)
    (fun () ->
      exec_ok db "create table t (a int)";
      Wal.set_write_fault (Some (fun () -> Some Wal.Enospc));
      (match Engine.checkpoint db with
      | exception Errors.Disk_full _ -> ()
      | _ -> Alcotest.fail "ENOSPC in a checkpoint must raise Disk_full");
      Wal.set_write_fault None;
      match Engine.read_only db with
      | Some { Errors.primary = None; _ } -> ()
      | _ -> Alcotest.fail "engine must degrade to read-only")

let test_checkpoint_and_suffix_replay () =
  let dir = tmpdir () in
  let db = Engine.create ~data_dir:dir () in
  exec_ok db "create table t (a int)";
  exec_ok db "insert into t values (1)";
  ignore (Engine.checkpoint db);
  Alcotest.(check bool) "snapshot exists" true
    (Sys.file_exists (Recovery.snapshot_path dir));
  (* post-checkpoint statements land in the fresh epoch-1 log *)
  exec_ok db "insert into t values (2)";
  let reference = digest db in
  Engine.close db;
  let db2 = Engine.create ~data_dir:dir () in
  Alcotest.(check string) "snapshot + suffix = full state" reference (digest db2);
  (match Engine.recovery_outcome db2 with
  | Some o ->
      Alcotest.(check bool) "snapshot loaded" true o.Recovery.snapshot_loaded;
      Alcotest.(check int) "only the suffix replayed" 1 o.Recovery.replayed;
      Alcotest.(check int) "epoch advanced by the checkpoint" 1
        o.Recovery.recovered_epoch
  | None -> Alcotest.fail "expected a recovery outcome");
  Engine.close db2

let test_durability_off_no_wal_traffic () =
  let dir = tmpdir () in
  let db = Engine.create ~data_dir:dir ~durability:Store.Off () in
  exec_ok db "create table t (a int)";
  exec_ok db "insert into t values (1)";
  (match Engine.wal_stats db with
  | Some s ->
      Alcotest.(check int) "no appends under off" 0 s.Wal_stats.appends;
      Alcotest.(check int) "no fsyncs under off" 0 s.Wal_stats.fsyncs
  | None -> Alcotest.fail "expected wal stats");
  (* switching to strict re-bases through a checkpoint: the off-mode
     state must survive a crash from here on *)
  ignore (Engine.exec db "set durability = strict");
  exec_ok db "insert into t values (2)";
  let reference = digest db in
  Engine.close db;
  let db2 = Engine.create ~data_dir:dir () in
  Alcotest.(check string) "off-mode state recovered via the re-base snapshot"
    reference (digest db2);
  Engine.close db2

let test_lazy_group_commit_batches () =
  let dir = tmpdir () in
  let db =
    Engine.create ~data_dir:dir ~durability:Store.Lazy ~wal_group_commit:8 ()
  in
  exec_ok db "create table t (a int)";
  for i = 1 to 20 do
    exec_ok db (Printf.sprintf "insert into t values (%d)" i)
  done;
  (match Engine.wal_stats db with
  | Some s ->
      Alcotest.(check int) "21 records appended" 21 s.Wal_stats.appends;
      Alcotest.(check bool)
        (Printf.sprintf "far fewer fsyncs (%d) than appends" s.Wal_stats.fsyncs)
        true
        (s.Wal_stats.fsyncs <= 3);
      Alcotest.(check bool) "observed batches reach the knob" true
        (s.Wal_stats.max_batch >= 8)
  | None -> Alcotest.fail "expected wal stats");
  let reference = digest db in
  Engine.close db;  (* close fsyncs the pending tail *)
  let db2 = Engine.create ~data_dir:dir () in
  Alcotest.(check string) "lazy mode loses nothing across clean close"
    reference (digest db2);
  Engine.close db2

let test_strict_is_durable_without_close () =
  let dir = tmpdir () in
  let db = Engine.create ~data_dir:dir ~durability:Store.Strict () in
  exec_ok db "create table t (a int)";
  exec_ok db "insert into t values (1), (2), (3)";
  let reference = digest db in
  (* abandon the engine without close: strict mode means every
     acknowledged statement is already on disk *)
  let db2 = Engine.create ~data_dir:dir () in
  Alcotest.(check string) "no fsync owed at crash time" reference (digest db2);
  Engine.close db2;
  Engine.close db

(* What the durability modes cost the WAL, and what reopening replays:
   the same acknowledged single-row INSERTs under off, lazy (default
   group commit) and strict; then a directory reopened from its log and
   from a snapshot. *)
let test_durability_modes_traffic_and_replay () =
  let n = 150 in
  let ingest mode =
    let db = Engine.create ~data_dir:(tmpdir ()) ~durability:mode () in
    exec_ok db "create table ingest (a int, b varchar)";
    for i = 1 to n do
      exec_ok db
        (Printf.sprintf "insert into ingest values (%d, 'row-%d')" i i)
    done;
    (* read before close: closing a lazy log fsyncs its pending tail *)
    let s =
      match Engine.wal_stats db with
      | Some s -> s
      | None -> Alcotest.fail "expected wal stats"
    in
    Engine.close db;
    (s.Wal_stats.appends, s.Wal_stats.fsyncs)
  in
  let off_appends, off_fsyncs = ingest Store.Off in
  let lazy_appends, lazy_fsyncs = ingest Store.Lazy in
  let strict_appends, strict_fsyncs = ingest Store.Strict in
  Alcotest.(check (pair int int)) "off: no appends, no fsyncs" (0, 0)
    (off_appends, off_fsyncs);
  Alcotest.(check bool)
    (Printf.sprintf "strict: %d fsyncs >= %d commits" strict_fsyncs n)
    true (strict_fsyncs >= n);
  Alcotest.(check bool)
    (Printf.sprintf "lazy: 0 < %d fsyncs < strict's %d" lazy_fsyncs
       strict_fsyncs)
    true
    (0 < lazy_fsyncs && lazy_fsyncs < strict_fsyncs);
  Alcotest.(check int) "lazy appends = strict appends" strict_appends
    lazy_appends;
  Alcotest.(check bool)
    (Printf.sprintf "%d appends > %d commits" strict_appends n)
    true (strict_appends > n);
  let reopen k ~checkpoint =
    let dir = tmpdir () in
    let db = Engine.create ~data_dir:dir ~durability:Store.Lazy () in
    exec_ok db "create table r (a int, b varchar)";
    for i = 1 to k do
      exec_ok db (Printf.sprintf "insert into r values (%d, 'payload-%d')" i i)
    done;
    if checkpoint then ignore (Engine.checkpoint db);
    Engine.close db;
    let db = Engine.create ~data_dir:dir () in
    let o =
      match Engine.recovery_outcome db with
      | Some o -> o
      | None -> Alcotest.fail "expected a recovery outcome"
    in
    Engine.close db;
    o
  in
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "WAL recovery replays all %d records" (k + 1))
        (k + 1)
        (reopen k ~checkpoint:false).Recovery.replayed)
    [ 10; 100 ];
  let o = reopen 100 ~checkpoint:true in
  Alcotest.(check bool) "snapshot loaded" true o.Recovery.snapshot_loaded;
  Alcotest.(check int) "snapshot recovery replays nothing" 0
    o.Recovery.replayed

let test_wal_dump_renders () =
  let dir = tmpdir () in
  let db = Engine.create ~data_dir:dir () in
  exec_ok db "create table t (a int)";
  exec_ok db "insert into t values (1)";
  Engine.close db;
  let out = Format.asprintf "%a" Wal.dump (Recovery.wal_path dir) in
  let contains needle =
    let nl = String.length needle and ol = String.length out in
    let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "dump mentions %S" needle)
        true (contains needle))
    [ "epoch 0"; "ok    stmt CREATE TABLE"; "ok    stmt INSERT INTO";
      "clean end of log" ]

(* ---------- satellite regression: atomic multi-row INSERT ---------- *)

let test_arity_mismatch_insert_is_atomic () =
  let db = Engine.create () in
  exec_ok db "create table t (a int, b int)";
  exec_ok db "insert into t values (1, 2)";
  let cat = Engine.catalog db in
  let version_before = Table.version (Catalog.find_table cat "t") in
  (* row 2 has the wrong arity; binding succeeds (literals bind without
     arity knowledge), so the failure happens at insert time — the
     all-or-nothing batch must leave no partial rows and no version
     bump *)
  (match Engine.exec db "insert into t values (3, 4), (5)" with
  | exception e when Errors.is_engine_error e -> ()
  | Engine.Failed e ->
      Alcotest.(check bool) "typed engine error" true (Errors.is_engine_error e)
  | _ -> Alcotest.fail "expected the insert to fail");
  Alcotest.(check int) "no partial rows" 1
    (Table.cardinality (Catalog.find_table cat "t"));
  Alcotest.(check int) "no phantom version bump" version_before
    (Table.version (Catalog.find_table cat "t"))

(* ---------- qcheck: random history -> crash -> recover ---------- *)

(* A random DDL/DML history over a small table universe, a checkpoint
   spliced at a random index, then a simulated crash (the engine is
   abandoned without close — legal under strict, where every
   acknowledged statement is durable).  Recovery must reproduce the
   in-memory reference byte for byte. *)
let history_gen =
  QCheck2.Gen.(
    let stmt =
      oneof
        [
          (* weighted towards inserts so tables accumulate rows *)
          map2
            (fun t v -> Printf.sprintf "insert into h%d values (%d, %d)" t v (v * 7))
            (int_range 0 2) (int_range (-100) 100);
          map2
            (fun t v -> Printf.sprintf "insert into h%d values (%d, %d)" t v (-v))
            (int_range 0 2) (int_range 0 50);
          map (fun t -> Printf.sprintf "drop table h%d" t) (int_range 0 2);
          map (fun t -> Printf.sprintf "create table h%d (a int, b int)" t)
            (int_range 0 2);
        ]
    in
    pair (list_size (int_range 5 30) stmt) (int_range 0 30))

let test_qcheck_crash_recover_roundtrip =
  QCheck2.Test.make ~count:30
    ~name:"random history + checkpoint + crash recovers exactly"
    history_gen
    (fun (stmts, checkpoint_at) ->
      let dir = tmpdir () in
      let durable = Engine.create ~data_dir:dir ~durability:Store.Strict () in
      let reference = Engine.create () in
      (* seed all three tables so early inserts have a target; some
         statements still fail (double create, drop of a dropped table)
         — they must fail identically on both sides and log nothing *)
      for i = 0 to 2 do
        exec_ok durable (Printf.sprintf "create table h%d (a int, b int)" i);
        exec_ok reference (Printf.sprintf "create table h%d (a int, b int)" i)
      done;
      let attempt db sql =
        match Engine.exec db sql with
        | Engine.Message _ -> `Ok
        | Engine.Failed _ -> `Err
        | _ -> `Other
        | exception e when Errors.is_engine_error e -> `Err
      in
      List.iteri
        (fun i sql ->
          if i = checkpoint_at then ignore (Engine.checkpoint durable);
          match (attempt durable sql, attempt reference sql) with
          | `Ok, `Ok | `Err, `Err -> ()
          | _ -> Alcotest.fail "durable and reference outcomes diverged")
        stmts;
      let expected = digest reference in
      (* crash: abandon [durable] with no close, recover from disk *)
      let recovered = Engine.create ~data_dir:dir () in
      let actual = digest recovered in
      Engine.close recovered;
      Engine.close durable;
      expected = actual)

let suite =
  [
    Alcotest.test_case "wal: append/scan round-trip with offsets" `Quick
      test_wal_roundtrip;
    Alcotest.test_case "wal: survives injected short writes and EINTR" `Quick
      test_wal_survives_short_writes_and_eintr;
    Alcotest.test_case "wal: progress-free write fails typed, no spin" `Quick
      test_wal_progress_free_write_fails_typed;
    Alcotest.test_case "wal: torn tail ends the readable prefix, typed" `Quick
      test_wal_torn_tail;
    Alcotest.test_case "wal: txn group round-trips and replays committed"
      `Quick test_wal_txn_group_roundtrip;
    Alcotest.test_case "wal: unterminated txn group is quarantined whole"
      `Quick test_wal_uncommitted_tail_quarantined;
    Alcotest.test_case "engine: committed txn durable, open txn traceless"
      `Quick test_engine_txn_commit_durable;
    Alcotest.test_case "wal: mid-log corruption refuses recovery" `Quick
      test_wal_midlog_corruption;
    Alcotest.test_case "snapshot: round-trip preserves rows, keys, indexes"
      `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot: checksum catches a flipped byte" `Quick
      test_snapshot_corruption_detected;
    Alcotest.test_case "engine: state survives close + reopen" `Quick
      test_persistence_across_engines;
    Alcotest.test_case "engine: checkpoint, then only the suffix replays"
      `Quick test_checkpoint_and_suffix_replay;
    Alcotest.test_case "engine: a failed auto-checkpoint keeps the commit"
      `Quick test_auto_checkpoint_failure_keeps_commit;
    Alcotest.test_case "engine: manual checkpoint ENOSPC degrades" `Quick
      test_manual_checkpoint_disk_full;
    Alcotest.test_case "engine: durability off leaves the WAL untouched"
      `Quick test_durability_off_no_wal_traffic;
    Alcotest.test_case "engine: lazy mode group-commits fsyncs" `Quick
      test_lazy_group_commit_batches;
    Alcotest.test_case "engine: strict mode is durable without close" `Quick
      test_strict_is_durable_without_close;
    Alcotest.test_case "engine: durability modes' WAL traffic and replay"
      `Quick test_durability_modes_traffic_and_replay;
    Alcotest.test_case "wal-dump renders offsets and checksum status" `Quick
      test_wal_dump_renders;
    Alcotest.test_case "atomic INSERT: arity mismatch leaves no trace" `Quick
      test_arity_mismatch_insert_is_atomic;
    QCheck_alcotest.to_alcotest test_qcheck_crash_recover_roundtrip;
  ]
