(* MVCC snapshot isolation + interactive transactions.

   Unit layer: read-your-own-writes, repeatable reads, rollback leaving
   no trace (version, statistics, rows), typed first-committer-wins
   conflicts, DDL rejection inside transactions, the atomic multi-row
   INSERT regression inside an explicit transaction, the GAPPLY_MVCC
   kill-switch semantics, and a two-domain reader/writer smoke test
   proving a snapshot reader never observes half of a multi-table
   commit.

   Property layer (qcheck): serializability-lite.  Random multi-session
   programs — each session a list of transactions, each transaction a
   list of INSERTs ending in COMMIT or ROLLBACK — are interleaved
   randomly over one shared engine.  Whatever the interleaving, the
   final database must digest-equal a serial replay of exactly the
   transactions that committed, in their commit order.  With insert-only
   DML and table-granularity first-committer-wins this serial order
   always exists (commit timestamps are handed out under the commit
   lock); the property fails if a rolled-back or conflicted transaction
   leaks any row, if a commit tears across tables, or if staged rows
   land in any order other than commit order. *)

module Gen = QCheck2.Gen

let count db table =
  Relation.cardinality
    (Engine.query db (Printf.sprintf "select %s.a from %s" table table))

let count_sess sess table =
  match
    Engine.exec_session sess (Printf.sprintf "select %s.a from %s" table table)
  with
  | Engine.Rows rel -> Relation.cardinality rel
  | Engine.Failed e -> raise e
  | _ -> -1

(* substring containment, for report/footer checks *)
let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let msg_exn = function
  | Engine.Message _ -> ()
  | Engine.Failed e -> raise e
  | _ -> Alcotest.fail "expected a message outcome"

let fresh_with_table () =
  let db = Engine.create () in
  msg_exn (Engine.exec db "create table t (a int, b text)");
  db

(* ---------- read-your-own-writes ---------- *)

let test_read_your_own_writes () =
  let db = fresh_with_table () in
  msg_exn (Engine.exec db "insert into t values (1, 'base')");
  let sess = Engine.new_session db in
  msg_exn (Engine.exec_session sess "begin");
  msg_exn (Engine.exec_session sess "insert into t values (2, 'mine')");
  msg_exn (Engine.exec_session sess "insert into t values (3, 'mine')");
  if Engine.mvcc_enabled db then
    Alcotest.(check int) "the transaction sees its own staged rows" 3
      (count_sess sess "t");
  Alcotest.(check int) "other statements do not see staged rows" 1
    (count db "t");
  msg_exn (Engine.exec_session sess "commit");
  Alcotest.(check int) "committed rows are visible to everyone" 3
    (count db "t")

(* ---------- repeatable reads ---------- *)

let test_repeatable_reads () =
  let db = fresh_with_table () in
  msg_exn (Engine.exec db "insert into t values (1, 'base')");
  let reader = Engine.new_session db in
  msg_exn (Engine.exec_session reader "begin");
  Alcotest.(check int) "first read" 1 (count_sess reader "t");
  msg_exn (Engine.exec db "insert into t values (2, 'later')");
  if Engine.mvcc_enabled db then begin
    Alcotest.(check int)
      "the snapshot pinned at BEGIN does not see the later commit" 1
      (count_sess reader "t");
    Alcotest.(check int) "read-only repeat stays stable" 1
      (count_sess reader "t")
  end;
  msg_exn (Engine.exec_session reader "commit");
  Alcotest.(check int) "a fresh statement sees the new row" 2
    (count_sess reader "t")

(* A read-only transaction commits cleanly even when the tables it read
   were modified concurrently: first-committer-wins only checks written
   tables. *)
let test_read_only_txn_never_conflicts () =
  let db = fresh_with_table () in
  let reader = Engine.new_session db in
  msg_exn (Engine.exec_session reader "begin");
  ignore (count_sess reader "t");
  msg_exn (Engine.exec db "insert into t values (9, 'w')");
  msg_exn (Engine.exec_session reader "commit")

(* ---------- rollback leaves no trace ---------- *)

let test_rollback_restores_everything () =
  let db = fresh_with_table () in
  msg_exn (Engine.exec db "insert into t values (1, 'base')");
  let table = Catalog.find_table (Engine.catalog db) "t" in
  (* force a stats computation so we can compare after *)
  let stats_before = Catalog.stats_of (Engine.catalog db) "t" in
  let version_before = Table.version table in
  let sess = Engine.new_session db in
  msg_exn (Engine.exec_session sess "begin");
  msg_exn (Engine.exec_session sess "insert into t values (2, 'gone')");
  msg_exn (Engine.exec_session sess "rollback");
  Alcotest.(check int) "cardinality unchanged" 1 (Table.cardinality table);
  Alcotest.(check int) "table version unchanged (staging never bumps it)"
    version_before (Table.version table);
  let stats_after = Catalog.stats_of (Engine.catalog db) "t" in
  Alcotest.(check int) "statistics row count unchanged"
    stats_before.Stats.row_count stats_after.Stats.row_count;
  Alcotest.(check int) "statistics stamp unchanged"
    stats_before.Stats.built_version stats_after.Stats.built_version;
  (* the session is fully reusable afterwards *)
  msg_exn (Engine.exec_session sess "begin");
  msg_exn (Engine.exec_session sess "insert into t values (3, 'kept')");
  msg_exn (Engine.exec_session sess "commit");
  Alcotest.(check int) "later transactions commit normally" 2
    (count db "t")

(* ---------- first-committer-wins ---------- *)

let test_conflict_is_typed () =
  let db = fresh_with_table () in
  let a = Engine.new_session db and b = Engine.new_session db in
  msg_exn (Engine.exec_session a "begin");
  msg_exn (Engine.exec_session b "begin");
  msg_exn (Engine.exec_session a "insert into t values (1, 'a')");
  msg_exn (Engine.exec_session b "insert into t values (2, 'b')");
  msg_exn (Engine.exec_session a "commit");
  (match Engine.exec_session b "commit" with
  | Engine.Failed (Errors.Txn_conflict v) ->
      Alcotest.(check (option string))
        "the conflicting table is named" (Some "t") v.Errors.conflict_table
  | Engine.Failed e ->
      Alcotest.failf "expected Txn_conflict, got %s" (Errors.to_string e)
  | _ -> Alcotest.fail "expected the second committer to abort");
  Alcotest.(check int) "only the winner's row landed" 1 (count db "t");
  (* the loser retries from a fresh BEGIN and wins this time *)
  msg_exn (Engine.exec_session b "begin");
  msg_exn (Engine.exec_session b "insert into t values (2, 'b')");
  msg_exn (Engine.exec_session b "commit");
  Alcotest.(check int) "retry commits" 2 (count db "t")

(* Writers on disjoint tables never conflict. *)
let test_disjoint_writers_commute () =
  let db = fresh_with_table () in
  msg_exn (Engine.exec db "create table u (a int)");
  let a = Engine.new_session db and b = Engine.new_session db in
  msg_exn (Engine.exec_session a "begin");
  msg_exn (Engine.exec_session b "begin");
  msg_exn (Engine.exec_session a "insert into t values (1, 'a')");
  msg_exn (Engine.exec_session b "insert into u values (2)");
  msg_exn (Engine.exec_session a "commit");
  msg_exn (Engine.exec_session b "commit");
  Alcotest.(check int) "t committed" 1 (count db "t");
  Alcotest.(check int) "u committed" 1 (count db "u")

(* An autocommit INSERT racing an open transaction on the same table
   aborts the transaction at COMMIT (the bare statement is its own
   committed transaction and it got there first). *)
let test_autocommit_beats_open_txn () =
  let db = fresh_with_table () in
  let a = Engine.new_session db in
  msg_exn (Engine.exec_session a "begin");
  msg_exn (Engine.exec_session a "insert into t values (1, 'slow')");
  msg_exn (Engine.exec db "insert into t values (2, 'fast')");
  (match Engine.exec_session a "commit" with
  | Engine.Failed (Errors.Txn_conflict _) -> ()
  | _ -> Alcotest.fail "expected a conflict against the autocommit insert");
  Alcotest.(check int) "only the autocommit row landed" 1 (count db "t")

(* ---------- transaction-control misuse and DDL ---------- *)

let test_txn_control_misuse () =
  let db = fresh_with_table () in
  let sess = Engine.new_session db in
  (match Engine.exec_session sess "commit" with
  | Engine.Failed (Errors.Exec_error _) -> ()
  | _ -> Alcotest.fail "COMMIT without BEGIN must fail");
  (match Engine.exec_session sess "rollback" with
  | Engine.Failed (Errors.Exec_error _) -> ()
  | _ -> Alcotest.fail "ROLLBACK without BEGIN must fail");
  msg_exn (Engine.exec_session sess "begin");
  (match Engine.exec_session sess "begin" with
  | Engine.Failed (Errors.Exec_error _) -> ()
  | _ -> Alcotest.fail "nested BEGIN must fail");
  (match Engine.exec_session sess "create table v (a int)" with
  | Engine.Failed (Errors.Exec_error _) -> ()
  | _ -> Alcotest.fail "DDL inside a transaction must fail");
  (match Engine.exec_session sess "drop table t" with
  | Engine.Failed (Errors.Exec_error _) -> ()
  | _ -> Alcotest.fail "DROP inside a transaction must fail");
  Alcotest.(check bool) "the failed statements left the txn open" true
    (Engine.in_transaction sess);
  msg_exn (Engine.exec_session sess "rollback");
  Alcotest.(check bool) "no table v appeared" true
    (Catalog.find_table_opt (Engine.catalog db) "v" = None)

(* ---------- regression: failed multi-row INSERT strands nothing ---------- *)

let test_failed_multirow_insert_in_txn () =
  let db = fresh_with_table () in
  let sess = Engine.new_session db in
  msg_exn (Engine.exec_session sess "begin");
  msg_exn (Engine.exec_session sess "insert into t values (1, 'ok')");
  (* second row has the wrong arity: the whole statement must fail,
     staging nothing — not even its first row *)
  (match Engine.exec_session sess "insert into t values (2, 'also ok'), (3)" with
  | Engine.Failed _ -> ()
  | exception e when Errors.is_engine_error e -> ()
  | _ -> Alcotest.fail "expected the malformed insert to fail");
  if Engine.mvcc_enabled db then
    Alcotest.(check int)
      "the failed statement staged nothing (read-your-own-writes sees only \
       the valid row)"
      1
      (count_sess sess "t");
  msg_exn (Engine.exec_session sess "commit");
  Alcotest.(check int)
    "only the valid statement's row committed (no stranded versions)" 1
    (count db "t");
  (* a failing bind (unknown table) mid-transaction likewise strands
     nothing and leaves the transaction usable *)
  msg_exn (Engine.exec_session sess "begin");
  (match Engine.exec_session sess "insert into nosuch values (1)" with
  | Engine.Failed _ -> ()
  | exception e when Errors.is_engine_error e -> ()
  | _ -> Alcotest.fail "expected the unknown-table insert to fail");
  msg_exn (Engine.exec_session sess "insert into t values (4, 'ok')");
  msg_exn (Engine.exec_session sess "commit");
  Alcotest.(check int) "the failed bind stranded nothing" 2 (count db "t")

(* ---------- kill-switch semantics ---------- *)

let test_mvcc_off_reads_latest_committed () =
  let db = Engine.create ~mvcc:false () in
  Alcotest.(check bool) "switch honored" false (Engine.mvcc_enabled db);
  msg_exn (Engine.exec db "create table t (a int, b text)");
  msg_exn (Engine.exec db "insert into t values (1, 'base')");
  let sess = Engine.new_session db in
  msg_exn (Engine.exec_session sess "begin");
  Alcotest.(check int) "first read" 1 (count_sess sess "t");
  msg_exn (Engine.exec db "insert into t values (2, 'later')");
  Alcotest.(check int)
    "without MVCC the read is not repeatable (latest-committed)" 2
    (count_sess sess "t");
  (* staging and conflicts still work *)
  msg_exn (Engine.exec_session sess "insert into t values (3, 'mine')");
  (match Engine.exec_session sess "commit" with
  | Engine.Failed (Errors.Txn_conflict _) -> ()
  | _ ->
      Alcotest.fail
        "first-committer-wins stays on without MVCC (t moved after BEGIN)");
  Alcotest.(check int) "aborted txn leaked nothing" 2 (count db "t")

(* ---------- observability ---------- *)

let test_txn_stats_and_footer () =
  let db = fresh_with_table () in
  msg_exn (Engine.exec db "insert into t values (1, 'x')");
  let report_before = snd (Engine.analyze db "select t.a from t") in
  Alcotest.(check bool) "no txn footer before any transaction" false
    (contains ~affix:"== txn:" report_before);
  let sess = Engine.new_session db in
  msg_exn (Engine.exec_session sess "begin");
  msg_exn (Engine.exec_session sess "insert into t values (2, 'y')");
  msg_exn (Engine.exec_session sess "commit");
  msg_exn (Engine.exec_session sess "begin");
  msg_exn (Engine.exec_session sess "rollback");
  let m = Engine.metrics db in
  let closed o = Metrics.read m ~label:o "gapply_txn_closed_total" in
  Alcotest.(check int) "begun" 2 (Metrics.read m "gapply_txn_begun_total");
  Alcotest.(check int) "committed" 1 (closed "committed");
  Alcotest.(check int) "rolled back" 1 (closed "rolled_back");
  Alcotest.(check int) "staged" 1
    (Metrics.read m "gapply_txn_staged_statements_total");
  Alcotest.(check int) "active" 0 (Metrics.read m "gapply_txn_open");
  let report = snd (Engine.analyze db "select t.a from t") in
  Alcotest.(check bool) "txn footer appears after traffic" true
    (contains ~affix:"== txn:" report);
  Alcotest.(check bool) "\\txn report mentions commits" true
    (contains ~affix:"closed_committed=1" (Engine.txn_report db))

(* A COMMIT that raises (here: the engine went read-only mid-
   transaction) still closes the transaction — and must count it as
   closed, or the open gauge reports it forever. *)
let test_failed_commit_closes_txn () =
  let db = fresh_with_table () in
  let sess = Engine.new_session db in
  msg_exn (Engine.exec_session sess "begin");
  msg_exn (Engine.exec_session sess "insert into t values (1, 'x')");
  Engine.set_read_only db (Some { Errors.primary = None; ro_detail = "test" });
  (match Engine.exec_session sess "commit" with
  | exception Errors.Read_only _ -> ()
  | _ -> Alcotest.fail "COMMIT on a read-only engine must raise Read_only");
  Alcotest.(check bool) "session left the transaction" false
    (Engine.in_transaction sess);
  let m = Engine.metrics db in
  Alcotest.(check int) "counted as failed" 1
    (Metrics.read m ~label:"failed" "gapply_txn_closed_total");
  Alcotest.(check int) "nothing left open" 0 (Metrics.read m "gapply_txn_open");
  Support.check_conservation "registry conserved after a failed COMMIT" db

(* ---------- concurrent reader/writer smoke ---------- *)

(* A writer domain commits multi-table transactions (one row into each
   of two tables per commit) while reader domains take snapshots and
   compare the two counts.  Snapshot atomicity demands they always
   agree — a reader catching a commit halfway (one table in, the other
   not) is exactly the torn read MVCC exists to prevent.  Readers use
   BEGIN so both counts come from one pinned snapshot. *)
let test_concurrent_reader_never_sees_torn_commit () =
  let db = Engine.create () in
  msg_exn (Engine.exec db "create table left_t (a int)");
  msg_exn (Engine.exec db "create table right_t (a int)");
  if Engine.mvcc_enabled db then begin
    let commits = 60 in
    let writer =
      Domain.spawn (fun () ->
          let sess = Engine.new_session db in
          for i = 1 to commits do
            msg_exn (Engine.exec_session sess "begin");
            msg_exn
              (Engine.exec_session sess
                 (Printf.sprintf "insert into left_t values (%d)" i));
            msg_exn
              (Engine.exec_session sess
                 (Printf.sprintf "insert into right_t values (%d)" i));
            msg_exn (Engine.exec_session sess "commit")
          done)
    in
    let reader () =
      let sess = Engine.new_session db in
      let torn = ref 0 and seen = ref (-1) and regressed = ref 0 in
      for _ = 1 to 200 do
        msg_exn (Engine.exec_session sess "begin");
        let l = count_sess sess "left_t" in
        let r = count_sess sess "right_t" in
        msg_exn (Engine.exec_session sess "commit");
        if l <> r then incr torn;
        if l < !seen then incr regressed;
        seen := max !seen l
      done;
      (!torn, !regressed)
    in
    let readers = List.init 2 (fun _ -> Domain.spawn reader) in
    let results = List.map Domain.join readers in
    Domain.join writer;
    List.iter
      (fun (torn, regressed) ->
        Alcotest.(check int) "no reader ever saw a torn commit" 0 torn;
        Alcotest.(check int) "snapshots never travel back in time" 0
          regressed)
      results;
    Alcotest.(check int) "all commits landed (left)" commits
      (count db "left_t");
    Alcotest.(check int) "all commits landed (right)" commits
      (count db "right_t")
  end

(* ---------- serializability-lite property ---------- *)

(* One transaction of a random program: rows to insert (values encode
   (session, txn, row) so every row is unique) and whether it commits. *)
type ptxn = { target : string; nrows : int; commits : bool }

let gen_ptxn : ptxn Gen.t =
  let open Gen in
  map3
    (fun target nrows commits -> { target; nrows; commits })
    (oneofl [ "t0"; "t1"; "t2" ])
    (int_range 1 3)
    (frequency [ (4, return true); (1, return false) ])

let gen_program : ptxn list list Gen.t =
  Gen.list_size (Gen.int_range 2 3)
    (Gen.list_size (Gen.int_range 1 4) gen_ptxn)

(* Deterministic interleaving driven by the generated [picks] stream:
   each step advances one randomly chosen session by one statement. *)
type scursor = {
  sess : Engine.session;
  mutable todo : string list;  (* statements of the current txn *)
  mutable txns : ptxn list;    (* remaining transactions *)
  sid : int;
  mutable committed_sql : string list list ref;
}

let stmts_of_txn ~sid ~tid (p : ptxn) =
  let inserts =
    List.init p.nrows (fun r ->
        Printf.sprintf "insert into %s values (%d)" p.target
          ((sid * 1_000_000) + (tid * 1_000) + r))
  in
  ("begin" :: inserts) @ [ (if p.commits then "commit" else "rollback") ]

let run_history (program : ptxn list list) (picks : int list) =
  let db = Engine.create () in
  List.iter
    (fun t -> msg_exn (Engine.exec db (Printf.sprintf "create table %s (a int)" t)))
    [ "t0"; "t1"; "t2" ];
  (* commit order as observed: each successful COMMIT appends its
     transaction's inserts — this is the candidate serial order *)
  let serial : string list list ref = ref [] in
  let cursors =
    List.mapi
      (fun sid txns ->
        {
          sess = Engine.new_session db;
          todo = [];
          txns;
          sid;
          committed_sql = serial;
        })
      program
  in
  (* inserts of the transaction currently open, per session id *)
  let pending_of = Hashtbl.create 8 in
  let step (c : scursor) =
    match (c.todo, c.txns) with
    | [], [] -> false
    | [], txn :: rest ->
        c.todo <- stmts_of_txn ~sid:c.sid ~tid:(List.length rest) txn;
        c.txns <- rest;
        true
    | sql :: rest, _ ->
        c.todo <- rest;
        (match Engine.exec_session c.sess sql with
        | Engine.Failed (Errors.Txn_conflict _) ->
            (* aborted at COMMIT: drop its pending inserts *)
            Hashtbl.remove pending_of c.sid
        | Engine.Failed e -> raise e
        | _ ->
            if sql = "begin" then Hashtbl.replace pending_of c.sid []
            else if sql = "commit" then begin
              (match Hashtbl.find_opt pending_of c.sid with
              | Some stmts ->
                  c.committed_sql := List.rev stmts :: !(c.committed_sql)
              | None -> ());
              Hashtbl.remove pending_of c.sid
            end
            else if sql = "rollback" then Hashtbl.remove pending_of c.sid
            else
              match Hashtbl.find_opt pending_of c.sid with
              | Some stmts -> Hashtbl.replace pending_of c.sid (sql :: stmts)
              | None -> ());
        true
  in
  let cursors = Array.of_list cursors in
  let rec drive picks =
    let live =
      Array.of_list
        (List.filter
           (fun (c : scursor) -> c.todo <> [] || c.txns <> [])
           (Array.to_list cursors))
    in
    if Array.length live > 0 then begin
      let pick = match picks with p :: _ -> p | [] -> 0 in
      let rest = match picks with _ :: r -> r | [] -> [] in
      ignore (step live.(pick mod Array.length live));
      drive rest
    end
  in
  drive picks;
  (* any session still mid-transaction (picks ran out): roll it back *)
  Array.iter
    (fun (c : scursor) ->
      if Engine.in_transaction c.sess then
        ignore (Engine.exec_session c.sess "rollback"))
    cursors;
  let final_digest = Recovery.db_digest (Engine.catalog db) in
  (* serial replay of exactly the committed transactions, in commit
     order, on a fresh engine *)
  let ref_db = Engine.create () in
  List.iter
    (fun t ->
      msg_exn (Engine.exec ref_db (Printf.sprintf "create table %s (a int)" t)))
    [ "t0"; "t1"; "t2" ];
  List.iter
    (fun stmts -> List.iter (fun sql -> msg_exn (Engine.exec ref_db sql)) stmts)
    (List.rev !serial);
  let serial_digest = Recovery.db_digest (Engine.catalog ref_db) in
  (final_digest, serial_digest)

let serializability_prop =
  QCheck2.Test.make ~count:120
    ~name:
      "serializability-lite: every interleaving digest-equals the serial \
       replay of its committed transactions in commit order"
    (Gen.pair gen_program (Gen.list_size (Gen.return 120) (Gen.int_bound 1000)))
    (fun (program, picks) ->
      let final_digest, serial_digest = run_history program picks in
      final_digest = serial_digest)

let suite =
  [
    Alcotest.test_case "read-your-own-writes" `Quick test_read_your_own_writes;
    Alcotest.test_case "repeatable reads under a pinned snapshot" `Quick
      test_repeatable_reads;
    Alcotest.test_case "read-only transactions never conflict" `Quick
      test_read_only_txn_never_conflicts;
    Alcotest.test_case "rollback restores version, stats and rows" `Quick
      test_rollback_restores_everything;
    Alcotest.test_case "first-committer-wins conflict is typed" `Quick
      test_conflict_is_typed;
    Alcotest.test_case "disjoint writers commute" `Quick
      test_disjoint_writers_commute;
    Alcotest.test_case "autocommit insert aborts a racing transaction" `Quick
      test_autocommit_beats_open_txn;
    Alcotest.test_case "txn-control misuse and DDL are rejected" `Quick
      test_txn_control_misuse;
    Alcotest.test_case
      "regression: failed multi-row INSERT strands no versions" `Quick
      test_failed_multirow_insert_in_txn;
    Alcotest.test_case "GAPPLY_MVCC off reads latest-committed" `Quick
      test_mvcc_off_reads_latest_committed;
    Alcotest.test_case "txn counters and EXPLAIN ANALYZE footer" `Quick
      test_txn_stats_and_footer;
    Alcotest.test_case "failed COMMIT closes and counts the transaction"
      `Quick test_failed_commit_closes_txn;
    Alcotest.test_case "concurrent reader never sees a torn commit" `Quick
      test_concurrent_reader_never_sees_torn_commit;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ serializability_prop ]
