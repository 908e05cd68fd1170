(* Transaction counters, registered as gapply_txn_*: atomics, so
   sessions on pool domains record begins and outcomes without tearing.
   Every begun transaction closes exactly once — committed, rolled back,
   aborted by a first-committer-wins conflict, or failed (a COMMIT that
   raised, e.g. read-only or disk full) — so [open] is derived, not
   stored, and can never drift. *)

type t = {
  begun : Metrics.counter;
  committed : Metrics.counter;    (* COMMITs that applied (incl. empty) *)
  rolled_back : Metrics.counter;  (* explicit ROLLBACKs *)
  conflicts : Metrics.counter;    (* first-committer-wins aborts *)
  failed : Metrics.counter;       (* COMMITs that raised *)
  staged : Metrics.counter;       (* DML statements staged inside txns *)
}

let create reg =
  let closed outcome =
    Metrics.counter_in reg ~label:("outcome", outcome)
      ~help:"Transactions closed, by outcome." "gapply_txn_closed_total"
  in
  let begun =
    Metrics.counter_in reg ~help:"Transactions begun." "gapply_txn_begun_total"
  in
  let committed = closed "committed" in
  let rolled_back = closed "rolled_back" in
  let conflicts = closed "conflict" in
  let failed = closed "failed" in
  let staged =
    Metrics.counter_in reg ~help:"DML statements staged inside transactions."
      "gapply_txn_staged_statements_total"
  in
  let t = { begun; committed; rolled_back; conflicts; failed; staged } in
  Metrics.derived reg ~help:"Transactions currently open." "gapply_txn_open"
    (fun () ->
      max 0
        (Metrics.get t.begun - Metrics.get t.committed - Metrics.get t.rolled_back
        - Metrics.get t.conflicts - Metrics.get t.failed));
  t
