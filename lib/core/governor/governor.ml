(* The resource governor: per-statement budgets and cooperative
   cancellation.

   One [t] is created per statement execution ([Governor.start]) and
   threaded to every operator through [Env]; it is the single place
   where wall-clock, output-row and memory budgets are checked, where
   the cancellation token lives, and where the fault-injection harness
   hooks the engine's hot paths.

   Checks are cooperative: [wrap_pull] wraps each operator's cursor so
   every pull tests the token (one atomic read) and the deadline (one
   monotonic clock read), and materialization points account each
   buffered row through [accountant]/[charge].  Cursors of one
   statement may run on many pool domains at once, so all mutable state
   here is atomic, and the *first* violation wins: whichever domain
   trips a budget records its violation and flips the token, and every
   other domain re-raises that same violation at its next pull — the
   whole parallel phase aborts promptly with one typed error.

   Memory accounting is deliberately simple: a monotonic count of bytes
   *materialized* during the statement (partition tables, hash/sort
   buffers, group copies, cached inner results), estimated per tuple.
   It is a budget on how much a statement may buffer, not an RSS
   measurement — deterministic, cheap, and exactly the quantity the
   paper's GApply makes dangerous. *)

type budget = {
  timeout_ns : int option;
  row_limit : int option;
  mem_limit_bytes : int option;
}

let unlimited = { timeout_ns = None; row_limit = None; mem_limit_bytes = None }

let is_unlimited b =
  b.timeout_ns = None && b.row_limit = None && b.mem_limit_bytes = None

type t = {
  budget : budget;
  started_ns : int;
  deadline_ns : int option;
  cancelled : bool Atomic.t;
  (* the violation that flipped the token, if any: losers of the race
     re-raise this instead of a bare [Cancelled] *)
  tripped : Errors.resource_violation option Atomic.t;
  mem_bytes : int Atomic.t;
  out_rows : int Atomic.t;
}

let start budget =
  let now = Metrics.now_ns () in
  {
    budget;
    started_ns = now;
    deadline_ns = Option.map (fun ns -> now + ns) budget.timeout_ns;
    cancelled = Atomic.make false;
    tripped = Atomic.make None;
    mem_bytes = Atomic.make 0;
    out_rows = Atomic.make 0;
  }

let budget t = t.budget
let mem_bytes t = Atomic.get t.mem_bytes
let elapsed_ns t = Metrics.now_ns () - t.started_ns
let cancelled t = Atomic.get t.cancelled

let cancel t = Atomic.set t.cancelled true

(* ---------- violations ---------- *)

(* Record the first violation, flip the token so sibling domains stop,
   and raise.  Losers of the CAS race raise the winner's violation. *)
let trip t (v : Errors.resource_violation) : 'a =
  let v =
    if Atomic.compare_and_set t.tripped None (Some v) then v
    else Option.value ~default:v (Atomic.get t.tripped)
  in
  Atomic.set t.cancelled true;
  raise (Errors.Resource_error v)

let violation ?operator kind detail : Errors.resource_violation =
  { Errors.kind; operator; detail }

let check_cancelled t ~op =
  if Atomic.get t.cancelled then
    match Atomic.get t.tripped with
    | Some v -> raise (Errors.Resource_error v)
    | None ->
        raise
          (Errors.Resource_error
             (violation ?operator:op Errors.Cancelled
                "statement cancellation token set"))

let check_deadline t ~op =
  match t.deadline_ns with
  | Some d when Metrics.now_ns () > d ->
      trip t
        (violation ?operator:op Errors.Timeout
           (Printf.sprintf "statement exceeded %s"
              (Pretty.duration_ns (Option.get t.budget.timeout_ns))))
  | _ -> ()

let check opt ~op =
  match opt with
  | None -> ()
  | Some t ->
      let op = Some op in
      check_cancelled t ~op;
      check_deadline t ~op

(* ---------- memory accounting ---------- *)

(* Estimated heap bytes of one materialized tuple: array header + one
   word per field + boxed payloads. *)
let value_bytes = function
  | Value.Null | Value.Int _ | Value.Bool _ -> 0
  | Value.Float _ -> 16
  | Value.Str s -> 24 + String.length s
  (* a dictionary handle physically shares its bytes, but the budget
     models *logical* buffering — charging the decoded length keeps
     every memory ceiling meaning the same thing whether or not a
     table happens to be dictionary-encoded *)
  | Value.Sym (pool, id) -> 24 + String.length (Strpool.unsafe_get pool id)

let tuple_bytes (row : Tuple.t) =
  Array.fold_left (fun acc v -> acc + 8 + value_bytes v) 16 row

(* Per-row partition-structure overheads.  Hash partitioning pays for a
   table slot, a bucket cons cell and a projected key copy per row (and
   the parallel phase additionally merges per-domain partials); sort
   partitioning sorts the rows in place and pays only the merge sort's
   scratch buffer and a group-list cell per row.  The
   constants encode that real gap — it is why the engine can degrade
   from hash to sort when the ceiling trips. *)
let hash_partition_overhead_per_row = 112
let hash_partition_merge_overhead_per_row = 56
let sort_partition_overhead_per_row = 48

let charge opt ~op bytes =
  match opt with
  | None -> ()
  | Some t -> (
      let total = Atomic.fetch_and_add t.mem_bytes bytes + bytes in
      match t.budget.mem_limit_bytes with
      | Some limit when total > limit ->
          trip t
            (violation ~operator:op Errors.Memory_exceeded
               (Printf.sprintf "accounted %s over the %s ceiling"
                  (Pretty.bytes total) (Pretty.bytes limit)))
      | _ -> ())

let accountant opt ~op =
  match opt with
  | None -> None
  | Some _ ->
      Some
        (fun row ->
          Fault.hit Fault.Alloc ~op:(Some op);
          charge opt ~op (tuple_bytes row))

(* Batch-materialization accounting: one Alloc fault site and one
   [charge] per batch, for the same total bytes the per-row accountant
   would have accumulated over those rows — memory ceilings trip at
   batch granularity. *)
let batch_accountant opt ~op =
  match opt with
  | None -> None
  | Some _ ->
      Some
        (fun (rows : Tuple.t array) pos len ->
          Fault.hit Fault.Alloc ~op:(Some op);
          let bytes = ref 0 in
          for i = pos to pos + len - 1 do
            bytes := !bytes + tuple_bytes (Array.unsafe_get rows i)
          done;
          charge opt ~op !bytes)

(* ---------- cursor wrappers ---------- *)

(* Wrap one operator invocation's pull chain.  Token check on every
   pull; deadline check on every pull too (a monotonic clock read is
   ~20ns, and budgeted statements are exactly the ones that must abort
   promptly).  Open / Next / Close fault sites fire here, mirroring the
   Obs trace boundaries. *)
let wrap_pull t ~op (pull : unit -> 'a option) : unit -> 'a option =
  let some_op = Some op in
  Fault.hit Fault.Open ~op:some_op;
  fun () ->
    check_cancelled t ~op:some_op;
    check_deadline t ~op:some_op;
    let r = pull () in
    (match r with
    | Some _ -> Fault.hit Fault.Next ~op:some_op
    | None -> Fault.hit Fault.Close ~op:some_op);
    r

let guard opt ~op pull =
  match opt with None -> pull | Some t -> wrap_pull t ~op pull

(* Root-cursor wrapper: counts statement output rows against the row
   limit (operator budgets see every intermediate row; only the final
   result counts here).  Each pull counts [len batch] rows, so the limit
   trips on the batch that crosses it. *)
let wrap_root_batch opt ~(len : 'a -> int) (pull : unit -> 'a option) :
    unit -> 'a option =
  match opt with
  | None -> pull
  | Some t -> (
      match t.budget.row_limit with
      | None -> pull
      | Some limit ->
          fun () ->
            let r = pull () in
            (match r with
            | Some b ->
                let n = len b in
                if Atomic.fetch_and_add t.out_rows n + n > limit then
                  trip t
                    (violation Errors.Row_limit
                       (Printf.sprintf "statement produced more than %d rows"
                          limit))
            | None -> ());
            r)
