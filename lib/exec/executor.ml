(* Top-level plan execution.

   [?governor] threads a per-statement resource governor into the
   environment (budget checks and cancellation inside every operator)
   and wraps the root batch cursor with the output-row limit — the one
   budget that only makes sense at the statement boundary.
   Materialisation blits whole batches into the result buffer. *)

let root ?governor (c : Compile.compiled) env : Batch.cursor =
  Governor.wrap_root_batch governor
    ~len:(fun (b : Batch.t) -> b.Batch.len)
    (c.Compile.brun env)

let materialize ?governor (c : Compile.compiled) env : Relation.t =
  Relation.of_array c.Compile.schema (Batch.to_array (root ?governor c env))

let count ?governor (c : Compile.compiled) env : int =
  let pull = root ?governor c env in
  let rec go n =
    match pull () with Some b -> go (n + b.Batch.len) | None -> n
  in
  go 0

(** Compile and run [plan] against [catalog], materialising the result.
    [?snapshot] pins every scan and index probe to an MVCC snapshot. *)
let run ?config ?governor ?snapshot (catalog : Catalog.t) (p : Plan.t) :
    Relation.t =
  let compiled = Compile.plan ?config p in
  materialize ?governor compiled (Env.make ?governor ?snapshot catalog)

(** Run and count output rows without keeping them (used by benches to
    exclude materialisation of huge results from what we keep around). *)
let run_count ?config ?governor ?snapshot (catalog : Catalog.t) (p : Plan.t) :
    int =
  let compiled = Compile.plan ?config p in
  count ?governor compiled (Env.make ?governor ?snapshot catalog)

(** Run an already-compiled plan (the plan-cache / prepared-statement
    warm path: no parse, bind, optimize, or compile).  The compiled
    closures hold no per-run state — visibility comes from the per-run
    environment's snapshot — so one [compiled] value can be run
    repeatedly and from several domains at once under different
    snapshots; the governor, if any, belongs to this single run. *)
let run_compiled ?governor ?snapshot (catalog : Catalog.t)
    (c : Compile.compiled) : Relation.t =
  materialize ?governor c (Env.make ?governor ?snapshot catalog)

(** Run a plan under an explicit environment (used by the client-side
    GApply simulation, which pre-binds group variables). *)
let run_in ?config (env : Env.t) (p : Plan.t) : Relation.t =
  let outer = List.map fst env.Env.frames in
  let compiled = Compile.plan ?config ~outer p in
  materialize compiled env
