(* Runtime execution environment.

   [frames] carries the current rows of enclosing Apply outer inputs
   (innermost first) for correlated expression evaluation; [groups] binds
   relation-valued variables — the paper's $group parameters — for
   Group_scan leaves inside a per-group query.  A group is a view over
   its partition's member array, so binding one copies nothing. *)

type t = {
  catalog : Catalog.t;
  frames : Eval.frames;
  groups : (string * Batch.t) list;
  governor : Governor.t option;
      (* the running statement's resource governor; derived envs (Apply
         frames, GApply group bindings) inherit it, so budget checks
         reach per-group queries on pool domains *)
  snapshot : Mvcc.t option;
      (* the session's MVCC snapshot; table scans and index probes
         resolve visibility against it.  None = latest-committed reads
         (callers outside the engine, recovery replay). *)
}

let make ?governor ?snapshot catalog =
  { catalog; frames = []; groups = []; governor; snapshot }

let push_frame schema tuple env =
  { env with frames = (schema, tuple) :: env.frames }

let bind_view var view env = { env with groups = (var, view) :: env.groups }

let bind_group var relation env =
  let rows = Relation.rows_array relation in
  bind_view var { Batch.rows; pos = 0; len = Array.length rows } env

let find_group env var =
  match List.assoc_opt var env.groups with
  | Some r -> r
  | None ->
      Errors.exec_errorf "unbound relation-valued variable $%s" var
