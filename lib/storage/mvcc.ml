(* Snapshot handles for multi-version reads.

   A snapshot is a commit timestamp plus (for a session inside an open
   transaction) that session's own staged writes, so read paths get
   repeatable reads *and* read-your-own-writes from one value.  Staged
   rows live only here until COMMIT appends them to the table — an
   aborted transaction has nothing to undo because nothing shared was
   ever touched. *)

type t = {
  at : int;
      (* visibility horizon: rows with commit stamp <= at are visible *)
  staged : (string * Tuple.t array) list;
      (* normalized table name -> this transaction's own uncommitted
         rows, in insertion order; empty outside a transaction *)
}

let normalize = String.lowercase_ascii

let at s = s.at
let read_only ~at = { at; staged = [] }

let with_staged ~at staged =
  { at; staged = List.map (fun (n, rows) -> (normalize n, rows)) staged }

let staged_for s table_name = List.assoc_opt (normalize table_name) s.staged

let staged_count s table_name =
  match staged_for s table_name with
  | None -> 0
  | Some rows -> Array.length rows

let visible_count s table = Table.visible_count table ~at:s.at

let visible_view s table =
  let rows, k = Table.published_at table ~at:s.at in
  match staged_for s (Table.name table) with
  | None | Some [||] -> (rows, k)
  | Some own ->
      let n = k + Array.length own in
      (Array.init n (fun i -> if i < k then rows.(i) else own.(i - k)), n)
