(* Per-table string dictionaries.

   A dictionary interns every string column value at insert time,
   storing [Value.Sym] handles in the row store instead of raw strings.
   Downstream, grouping keys, join keys and sort keys over encoded
   columns compare by id / precomputed hash (see [Value]); the bytes are
   touched again only at the output boundary ([Value.to_string] — the
   tagger, rendering, digests).

   Sharding.  Interning takes a pool mutex, and concurrent sessions
   insert concurrently — so each dictionary spreads its strings over
   [shard_count] pools by string hash.  The shard choice is a pure
   function of the string, so equal strings always land in the same
   shard and therefore always receive the same (pool, id) handle: the
   id-equality fast path covers every same-column comparison.

   [set_enabled] (for A/B benchmarks and the differential tests) gates
   encoding for tables created afterwards; existing tables keep whatever encoding they were built
   with — a table's rows are never mixed. *)

let shard_count = 8

let enabled_flag = Atomic.make true

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

type t = {
  positions : int array;      (* Str-typed column positions in the schema *)
  pools : Strpool.t array;    (* [shard_count] pools, picked by string hash *)
}

(** A dictionary for [schema], or [None] when it has no string columns
    (or encoding is disabled). *)
let create (schema : Schema.t) : t option =
  if not (enabled ()) then None
  else
    let positions =
      Schema.to_list schema
      |> List.mapi (fun i (c : Schema.column) ->
             if c.Schema.ctype = Datatype.Str then Some i else None)
      |> List.filter_map Fun.id
      |> Array.of_list
    in
    if Array.length positions = 0 then None
    else Some { positions; pools = Array.init shard_count (fun _ -> Strpool.create ()) }

let encode_value t (s : string) : Value.t =
  let pool = t.pools.(Hashtbl.hash s land (shard_count - 1)) in
  Value.Sym (pool, Strpool.intern pool s)

(** Encode the string-column values of [row].  Copy-on-write: the input
    tuple is returned untouched when nothing encodes (NULLs, already
    encoded handles). *)
let encode_row t (row : Tuple.t) : Tuple.t =
  let out = ref row in
  Array.iter
    (fun i ->
      match Tuple.get !out i with
      | Value.Str s ->
          let out' = if !out == row then Tuple.copy row else !out in
          out'.(i) <- encode_value t s;
          out := out'
      | _ -> ())
    t.positions;
  !out

let total f (t : t) = Array.fold_left (fun acc pool -> acc + f pool) 0 t.pools
