(* Batch-at-a-time execution: arrays of tuples between operators.

   The Volcano cursor ([Cursor.t = unit -> Tuple.t option]) pays one
   closure call and one [Some] allocation per tuple per operator.  A
   batch cursor amortizes both over ~[default_size] rows: operators pull
   a whole [t] at once and process it in a tight array loop, so the
   per-tuple cost on the hot path drops to an array read.

   A batch is a *view* [{ rows; pos; len }] over a row array —
   producers can hand out windows of a large materialized array without
   copying ([of_array] chunks this way).  Consumers must not mutate
   [rows] and must not read outside [pos .. pos+len-1]; producers never
   write a view's rows after emitting it, so a consumer may keep a
   batch past the next pull.

   Every compiled operator is a batch cursor; [to_cursor] is the one
   adapter back to rows, for consumers at the tagger/client boundary. *)

type t = {
  rows : Tuple.t array;
  pos : int;   (* first valid index *)
  len : int;   (* number of valid rows; always > 0 for emitted batches *)
}

type cursor = unit -> t option

(* 128, not the literature's customary 1024: OCaml allocates arrays
   longer than [Max_young_wosize] (256 words) directly on the major
   heap, so batches over ~255 rows turn every intermediate buffer into
   a major-heap allocation and the bench sweep shows them losing;
   128-row batches stay minor-heap and measure fastest. *)
let default_size = 128

let get b i = Array.unsafe_get b.rows (b.pos + i)

let iter f b =
  for i = b.pos to b.pos + b.len - 1 do
    f (Array.unsafe_get b.rows i)
  done

(* ---------- producers ---------- *)

(** Chunk the view [v] into windows of [size] rows — no copying, each
    batch is a view over [v.rows]. *)
let of_view ?(size = default_size) (v : t) : cursor =
  let size = max 1 size in
  let stop = v.pos + v.len in
  let pos = ref v.pos in
  fun () ->
    if !pos >= stop then None
    else begin
      let p = !pos in
      let len = min size (stop - p) in
      pos := p + len;
      Some { rows = v.rows; pos = p; len }
    end

let of_array ?size (arr : Tuple.t array) : cursor =
  of_view ?size { rows = arr; pos = 0; len = Array.length arr }

(* ---------- consumers / adapters ---------- *)

(** Unbatch: replay a batch cursor row by row.  One live batch at a
    time, so the row-at-a-time boundary keeps the pipeline streaming;
    the batch and the position in it are mutable fields, so a row costs
    only its [Some]. *)
type replay = { mutable batch : t; mutable at : int }

let to_cursor (bc : cursor) : Cursor.t =
  let r = { batch = { rows = [||]; pos = 0; len = 0 }; at = 0 } in
  let rec next () =
    if r.at < r.batch.len then begin
      let row = get r.batch r.at in
      r.at <- r.at + 1;
      Some row
    end
    else
      match bc () with
      | None -> None
      | Some b ->
          r.batch <- b;
          r.at <- 0;
          next ()
  in
  next

(** Drain into a fresh array of exactly the rows drained: the batches
    are kept until the end (emitted rows are never written, see the
    header) and blitted into one array, so a large result is allocated
    once, at its size.  [account] (if given) is called once per batch
    with [(rows, pos, len)] — the governor charges materialization this
    way without a per-row callback. *)
let to_array ?account (bc : cursor) : Tuple.t array =
  let rec drain kept n =
    match bc () with
    | None -> (kept, n)
    | Some b ->
        (match account with None -> () | Some f -> f b.rows b.pos b.len);
        drain (b :: kept) (n + b.len)
  in
  match drain [] 0 with
  | [], _ -> [||]
  | kept, n ->
      let out = Array.make n Tuple.empty in
      List.fold_left
        (fun stop b ->
          Array.blit b.rows b.pos out (stop - b.len) b.len;
          stop - b.len)
        n kept
      |> ignore;
      out

let drain_iter f (bc : cursor) =
  let rec go () =
    match bc () with
    | None -> ()
    | Some b ->
        iter f b;
        go ()
  in
  go ()

(* ---------- transformers ---------- *)

(** Keep rows satisfying [pred].  Loops over input batches until at
    least one row survives, so emitted batches are never empty; the
    surviving rows are compacted into a fresh exactly-sized array. *)
let filter (pred : Tuple.t -> bool) (bc : cursor) : cursor =
  let rec next () =
    match bc () with
    | None -> None
    | Some b ->
        let scratch = Array.make b.len Tuple.empty in
        let k = ref 0 in
        for i = b.pos to b.pos + b.len - 1 do
          let row = Array.unsafe_get b.rows i in
          if pred row then begin
            Array.unsafe_set scratch !k row;
            incr k
          end
        done;
        if !k = 0 then next ()
        else Some { rows = scratch; pos = 0; len = !k }
  in
  next

(** Apply [f] to every row, producing same-length batches. *)
let map (f : Tuple.t -> Tuple.t) (bc : cursor) : cursor =
 fun () ->
  match bc () with
  | None -> None
  | Some b ->
      let out = Array.make b.len Tuple.empty in
      for i = 0 to b.len - 1 do
        Array.unsafe_set out i (f (Array.unsafe_get b.rows (b.pos + i)))
      done;
      Some { rows = out; pos = 0; len = b.len }

(** Concatenate lazily: each thunk is forced only when the previous
    source is exhausted, so later UNION ALL branches are not invoked
    (nor counted as invocations) early. *)
let concat (sources : (unit -> cursor) list) : cursor =
  let remaining = ref sources in
  let current = ref None in
  let rec next () =
    match !current with
    | Some bc -> (
        match bc () with
        | Some _ as b -> b
        | None ->
            current := None;
            next ())
    | None -> (
        match !remaining with
        | [] -> None
        | mk :: rest ->
            remaining := rest;
            current := Some (mk ());
            next ())
  in
  next

(** Defer building the underlying cursor until the first pull — used
    by materializing operators. *)
let deferred (mk : unit -> cursor) : cursor =
  let state = ref None in
  fun () ->
    match !state with
    | Some bc -> bc ()
    | None ->
        let bc = mk () in
        state := Some bc;
        bc ()
