(* Pull-based row cursors: the row-at-a-time view of a compiled plan at
   the tagger/client boundary ([Compile.compiled.run], adapted from the
   batch cursor by [Batch.to_cursor]).  Each call returns the next
   tuple or [None] at end-of-stream. *)

type t = unit -> Tuple.t option

let fold f init (c : t) =
  let rec go acc = match c () with None -> acc | Some row -> go (f acc row)
  in
  go init

let iter f c = fold (fun () row -> f row) () c

(* Drain into a growable buffer with amortised doubling — one pass and
   no intermediate list. *)
let to_array (c : t) : Tuple.t array =
  let buf = ref (Array.make 32 Tuple.empty) in
  let n = ref 0 in
  iter
    (fun row ->
      if !n = Array.length !buf then begin
        let bigger = Array.make (2 * !n) Tuple.empty in
        Array.blit !buf 0 bigger 0 !n;
        buf := bigger
      end;
      !buf.(!n) <- row;
      incr n)
    c;
  if !n = Array.length !buf then !buf else Array.sub !buf 0 !n

let to_list (c : t) : Tuple.t list =
  List.rev (fold (fun acc row -> row :: acc) [] c)

let to_relation schema c = Relation.of_array schema (to_array c)

(** Count remaining tuples, consuming the cursor. *)
let length c = fold (fun n _ -> n + 1) 0 c
