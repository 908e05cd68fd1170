(* Materialised relations: a schema plus an ordered multiset of rows.

   The engine follows SQL multiset semantics (Section 3 of the paper):
   duplicates are preserved everywhere and eliminated only by an explicit
   [distinct].  Row order is an artifact of evaluation; [equal_as_multiset]
   is the semantic comparison used throughout the test suite. *)

type t = { schema : Schema.t; rows : Tuple.t array }

let make schema rows = { schema; rows = Array.of_list rows }
let of_array schema rows = { schema; rows }
let empty schema = { schema; rows = [||] }

let schema r = r.schema
let rows r = Array.to_list r.rows
let rows_array r = r.rows
let cardinality r = Array.length r.rows
let is_empty r = Array.length r.rows = 0

let iter f r = Array.iter f r.rows
let fold f init r = Array.fold_left f init r.rows
let map_rows f r = { r with rows = Array.map f r.rows }
let filter_rows f r =
  { r with rows = Array.of_list (List.filter f (Array.to_list r.rows)) }

let append a b =
  if Schema.arity a.schema <> Schema.arity b.schema then
    Errors.plan_errorf "Relation.append: arity mismatch (%d vs %d)"
      (Schema.arity a.schema) (Schema.arity b.schema);
  { a with rows = Array.append a.rows b.rows }

(** Project both schema and rows onto the column indexes [idxs]. *)
let project idxs r =
  {
    schema = Schema.project idxs r.schema;
    rows = Array.map (Tuple.project idxs) r.rows;
  }

(** Stable sort by the given tuple comparison. *)
let sort_by cmp r =
  let rows = Array.copy r.rows in
  let tagged = Array.mapi (fun i t -> (i, t)) rows in
  Array.sort
    (fun (i, a) (j, b) ->
      let c = cmp a b in
      if c <> 0 then c else compare i j)
    tagged;
  { r with rows = Array.map snd tagged }

(** Duplicate elimination under the total value order (SQL DISTINCT). *)
let distinct r =
  let seen = Hashtbl.create 64 in
  let keep = ref [] in
  Array.iter
    (fun row ->
      let h = Tuple.hash row in
      let bucket = try Hashtbl.find seen h with Not_found -> [] in
      if not (List.exists (Tuple.equal row) bucket) then begin
        Hashtbl.replace seen h (row :: bucket);
        keep := row :: !keep
      end)
    r.rows;
  { r with rows = Array.of_list (List.rev !keep) }

(** Multiset equality: same rows with the same multiplicities,
    irrespective of order. *)
let equal_as_multiset a b =
  Array.length a.rows = Array.length b.rows
  && Schema.arity a.schema = Schema.arity b.schema
  &&
  let sort r =
    let c = Array.copy r.rows in
    Array.sort Tuple.compare c;
    c
  in
  let xa = sort a and xb = sort b in
  Array.for_all2 Tuple.equal xa xb

let equal_as_list a b =
  Array.length a.rows = Array.length b.rows
  && Array.for_all2 Tuple.equal a.rows b.rows

(* The aligned ASCII table — the CLI's output and the server's reply
   body — rendered in two passes: the first computes every cell and the
   column widths, the second fills one exact-size [Bytes] with blits and
   fills.  Rules and rows alike are [sum (width + 3) + 2] bytes long. *)
let to_string ?max_bytes r =
  let nrows = Array.length r.rows in
  let ncols = Array.length r.schema in
  if ncols = 0 then
    "(" ^ string_of_int nrows ^ " row(s) over the empty schema)\n"
  else begin
    let headers =
      Array.map
        (fun (c : Schema.column) ->
          match c.Schema.source with
          | None -> c.Schema.cname
          | Some s -> s ^ "." ^ c.Schema.cname)
        r.schema
    in
    let width = Array.map String.length headers in
    (* row-major: the cells of row [ri] start at [ri * ncols] *)
    let cells = Array.make (nrows * ncols) "" in
    Array.iteri
      (fun ri row ->
        if Array.length row < ncols then
          invalid_arg "Relation.to_string: row shorter than the schema";
        for i = 0 to ncols - 1 do
          let s = Value.to_string (Array.unsafe_get row i) in
          if String.length s > width.(i) then width.(i) <- String.length s;
          Array.unsafe_set cells ((ri * ncols) + i) s
        done)
      r.rows;
    let line_len = Array.fold_left (fun n w -> n + w + 3) 2 width in
    let footer = "(" ^ string_of_int nrows ^ " row(s))\n" in
    let total = (line_len * (nrows + 4)) + String.length footer in
    (match max_bytes with
    | Some limit when total > limit ->
        Errors.exec_errorf
          "result table of %d bytes exceeds the %d-byte reply limit" total
          limit
    | _ -> ());
    let b = Bytes.create total in
    let pos = ref 0 in
    let rule () =
      for i = 0 to ncols - 1 do
        Bytes.unsafe_set b !pos '+';
        Bytes.unsafe_fill b (!pos + 1) (width.(i) + 2) '-';
        pos := !pos + width.(i) + 3
      done;
      Bytes.unsafe_set b !pos '+';
      Bytes.unsafe_set b (!pos + 1) '\n';
      pos := !pos + 2
    in
    let row strs base =
      for i = 0 to ncols - 1 do
        let s = Array.unsafe_get strs (base + i) in
        let n = String.length s in
        Bytes.unsafe_set b !pos '|';
        Bytes.unsafe_set b (!pos + 1) ' ';
        Bytes.unsafe_blit_string s 0 b (!pos + 2) n;
        Bytes.unsafe_fill b (!pos + 2 + n) (width.(i) - n + 1) ' ';
        pos := !pos + width.(i) + 3
      done;
      Bytes.unsafe_set b !pos '|';
      Bytes.unsafe_set b (!pos + 1) '\n';
      pos := !pos + 2
    in
    rule ();
    row headers 0;
    rule ();
    for ri = 0 to nrows - 1 do
      row cells (ri * ncols)
    done;
    rule ();
    Bytes.blit_string footer 0 b !pos (String.length footer);
    Bytes.unsafe_to_string b
  end

(** Pretty-print as an aligned ASCII table: the bytes of {!to_string}. *)
let pp ppf r = Format.pp_print_string ppf (to_string r)
