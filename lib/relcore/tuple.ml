(* Tuples are flat value arrays positionally aligned with a schema. *)

type t = Value.t array

let of_list vs : t = Array.of_list vs
let to_list (t : t) = Array.to_list t
let arity (t : t) = Array.length t
let get (t : t) i = t.(i)
let empty : t = [||]

(* rows are immutable, so an empty side lets the other be shared *)
let concat (a : t) (b : t) : t =
  if Array.length a = 0 then b
  else if Array.length b = 0 then a
  else Array.append a b

let copy (t : t) : t = Array.copy t

let project idxs (t : t) : t =
  match idxs with
  | [] -> [||]
  | first :: _ ->
      (* build the result directly instead of via an intermediate list *)
      let dst = Array.make (List.length idxs) t.(first) in
      List.iteri (fun j i -> dst.(j) <- t.(i)) idxs;
      dst

let equal (a : t) (b : t) =
  let n = Array.length a in
  let rec go i =
    i = n
    || (Value.equal_total (Array.unsafe_get a i) (Array.unsafe_get b i)
       && go (i + 1))
  in
  n = Array.length b && go 0

(** Lexicographic total order using [Value.compare_total]. *)
let compare (a : t) (b : t) =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then Stdlib.compare (Array.length a) (Array.length b)
    else
      let c = Value.compare_total a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let hash (t : t) =
  let h = ref 7 in
  for i = 0 to Array.length t - 1 do
    h := (!h * 31) + Value.hash (Array.unsafe_get t i)
  done;
  !h

(** Key tables on tuples under the engine's total value order (so
    [Int 1] and [Float 1.0] hash and compare alike, unlike OCaml's
    polymorphic equality).  A one-cell tuple has its cell's int view. *)
module Tbl = Keytbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash

  let int_view (t : t) =
    if Array.length t = 1 then Value.int_view (Array.unsafe_get t 0)
    else Keytbl.no_int
end)

let number_rows tbl v ~positions (rows : t array) ~ids ~pos ~len =
  let scratch = Array.make (Array.length positions) Value.Null in
  for k = pos to pos + len - 1 do
    let row = Array.unsafe_get rows k in
    for j = 0 to Array.length positions - 1 do
      Array.unsafe_set scratch j row.(Array.unsafe_get positions j)
    done;
    let g = Tbl.find_id tbl scratch in
    Array.unsafe_set ids k
      (if g >= 0 then g
       else begin
         Tbl.add tbl (Array.copy scratch) v;
         Tbl.length tbl - 1
       end)
  done

let pp ppf (t : t) =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (Array.to_list t)

let to_string t = Format.asprintf "%a" pp t
