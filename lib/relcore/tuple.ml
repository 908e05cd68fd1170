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
  Array.length a = Array.length b && Array.for_all2 Value.equal_total a b

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
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 t

(** Hash tables keyed on tuples under the engine's total value order
    (so [Int 1] and [Float 1.0] hash and compare alike, unlike OCaml's
    polymorphic equality). *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let pp ppf (t : t) =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (Array.to_list t)

let to_string t = Format.asprintf "%a" pp t
