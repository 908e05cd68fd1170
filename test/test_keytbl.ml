(* The key table (Keytbl, as Value.Tbl and Tuple.Tbl) against a model,
   and the hash join's key handling that rides on it.

   The model keeps the bindings by id (insertion order) in a
   Stdlib.Hashtbl and searches them under [Value.equal_total], so it
   shares no hashing with the table.  Keys are drawn so
   that equal keys of different representations meet: [Int] and
   [Float] of one value, [-0.] and [0.], ints at and beyond +-2^53 (where
   floats round), [Sym]s of one string from two pools and the [Str] of
   it, and [Null]. *)

open Support

(* ---------- the model ---------- *)

(* Bindings by id in a Stdlib.Hashtbl, searched under the key's
   equality.  Beyond 2^53 [equal_total] is not transitive ([Int 2^53]
   and [Int (2^53+1)] both equal [Float 2^53]), so a probe may equal
   several bound keys: the table must then find one of them. *)
type 'k model = { ids : (int, 'k * int) Hashtbl.t; mutable n : int }

let equals equal m k =
  List.sort compare
    (Hashtbl.fold (fun id (k', _) acc -> if equal k' k then id :: acc else acc)
       m.ids [])

(* ---------- keys ---------- *)

let pool_a = Strpool.create ()
let pool_b = Strpool.create ()
let sym pool s = Value.Sym (pool, Strpool.intern pool s)
let two_53 = 1 lsl 53

let gen_key : Value.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let word = oneofl [ "a"; "b"; "c"; "ab"; ""; "zz" ] in
  let edge =
    oneofl
      [ two_53; -two_53; two_53 + 1; -two_53 - 1; two_53 - 1; 1 - two_53;
        two_53 + 2; min_int; max_int ]
  in
  frequency
    [
      (6, map vi (int_range (-20) 60));
      (3, map (fun i -> vf (float_of_int i)) (int_range (-20) 60));
      (1, map vf (oneofl [ 0.; -0.; 0.5; -2.5; nan; infinity; 0x1p53; -0x1p53;
                           0x1p53 +. 2.; 0x1p62 ]));
      (2, map vi edge);
      (1, map (fun i -> vf (float_of_int i)) edge);
      (2, map (sym pool_a) word);
      (2, map (sym pool_b) word);
      (2, map vs word);
      (1, return vnull);
      (1, map vb bool);
    ]

let gen_tuple_key : Tuple.t QCheck2.Gen.t =
  QCheck2.Gen.(
    oneof
      [
        map (fun v -> [| v |]) gen_key;
        map2 (fun a b -> [| a; b |]) gen_key gen_key;
        (* few distinct pairs, so they repeat *)
        map2 (fun a b -> [| vi a; vi b |]) (int_range 0 3) (int_range 0 3);
        return [||];
      ])

type 'k op =
  | Find of 'k
  | Mem of 'k
  | Add of 'k * int
  | Intern of 'k * int
  | Replace of 'k * int
  | Iter
  | Length

let gen_ops gen_key =
  QCheck2.Gen.(
    list_size (int_range 1 300)
      (frequency
         [
           (3, map (fun k -> Find k) gen_key);
           (1, map (fun k -> Mem k) gen_key);
           (3, map2 (fun k v -> Add (k, v)) gen_key small_nat);
           (2, map2 (fun k v -> Intern (k, v)) gen_key small_nat);
           (2, map2 (fun k v -> Replace (k, v)) gen_key small_nat);
           (1, return Iter);
           (1, return Length);
         ]))

let print_op pp = function
  | Find k -> "find " ^ pp k
  | Mem k -> "mem " ^ pp k
  | Add (k, v) -> Printf.sprintf "add %s %d" (pp k) v
  | Intern (k, v) -> Printf.sprintf "intern %s %d" (pp k) v
  | Replace (k, v) -> Printf.sprintf "replace %s %d" (pp k) v
  | Iter -> "iter"
  | Length -> "length"

let literal v =
  match v with
  | Value.Float f -> Printf.sprintf "%h" f
  | Value.Sym (p, _) ->
      (if p == pool_a then "symA:" else "symB:") ^ Value.to_string v
  | Value.Str s -> "str:" ^ s
  | v -> Value.to_string v

(* ---------- the property ---------- *)

module Check (T : Keytbl.S) (P : sig
  val pp : T.key -> string
  val equal : T.key -> T.key -> bool
end) =
struct
  (* Run [ops] on a fresh table of initial size [init] and the model;
     the first disagreement, if any. *)
  let run init ops =
    let t = T.create init and m = { ids = Hashtbl.create 16; n = 0 } in
    let fail fmt = Printf.ksprintf (fun s -> Some s) fmt in
    let find_opt k =
      match T.find t k with v -> Some v | exception Not_found -> None
    in
    (* the id the table finds for [k], checked against the model *)
    let found k =
      let id = T.find_id t k in
      match equals P.equal m k with
      | [] when id = -1 -> Ok None
      | ids when List.mem id ids
                 && P.equal (T.key t id) (fst (Hashtbl.find m.ids id)) ->
          Ok (Some id)
      | ids ->
          Error
            (Printf.sprintf "%s: found id %d, want one of [%s]" (P.pp k) id
               (String.concat " " (List.map string_of_int ids)))
    in
    let bind k v =
      Hashtbl.replace m.ids m.n (k, v);
      m.n <- m.n + 1
    in
    let step = function
      | Find k -> (
          match found k with
          | Error e -> Some ("find " ^ e)
          | Ok None ->
              if find_opt k = None then None else fail "find: a value"
          | Ok (Some id) ->
              if find_opt k = Some (snd (Hashtbl.find m.ids id)) then None
              else fail "find %s: not the id's value" (P.pp k))
      | Mem k -> (
          match found k with
          | Error e -> Some ("mem " ^ e)
          | Ok id ->
              if T.mem t k = Option.is_some id then None
              else fail "mem %s" (P.pp k))
      | Add (k, v) -> (
          match found k with
          | Error e -> Some ("add " ^ e)
          | Ok bound -> (
              match T.add t k v with
              | () when Option.is_some bound ->
                  fail "add %s: a bound key was added" (P.pp k)
              | () ->
                  bind k v;
                  None
              | exception Invalid_argument _ when Option.is_some bound -> None
              | exception Invalid_argument _ ->
                  fail "add %s: refused an unbound key" (P.pp k)))
      | Intern (k, v) -> (
          match found k with
          | Error e -> Some ("intern " ^ e)
          | Ok (Some id) ->
              let got = T.intern t k v in
              if got = id then None
              else fail "intern %s: id %d, want %d" (P.pp k) got id
          | Ok None ->
              let got = T.intern t k v in
              if got = m.n then (
                bind k v;
                None)
              else fail "intern %s: new id %d, want %d" (P.pp k) got m.n)
      | Replace (k, v) -> (
          match found k with
          | Error e -> Some ("replace " ^ e)
          | Ok None ->
              T.replace t k v;
              bind k v;
              None
          | Ok (Some id) ->
              T.replace t k v;
              Hashtbl.replace m.ids id (fst (Hashtbl.find m.ids id), v);
              None)
      | Iter ->
          let seen = ref [] in
          T.iter (fun k v -> seen := (k, v) :: !seen) t;
          let want = List.init m.n (Hashtbl.find m.ids) in
          if
            List.length !seen = m.n
            && List.for_all2
                 (fun (k, v) (k', v') -> P.equal k k' && v = v')
                 (List.rev !seen) want
          then None
          else fail "iter: not the bindings in insertion order"
      | Length ->
          if T.length t = m.n then None
          else fail "length %d, want %d" (T.length t) m.n
    in
    let rec go = function
      | [] ->
          (* every id still holds its key and value after the resizes *)
          Hashtbl.fold
            (fun id (k, v) acc ->
              match acc with
              | Some _ -> acc
              | None ->
                  if P.equal (T.key t id) k && T.value t id = v then None
                  else fail "id %d lost its binding" id)
            m.ids None
      | op :: rest -> ( match step op with None -> go rest | bad -> bad)
    in
    go ops
end

module Check_value =
  Check (Value.Tbl)
    (struct
      let pp = literal
      let equal = Value.equal_total
    end)

module Check_tuple =
  Check (Tuple.Tbl)
    (struct
      let pp (t : Tuple.t) =
        "(" ^ String.concat ", " (Array.to_list (Array.map literal t)) ^ ")"

      let equal = Tuple.equal
    end)

let prop name gen_key pp run =
  QCheck2.Test.make ~count:300 ~long_factor:20 ~name
    ~print:(fun (init, ops) ->
      Printf.sprintf "create %d; %s" init
        (String.concat "; " (List.map (print_op pp) ops)))
    QCheck2.Gen.(pair (oneofl [ 1; 8; 64 ]) (gen_ops gen_key))
    (fun (init, ops) ->
      match run init ops with
      | None -> true
      | Some msg -> QCheck2.Test.fail_report msg)

let prop_value =
  prop "Value.Tbl = a Stdlib.Hashtbl model under equal_total" gen_key
    literal Check_value.run

let prop_tuple =
  prop "Tuple.Tbl = a Stdlib.Hashtbl model under Tuple.equal" gen_tuple_key
    (fun (t : Tuple.t) -> Tuple.to_string t)
    Check_tuple.run

(* ---------- fixed cases ---------- *)

let test_int_views () =
  Alcotest.(check int) "Int 3" 3 (Value.int_view (vi 3));
  Alcotest.(check int) "Float 3." 3 (Value.int_view (vf 3.));
  Alcotest.(check int) "Float -0." 0 (Value.int_view (vf (-0.)));
  Alcotest.(check int) "2^53 - 1 has one" (two_53 - 1)
    (Value.int_view (vi (two_53 - 1)));
  List.iter
    (fun v ->
      Alcotest.(check int) (literal v ^ " has none") Keytbl.no_int
        (Value.int_view v))
    [ vi two_53; vi (-two_53); vf 0x1p53; vf 0.5; vf nan; vs "3"; vnull;
      vb true ];
  (* the Int path and the hashed path meet: a float key finds an int
     key's entry, across resizes *)
  let t = Value.Tbl.create 1 in
  for i = 0 to 999 do
    Value.Tbl.add t (if i mod 2 = 0 then vi i else vf (float_of_int i)) i
  done;
  for i = 0 to 999 do
    Alcotest.(check int) "crossed lookup" i
      (Value.Tbl.find t (if i mod 2 = 0 then vf (float_of_int i) else vi i))
  done;
  Alcotest.(check int) "ids are insertion order" 500
    (Value.Tbl.find_id t (vf 500.))

(* ---------- the hash join's keys ---------- *)

let table name cols rows =
  let t =
    Table.create name (List.map (fun c -> (c, Datatype.Int)) cols)
  in
  List.iter (fun r -> Table.insert t (row r)) rows;
  t

let col t c = Expr.column ~qual:t c
let eq ?(null_safe = false) a b =
  Expr.Binary ((if null_safe then Expr.Nulleq else Expr.Eq), a, b)

(* [l ⋈ r] on [pred] through the hash join must be the nested loop over
   [l] then [r] in order, keeping the pairs [matches] accepts. *)
let check_join msg ~matches pred (l : Table.t) (r : Table.t) =
  let cat = Catalog.create () in
  Catalog.add_table cat l;
  Catalog.add_table cat r;
  let plan =
    Plan.join pred (scan cat (Table.name l)) (scan cat (Table.name r))
  in
  let want =
    List.concat_map
      (fun lr ->
        List.filter_map
          (fun rr -> if matches lr rr then Some (Tuple.concat lr rr) else None)
          (Table.rows r))
      (Table.rows l)
  in
  let got = Executor.run cat plan in
  Alcotest.check relation_ordered_testable msg
    (Relation.make (Relation.schema got) want)
    got

let same a b = (not (Value.is_null a)) && Value.equal_total a b

let test_join_int_build_float_probe () =
  let r = table "r" [ "k" ] [ [ vi 1 ]; [ vi 2 ]; [ vi 3 ]; [ vi 1 ] ] in
  let l =
    table "l" [ "x" ] [ [ vf 1.0 ]; [ vf 2.5 ]; [ vf (-0.) ]; [ vi 3 ] ]
  in
  check_join "an all-Int build probed with floats"
    ~matches:(fun lr rr -> same lr.(0) rr.(0))
    (eq (col "l" "x") (col "r" "k"))
    l r

let test_join_keys_turn_non_int () =
  let r =
    table "r" [ "k"; "v" ]
      [ [ vi 1; vi 0 ]; [ vi 2; vi 1 ]; [ vs "a"; vi 2 ]; [ vf 2.5; vi 3 ];
        [ vnull; vi 4 ]; [ vi 1; vi 5 ]; [ vs "a"; vi 6 ]; [ vf 2.0; vi 7 ] ]
  in
  let l =
    table "l" [ "x" ]
      [ [ vi 1 ]; [ vs "a" ]; [ vf 2.5 ]; [ vi 2 ]; [ vnull ]; [ vs "b" ] ]
  in
  check_join "a build whose keys turn non-Int midway"
    ~matches:(fun lr rr -> same lr.(0) rr.(0))
    (eq (col "l" "x") (col "r" "k"))
    l r

let test_join_null_keys () =
  let r =
    table "r" [ "a"; "b" ]
      [ [ vi 1; vnull ]; [ vi 1; vi 2 ]; [ vnull; vnull ]; [ vi 1; vnull ] ]
  in
  let l =
    table "l" [ "a"; "b" ] [ [ vi 1; vnull ]; [ vnull; vnull ]; [ vi 1; vi 2 ] ]
  in
  let pair ~null_safe =
    Expr.Binary
      ( Expr.And,
        eq (col "l" "a") (col "r" "a"),
        eq ~null_safe (col "l" "b") (col "r" "b") )
  in
  check_join "NULL keys never match under ="
    ~matches:(fun lr rr -> same lr.(0) rr.(0) && same lr.(1) rr.(1))
    (pair ~null_safe:false) l r;
  check_join "NULL keys match each other under <=>"
    ~matches:(fun lr rr ->
      same lr.(0) rr.(0) && Value.equal_total lr.(1) rr.(1))
    (pair ~null_safe:true) l r;
  check_join "one null-safe column"
    ~matches:(fun lr rr -> Value.equal_total lr.(0) rr.(0))
    (eq ~null_safe:true (col "l" "a") (col "r" "a"))
    l r

let suite =
  [
    Alcotest.test_case "int views and the crossed Int/Float path" `Quick
      test_int_views;
    QCheck_alcotest.to_alcotest prop_value;
    QCheck_alcotest.to_alcotest prop_tuple;
    Alcotest.test_case "join: an all-Int build probed with Float keys" `Quick
      test_join_int_build_float_probe;
    Alcotest.test_case "join: a build whose keys turn non-Int midway" `Quick
      test_join_keys_turn_non_int;
    Alcotest.test_case "join: NULL keys under = and <=>" `Quick
      test_join_null_keys;
  ]
