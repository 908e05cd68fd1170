(* The partition phase of GApply and GROUP BY ([Compile.partition])
   against a model.

   Hash partitioning numbers the input's batches as they arrive and
   lays every group out in an array of its own; the model is the
   contiguous layout: groups in reverse first-seen key order, each
   holding its rows in input order, with the key of its first row.
   Sort partitioning must give the groups in key order, members again
   in input order.  Both must be the same at parallelism 1, 2 and 4.

   Inputs are cut into batches of 1, 7, 128 or 300 rows (views at an
   offset into one array, so a batch's [pos] matters), keyed on one
   column or on two in either order.  Key cells mix NULL, Int, Float
   and Str, with [Int 1] / [Float 1.] and [0.] / [-0.] equal under the
   key order but told apart here, so a group keeps its first row's key.
   Some inputs have few keys, so groups span batches and exceed 256
   rows; some pass the parallel partition phase's 1024-row threshold.
   Every row carries its input number, and members are compared by
   identity. *)

open Support
module Gen = QCheck2.Gen

let gen_cell =
  Gen.oneofl
    [ vnull; vi 0; vi 1; vi 2; vi (-3); vf 0.; vf (-0.); vf 1.; vf 2.5; vs "a";
      vs "b" ]

(* a row: two key cells and its input number *)
let gen_rows =
  let open Gen in
  let* n =
    frequency
      [ (5, int_bound 60); (3, int_range 200 700); (2, int_range 1024 1500) ]
  in
  (* few keys: long groups *)
  let* narrow = bool in
  let cell = if narrow then oneofl [ vi 1; vf 1.; vnull ] else gen_cell in
  let+ cells = list_repeat n (pair cell cell) in
  Array.of_list
    (List.mapi (fun i (a, b) -> Tuple.of_list [ a; b; vi i ]) cells)

type case = {
  rows : Tuple.t array;
  batch : int;
  idxs : int array;
}

let gen_case =
  Gen.no_shrink
  @@ Gen.map3
       (fun rows batch idxs -> { rows; batch; idxs })
       gen_rows
       (Gen.oneofl [ 1; 7; 128; 300 ])
       (Gen.oneofl [ [| 0 |]; [| 1 |]; [| 0; 1 |]; [| 1; 0 |] ])

let print_case c =
  Printf.sprintf "%d rows, batches of %d, key columns [%s]"
    (Array.length c.rows) c.batch
    (String.concat ";" (Array.to_list (Array.map string_of_int c.idxs)))

let key idxs (row : Tuple.t) : Tuple.t = Array.map (fun i -> row.(i)) idxs

(* groups as (key, members) in the model's order *)
let hash_model c =
  let groups = ref [] in
  Array.iter
    (fun row ->
      let k = key c.idxs row in
      match List.find_opt (fun (k', _) -> Tuple.equal k k') !groups with
      | Some (_, members) -> members := row :: !members
      | None -> groups := (k, ref [ row ]) :: !groups)
    c.rows;
  (* latest first-seen first: already the list's order *)
  List.map (fun (k, members) -> (k, List.rev !members)) !groups

let sort_model c =
  let cmp a b = Tuple.compare (key c.idxs a) (key c.idxs b) in
  let sorted = List.stable_sort cmp (Array.to_list c.rows) in
  let rec cut = function
    | [] -> []
    | row :: _ as rows ->
        let same r = cmp row r = 0 in
        let members = List.filter same rows in
        (key c.idxs row, members)
        :: cut (List.filter (fun r -> not (same r)) rows)
  in
  cut sorted

let groups_of (gs : Compile.groups) =
  Array.to_list
    (Array.mapi
       (fun g k ->
         let v = gs.Compile.members.(g) in
         (k, List.init v.Batch.len (Batch.get v)))
       gs.Compile.keys)

(* the same key cells (Int 1 and Float 1. differ here) and the very
   same member rows *)
let same_groups want got =
  List.length want = List.length got
  && List.for_all2
       (fun (k, ms) (k', ms') ->
         compare k k' = 0
         && List.length ms = List.length ms'
         && List.for_all2 ( == ) ms ms')
       want got

let describe groups =
  String.concat " "
    (List.map
       (fun (k, ms) ->
         Printf.sprintf "%s:[%s]" (Tuple.to_string k)
           (String.concat ","
              (List.map (fun (r : Tuple.t) -> Value.to_string r.(2)) ms)))
       groups)

let prop_partition =
  QCheck2.Test.make ~count:150 ~long_factor:20
    ~name:"hash partition = contiguous layout, sort partition = key order"
    ~print:print_case gen_case (fun c ->
      List.for_all
        (fun (strategy, label, model) ->
          let want = model c in
          List.for_all
            (fun parallelism ->
              let gs =
                Compile.partition
                  ?pool:(Domain_pool.for_parallelism parallelism)
                  ~input:"test.input" ~op:"test.partition" strategy
                  ~idxs:c.idxs
                  (Batch.of_array ~size:c.batch c.rows)
              in
              let got = groups_of gs in
              same_groups want got
              || QCheck2.Test.fail_reportf
                   "%s at parallelism %d:@.want %s@.got  %s" label parallelism
                   (describe want) (describe got))
            [ 1; 2; 4 ])
        [
          (Compile.Hash_partition, "hash", hash_model);
          (Compile.Sort_partition, "sort", sort_model);
        ])

(* A group of over 256 rows gets an array of exactly its size, as
   every other group does, and an empty input has no group. *)
let test_layout () =
  let rows = Array.init 700 (fun i -> Tuple.of_list [ vi (i mod 2); vi i ]) in
  let gs =
    Compile.partition ~input:"test.input" ~op:"test.partition"
      Compile.Hash_partition ~idxs:[| 0 |]
      (Batch.of_array ~size:128 rows)
  in
  Alcotest.(check (list int)) "reverse first-seen keys" [ 1; 0 ]
    (Array.to_list
       (Array.map
          (fun k -> match k with [| Value.Int i |] -> i | _ -> -1)
          gs.Compile.keys));
  Array.iter
    (fun (v : Batch.t) ->
      Alcotest.(check int) "a group's own array" v.len (Array.length v.rows);
      Alcotest.(check int) "from its start" 0 v.pos;
      Alcotest.(check int) "350 members" 350 v.len)
    gs.Compile.members;
  let empty =
    Compile.partition ~input:"test.input" ~op:"test.partition"
      Compile.Hash_partition ~idxs:[| 0 |] (Batch.of_array [||])
  in
  Alcotest.(check int) "no group" 0 (Array.length empty.Compile.keys)

let suite =
  Alcotest.test_case "a group's members get an array of their own" `Quick
    test_layout
  :: List.map QCheck_alcotest.to_alcotest [ prop_partition ]
