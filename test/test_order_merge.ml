(* ORDER BY over presorted branches.

   An ORDER BY compiles each branch of its input (a UNION ALL's, or the
   input itself) on its own: a branch whose order property covers the
   leading keys streams through per-group run checks, any other is
   materialized and sorted, and a stable k-way merge joins them.  The
   property: the result equals, row for row, [Compile.sort_rows] (a
   stable sort) over the materialized input.

   Branches are clustered GApplies whose grouping columns cover none,
   some or all of the leading keys (under a projection that may move
   them), with per-group queries whose rows are in member order, sorted
   or interleaved; ORDER BYs; and plain unsorted scans.  Key cells mix
   NULL, Int and Float, so [Int 1] and [Float 1.] tie without being
   equal and a misplaced tie shows; every row carries its branch number
   and its input row number. *)

open Support
module Gen = QCheck2.Gen

let base_schema =
  schema
    [ ("a", Datatype.Int); ("b", Datatype.Int); ("c", Datatype.Int);
      ("s", Datatype.Int) ]

let gen_cell =
  Gen.oneofl
    [ vnull; vi 0; vi 1; vi 2; vf 0.5; vf 1.; vf 2. ]

(* mostly small; at times big enough for groups to span 128-row
   batches, or for the parallel partition phase.  Not shrunk: shrinking
   a thousand rows takes minutes, and the branches and keys shrink. *)
let gen_base =
  Gen.no_shrink
  @@ Gen.map
    (fun rows ->
      Relation.make base_schema
        (List.mapi (fun i cells -> Tuple.of_list (cells @ [ vi i ])) rows))
    (Gen.list_size
       (Gen.frequency
          [ (6, Gen.int_range 0 40); (2, Gen.int_range 100 400);
            (1, Gen.int_range 1024 1300) ])
       (Gen.list_repeat 3 gen_cell))

(* ---------- branches ---------- *)

type pgq = Members | Sorted of Plan.sort_dir list | Interleaved

type branch =
  | Plain
  | Ordered of (int * Plan.sort_dir) list
      (** ORDER BY over [Plain], on output columns *)
  | Gapply of { gcols : string list; pgq : pgq; perm : int array }
      (** clustered GApply, its first three output columns moved by
          [perm] *)

let dir_name = function Plan.Asc -> "asc" | Plan.Desc -> "desc"

let branch_to_string = function
  | Plain -> "plain"
  | Ordered keys ->
      Printf.sprintf "ordered[%s]"
        (String.concat ", "
           (List.map (fun (i, d) -> Printf.sprintf "x%d %s" i (dir_name d)) keys))
  | Gapply { gcols; pgq; perm } ->
      Printf.sprintf "gapply[%s; %s; perm %s]" (String.concat "," gcols)
        (match pgq with
        | Members -> "members"
        | Sorted dirs ->
            "sorted " ^ String.concat "," (List.map dir_name dirs)
        | Interleaved -> "interleaved")
        (String.concat "" (Array.to_list (Array.map string_of_int perm)))

let out_names = [ "x0"; "x1"; "x2"; "s"; "br" ]

(* project [cols] then the branch number under the output names *)
let named cols i input =
  Plan.project
    (List.map2
       (fun c name -> (Expr.column c, name))
       cols (List.filteri (fun j _ -> j < List.length cols) out_names)
    @ [ (Expr.int i, "br") ])
    input

let g = Plan.group_scan ~var:"g" base_schema

let build i = function
  | Plain -> named [ "a"; "b"; "c"; "s" ] i g
  | Ordered keys ->
      Plan.order_by
        (List.map (fun (k, d) -> (Expr.column (Printf.sprintf "x%d" k), d)) keys)
        (named [ "a"; "b"; "c"; "s" ] i g)
  | Gapply { gcols; pgq; perm } ->
      let rest =
        List.filter (fun c -> not (List.mem c gcols)) [ "a"; "b"; "c" ]
      in
      let h = Plan.group_scan ~var:"h" base_schema in
      let members input =
        Plan.project
          (List.map (fun c -> (Expr.column c, c)) (rest @ [ "s" ])
          @ [ (Expr.int i, "br") ])
          input
      in
      let body =
        match pgq with
        | Members -> members h
        | Sorted dirs ->
            (* sorted on its non-grouping columns *)
            Plan.order_by
              (List.map2 (fun c d -> (Expr.column c, d)) rest
                 (List.filteri (fun j _ -> j < List.length rest) dirs))
              (members h)
        | Interleaved ->
            (* the members with a NULL in [c], then the others *)
            let null = Expr.Unary (Expr.Is_null, Expr.column "c") in
            Plan.union_all
              [ members (Plan.select null h);
                members
                  (Plan.select (Expr.Unary (Expr.Is_not_null, Expr.column "c")) h) ]
      in
      let ga =
        Plan.g_apply_clustered
          ~gcols:(List.map Expr.col gcols)
          ~var:"h" ~outer:g ~pgq:body
      in
      let cols = Props.output_columns ga in
      (* output column [j] of the first three is [perm.(j)] of [ga] *)
      Plan.project
        (List.mapi
           (fun j name ->
             let src = if j < 3 then perm.(j) else j in
             (Expr.Col (Expr.col (List.nth cols src)), name))
           out_names)
        ga

let gen_dir = Gen.oneofl [ Plan.Asc; Plan.Desc ]

let gen_branch =
  Gen.(
    frequency
      [
        (1, return Plain);
        ( 1,
          map (fun keys -> Ordered keys)
            (list_size (int_range 1 3) (pair (int_range 0 2) gen_dir)) );
        ( 4,
          let* gcols =
            oneofl
              [ [ "a" ]; [ "b" ]; [ "a"; "b" ]; [ "b"; "a" ]; [ "a"; "b"; "c" ] ]
          in
          let* pgq =
            frequency
              [ (2, return Members);
                (1, map (fun ds -> Sorted ds) (list_repeat 2 gen_dir));
                (1, return Interleaved) ]
          in
          let+ perm =
            frequency
              [ (3, return [| 0; 1; 2 |]);
                (1, oneofl [ [| 1; 0; 2 |]; [| 2; 0; 1 |]; [| 0; 2; 1 |] ]) ]
          in
          Gapply { gcols; pgq; perm } );
      ])

(* 1-3 keys, most often led by x0 ascending (what a GApply grouped on
   its first column covers); at times an expression *)
let gen_keys =
  let coalesce =
    Expr.Case
      ( [ (Expr.Unary (Expr.Is_null, Expr.column "x0"), Expr.column "x2") ],
        Some (Expr.column "x1") )
  in
  let key =
    Gen.pair
      (Gen.frequency
         [ (4, Gen.map (fun i -> Expr.column (Printf.sprintf "x%d" i)) (Gen.int_range 0 2));
           (1, Gen.return coalesce) ])
      gen_dir
  in
  Gen.(
    let* lead = frequency [ (2, return [ (Expr.column "x0", Plan.Asc) ]); (1, return []) ] in
    let+ more = list_size (int_range (if lead = [] then 1 else 0) 2) key in
    lead @ more)

(* ---------- the property ---------- *)

type case = {
  base : Relation.t;
  branches : branch list;  (** one: the ORDER BY's input is the branch *)
  keys : (Expr.t * Plan.sort_dir) list;
  batch_size : int;
  parallelism : int;
  partition : Compile.partition_strategy;
}

let print_case c =
  Printf.sprintf
    "%d base rows; branches [%s]; ORDER BY %s; batch %d, parallelism %d, %s"
    (Relation.cardinality c.base)
    (String.concat "; " (List.map branch_to_string c.branches))
    (String.concat ", "
       (List.map
          (fun (e, d) -> Expr.to_string e ^ " " ^ dir_name d)
          c.keys))
    c.batch_size c.parallelism
    (match c.partition with
    | Compile.Hash_partition -> "hash"
    | Compile.Sort_partition -> "sort")

let gen_case =
  Gen.(
    let* base = gen_base in
    let* branches = list_size (int_range 1 4) gen_branch in
    let* keys = gen_keys in
    let* batch_size = oneofl [ 1; 7; Batch.default_size ] in
    let* parallelism = oneofl [ 1; 4 ] in
    let+ partition =
      oneofl [ Compile.Hash_partition; Compile.Sort_partition ]
    in
    { base; branches; keys; batch_size; parallelism; partition })

(* The materialized input, stably sorted by [Compile.sort_rows] on the
   keys' values. *)
let expected config env keys input =
  let c = Compile.plan ~config input in
  let rows = Batch.to_array (c.Compile.brun env) in
  let evals = List.map (fun (e, d) -> (Eval.compile c.Compile.schema e, d)) keys in
  let keyed =
    Array.map
      (fun row -> (List.map (fun (ev, d) -> (ev env.Env.frames row, d)) evals, row))
      rows
  in
  let cmp (ka, _) (kb, _) =
    List.fold_left2
      (fun c (x, d) (y, _) ->
        if c <> 0 then c
        else
          let c = Value.compare_total x y in
          if d = Plan.Desc then -c else c)
      0 ka kb
  in
  Compile.sort_rows cmp keyed;
  Array.map snd keyed

let prop_order_by_merges =
  QCheck2.Test.make ~count:120 ~long_factor:10
    ~name:"ORDER BY over branches = sort_rows of the input, row for row"
    ~print:print_case gen_case
    (fun c ->
      let env = Env.bind_group "g" c.base (Env.make (Catalog.create ())) in
      let config =
        Compile.config_with ~partition:c.partition ~batch_size:c.batch_size
          ~parallelism:c.parallelism ()
      in
      let input = Plan.union_all (List.mapi build c.branches) in
      let want = expected config env c.keys input in
      let got =
        Relation.rows_array
          (Executor.run_in ~config env (Plan.order_by c.keys input))
      in
      (* structural: [Int 1] and [Float 1.] compare equal but differ *)
      got = want
      || QCheck2.Test.fail_reportf "got %d rows, want %d; first difference at %s"
           (Array.length got) (Array.length want)
           (match
              List.find_opt
                (fun i -> got.(i) <> want.(i))
                (List.init (min (Array.length got) (Array.length want)) Fun.id)
            with
           | Some i ->
               Format.asprintf "row %d: %a, want %a" i Tuple.pp got.(i) Tuple.pp
                 want.(i)
           | None -> "the end"))

(* ---------- fixed cases ---------- *)

(* The order property of each branch shape the property draws. *)
let test_branch_orders () =
  let order p = Props.order_of p in
  let ga perm = build 0 (Gapply { gcols = [ "a"; "b" ]; pgq = Members; perm }) in
  Alcotest.(check (list int)) "clustered GApply" [ 0; 1 ] (order (ga [| 0; 1; 2 |]));
  Alcotest.(check (list int)) "moved by a projection" [ 1; 0 ]
    (order (ga [| 1; 0; 2 |]));
  Alcotest.(check (list int)) "only the leading part a projection keeps" []
    (order (Plan.project [ (Expr.column "x1", "y") ] (ga [| 0; 1; 2 |])));
  Alcotest.(check (list int)) "ORDER BY: its leading ascending keys" [ 2 ]
    (order (build 0 (Ordered [ (2, Plan.Asc); (0, Plan.Desc); (1, Plan.Asc) ])));
  Alcotest.(check (list int)) "plain scan" [] (order (build 0 Plain));
  Alcotest.(check (list int)) "unclustered GApply" []
    (order
       (Plan.g_apply ~gcols:[ Expr.col "a" ] ~var:"h" ~outer:g
          ~pgq:(Plan.group_scan ~var:"h" base_schema)))

(* The merge hands out whole slices: a presorted GApply branch beside a
   branch of one row per group leaves in about one batch per group
   switch, not one per row. *)
let test_merge_hands_out_slices () =
  let rows =
    List.init 400 (fun i -> row [ vi (i / 100); vi (i mod 7); vi 0; vi i ])
  in
  let base = Relation.make base_schema rows in
  let env = Env.bind_group "g" base (Env.make (Catalog.create ())) in
  let ga = build 1 (Gapply { gcols = [ "a" ]; pgq = Members; perm = [| 0; 1; 2 |] }) in
  (* the rows that start a group: s = 100 * x0 *)
  let heads =
    Plan.select
      (Expr.( ==^ ) (Expr.column "s")
         (Expr.Binary (Expr.Mul, Expr.column "x0", Expr.int 100)))
      (build 0 (Ordered [ (0, Plan.Asc) ]))
  in
  let plan =
    Plan.order_by
      [ (Expr.column "x0", Plan.Asc); (Expr.column "br", Plan.Asc) ]
      (Plan.union_all [ heads; ga ])
  in
  let c = Compile.plan plan in
  let batches = ref 0 and n = ref 0 in
  let pull = c.Compile.brun env in
  let rec go () =
    match pull () with
    | Some (b : Batch.t) ->
        incr batches;
        n := !n + b.len;
        go ()
    | None -> ()
  in
  go ();
  Alcotest.(check int) "rows" 404 !n;
  (* 4 heads, and the 400 GApply rows in 128-row batches cut at the 3
     group switches *)
  if !batches > 4 + 4 + 3 then
    Alcotest.failf "%d batches for 404 rows" !batches

let suite =
  [
    Alcotest.test_case "order properties of the branch shapes" `Quick
      test_branch_orders;
    Alcotest.test_case "the merge hands out whole slices" `Quick
      test_merge_hands_out_slices;
    QCheck_alcotest.to_alcotest prop_order_by_merges;
  ]
