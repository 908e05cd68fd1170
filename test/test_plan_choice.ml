(* Plan-choice matrix: for each cost-based decision the engine makes
   (partition strategy, GApply-to-group-by, invariant grouping, join
   order), construct table pairs whose statistics flip the costed
   choice, assert the chosen plan through EXPLAIN text, and check
   result-digest equality across both alternatives so the flip is a
   pure plan change. *)

open Support

(* ---------- small helpers ---------- *)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh
    && (String.equal (String.sub hay i nn) needle || go (i + 1))
  in
  go 0

let find_sub ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.equal (String.sub hay i nn) needle then Some i
    else go (i + 1)
  in
  go 0

(* The "== optimized ==" section of an EXPLAIN, stopping at the next
   "== ..." banner. *)
let optimized_section text =
  match find_sub ~needle:"== optimized ==" text with
  | None -> Alcotest.fail "EXPLAIN lacks an optimized section"
  | Some i -> (
      let body_start = i + String.length "== optimized ==" in
      let rest = String.sub text body_start (String.length text - body_start) in
      match find_sub ~needle:"== " rest with
      | None -> rest
      | Some j -> String.sub rest 0 j)

(* Order-insensitive result digest: render each row, sort, hash. *)
let digest rel =
  let rows = ref [] in
  Relation.iter
    (fun t -> rows := Format.asprintf "%a" Tuple.pp t :: !rows)
    rel;
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.sort String.compare !rows)))

let check_digest msg a b = Alcotest.(check string) msg (digest a) (digest b)

let explain db sql =
  match Engine.exec db ("explain " ^ sql) with
  | Engine.Explanation text -> text
  | Engine.Failed e ->
      Alcotest.failf "explain failed: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected an explanation"

let mk_table cat name ?primary_key ?foreign_keys cols mk n =
  let t = Table.create name ?primary_key ?foreign_keys cols in
  for i = 0 to n - 1 do
    Table.insert t (row (mk i))
  done;
  Catalog.add_table cat t

(* ---------- flip 1: sort vs hash partitioning ---------- *)

(* Near-unique group keys make the hash partition pay one table entry
   per row plus a sort of the whole group list, while the sort
   partition pays one comparison sort — sort wins.  A handful of groups
   makes the hash side a single cheap pass — hash wins. *)
let test_partition_flip () =
  let db = Engine.create () in
  let cat = Engine.catalog db in
  mk_table cat "uniq"
    [ ("uk", Datatype.Int); ("uv", Datatype.Int) ]
    (fun i -> [ vi i; vi (i mod 7) ])
    600;
  mk_table cat "skew"
    [ ("sk", Datatype.Int); ("sv", Datatype.Int) ]
    (fun i -> [ vi (i mod 4); vi (i mod 7) ])
    600;
  let q_uniq =
    "select gapply(select uv from g where uv > (select avg(uv) from g)) \
     from uniq group by uk : g"
  and q_skew =
    "select gapply(select sv from g where sv > (select avg(sv) from g)) \
     from skew group by sk : g"
  in
  Alcotest.(check bool) "near-unique keys choose sort" true
    (contains ~needle:"== partition: sort" (explain db q_uniq));
  Alcotest.(check bool) "few groups choose hash" true
    (contains ~needle:"== partition: hash" (explain db q_skew));
  List.iter
    (fun sql ->
      Engine.set_partition_strategy db Compile.Sort_partition;
      let sorted = Engine.query db sql in
      Engine.set_partition_strategy db Compile.Hash_partition;
      let hashed = Engine.query db sql in
      check_digest "forced sort/hash digests agree" sorted hashed)
    [ q_uniq; q_skew ]

(* ---------- flip 2: GApply to group-by ---------- *)

(* Composite grouping keys under the independence assumption: when the
   inner and outer key are correlated (equal NDV, same values), the
   flat group-by's estimated hash table (NDV product) explodes and
   GApply stays; when the inner key is genuinely low-NDV the flat
   group-by is cheaper and the rewrite fires. *)
let test_gapply_to_groupby_flip () =
  let db = Engine.create () in
  let cat = Engine.catalog db in
  mk_table cat "corr"
    [ ("ck1", Datatype.Int); ("ck2", Datatype.Int); ("cv", Datatype.Int) ]
    (fun i -> [ vi (i mod 100); vi (i mod 100); vi i ])
    5000;
  mk_table cat "indep"
    [ ("ik1", Datatype.Int); ("ik2", Datatype.Int); ("iv", Datatype.Int) ]
    (fun i -> [ vi (i mod 100); vi (i mod 5); vi i ])
    5000;
  let q_corr =
    "select gapply(select ck2, count(*) as n from g group by ck2) from \
     corr group by ck1 : g"
  and q_indep =
    "select gapply(select ik2, count(*) as n from g group by ik2) from \
     indep group by ik1 : g"
  in
  let e_corr = explain db q_corr and e_indep = explain db q_indep in
  Alcotest.(check bool) "correlated keys keep gapply" false
    (contains ~needle:"gapply-to-groupby" e_corr);
  Alcotest.(check bool) "correlated keys: gapply in optimized plan" true
    (contains ~needle:"gapply[" (optimized_section e_corr));
  Alcotest.(check bool) "independent keys convert" true
    (contains ~needle:"gapply-to-groupby" e_indep);
  let opt_indep = optimized_section e_indep in
  Alcotest.(check bool) "converted plan is a flat groupby" true
    (contains ~needle:"groupby[" opt_indep);
  Alcotest.(check bool) "converted plan has no gapply" false
    (contains ~needle:"gapply[" opt_indep);
  (* digest equality across both alternatives: cbo off fires the
     rewrite unconditionally, so corr runs the flat group-by there and
     the GApply under cbo — both must agree (and symmetrically for
     indep, where cbo converts and the unoptimized plan keeps GApply) *)
  List.iter
    (fun sql ->
      Engine.set_cbo db true;
      let costed = Engine.query db sql in
      Engine.set_cbo db false;
      let heuristic = Engine.query db sql in
      Engine.set_cbo db true;
      check_digest "cbo/heuristic digests agree" costed heuristic)
    [ q_corr; q_indep ]

(* ---------- flip 3: invariant grouping ---------- *)

(* Pushing the GApply below the FK join pays the join once over the
   per-group query's *output*: cheap when the group predicate is
   selective, a pure loss (one extra projection pass) when it keeps
   every row. *)
let invariant_db () =
  let db = Engine.create () in
  let cat = Engine.catalog db in
  mk_table cat "s" ~primary_key:[ "sk" ]
    [ ("sk", Datatype.Int); ("sname", Datatype.Str) ]
    (fun i -> [ vi i; vs (Printf.sprintf "s%d" i) ])
    100;
  mk_table cat "ps"
    ~foreign_keys:
      [
        {
          Table.fk_columns = [ "psk" ];
          fk_table = "s";
          fk_ref_columns = [ "sk" ];
        };
      ]
    [ ("psk", Datatype.Int); ("pv", Datatype.Int) ]
    (fun i -> [ vi (i mod 100); vi (i mod 1000) ])
    3000;
  db

let invariant_query bound =
  Printf.sprintf
    "select gapply(select pv, sk, sname from g where pv < %d) from ps, s \
     where psk = sk group by psk : g"
    bound

let test_invariant_grouping_flip () =
  let db = invariant_db () in
  let selective = invariant_query 50 and broad = invariant_query 5000 in
  Alcotest.(check bool) "selective predicate pushes gapply below join"
    true
    (contains ~needle:"invariant-grouping" (explain db selective));
  Alcotest.(check bool) "keep-everything predicate leaves gapply on top"
    false
    (contains ~needle:"invariant-grouping" (explain db broad));
  (* both alternatives: the bound (pre-rewrite) plan vs the optimized
     plan the engine actually picked *)
  List.iter
    (fun sql ->
      let bound_plan = Engine.plan_of_sql db sql in
      let chosen = Engine.effective_plan db sql in
      check_digest "rewritten plan digests agree"
        (Engine.run_plan db bound_plan)
        (Engine.run_plan db chosen))
    [ selective; broad ]

(* ---------- flip 4: join order ---------- *)

(* The hash join builds on its right input: writing the small table
   first builds on the big one, and the costed commute swaps the sides;
   writing it big-first is already optimal and must be left alone. *)
let test_join_order_flip () =
  let db = Engine.create () in
  let cat = Engine.catalog db in
  mk_table cat "big"
    [ ("bk", Datatype.Int); ("bv", Datatype.Str) ]
    (fun i -> [ vi (i mod 50); vs "b" ])
    2000;
  mk_table cat "small"
    [ ("mk", Datatype.Int); ("mv", Datatype.Str) ]
    (fun i -> [ vi i; vs "m" ])
    20;
  let q_bad = "select bv, mv from small, big where mk = bk"
  and q_good = "select bv, mv from big, small where bk = mk" in
  let e_bad = explain db q_bad in
  Alcotest.(check bool) "build-on-big plan gets commuted" true
    (contains ~needle:"join-commute" e_bad);
  (let opt = optimized_section e_bad in
   match (find_sub ~needle:"scan(big)" opt, find_sub ~needle:"scan(small)" opt)
   with
   | Some i_big, Some i_small ->
       Alcotest.(check bool) "big probes, small builds" true (i_big < i_small)
   | _ -> Alcotest.fail "expected both scans in the optimized plan");
  Alcotest.(check bool) "already-optimal order left alone" false
    (contains ~needle:"join-commute" (explain db q_good));
  Engine.set_cbo db true;
  let costed = Engine.query db q_bad in
  Engine.set_cbo db false;
  let heuristic = Engine.query db q_bad in
  Engine.set_cbo db true;
  check_digest "commuted join digests agree" costed heuristic

let suite =
  [
    Alcotest.test_case "partition: sort vs hash flips on group count"
      `Quick test_partition_flip;
    Alcotest.test_case "gapply-to-groupby flips on key correlation"
      `Quick test_gapply_to_groupby_flip;
    Alcotest.test_case "invariant grouping flips on predicate selectivity"
      `Quick test_invariant_grouping_flip;
    Alcotest.test_case "join order flips on build-side size" `Quick
      test_join_order_flip;
  ]
