(* Plans and tagging for arbitrary-depth views (Deep_view).

   Row encoding (generalised sorted outer union): every node gets slots
   for its *own* key columns (assigned in preorder), one node-id column,
   and payload slots for its fields and derived aggregates.  A row fills
   the own-key slots of its whole ancestor chain and NULL-pads the rest;
   sorting by all key slots (NULLs first) then node id clusters every
   element immediately after its parent, which is what the hierarchical
   tagger needs.

   Strategies:
   - [outer_union_plan]: one UNION ALL branch per element type and per
     derived aggregate (each aggregate re-evaluates and re-groups its
     node's query — the Section 2 redundancy);
   - [gapply_plan]: nodes with derived aggregates produce their element
     rows and all their aggregates from a single GApply pass grouped on
     the parent path. *)

type branch = {
  b_id : int;
  b_tag : string option;          (* None = derived values *)
  b_chain_tags : string list;     (* element tags, root level first *)
  b_chain_slots : int list list;  (* own-key slots per chain level *)
  b_fields : (string * int) list; (* (element tag, output column) *)
}

type encoding = {
  e_root_tag : string;
  e_node_col : int;
  e_arity : int;
  e_branches : branch list;       (* indexed by b_id *)
  e_key_slots : int list;         (* all key slots, preorder *)
}

(* ---------- encoding construction ---------- *)

let build_encoding (v : Deep_view.t) : encoding =
  (* first pass: assign own-key slots in preorder *)
  let next = ref 0 in
  let slot_table : (string, int list) Hashtbl.t = Hashtbl.create 16 in
  let rec assign_keys path_id (n : Deep_view.node) =
    let own = List.init n.Deep_view.n_own_keys (fun i -> !next + i) in
    next := !next + n.Deep_view.n_own_keys;
    Hashtbl.replace slot_table (path_id ^ "/" ^ n.Deep_view.n_tag) own;
    List.iter (assign_keys (path_id ^ "/" ^ n.Deep_view.n_tag)) n.Deep_view.n_children
  in
  assign_keys "" v.Deep_view.top;
  let key_count = !next in
  let node_col = key_count in
  let payload = ref (key_count + 1) in
  let alloc fields =
    List.map
      (fun (_, tag) ->
        let i = !payload in
        incr payload;
        (tag, i))
      fields
  in
  let branches = ref [] in
  let id = ref 0 in
  let rec build path_id chain_tags chain_slots (n : Deep_view.node) =
    let own =
      Hashtbl.find slot_table (path_id ^ "/" ^ n.Deep_view.n_tag)
    in
    let chain_tags = chain_tags @ [ n.Deep_view.n_tag ] in
    let chain_slots = chain_slots @ [ own ] in
    branches :=
      {
        b_id = !id;
        b_tag = Some n.Deep_view.n_tag;
        b_chain_tags = chain_tags;
        b_chain_slots = chain_slots;
        b_fields = alloc n.Deep_view.n_fields;
      }
      :: !branches;
    incr id;
    List.iter
      (fun (a : Deep_view.aggregate_spec) ->
        branches :=
          {
            b_id = !id;
            b_tag = None;
            (* derived values attach to the parent element *)
            b_chain_tags = List.filteri (fun i _ -> i < List.length chain_tags - 1) chain_tags;
            b_chain_slots =
              List.filteri (fun i _ -> i < List.length chain_slots - 1) chain_slots;
            b_fields = alloc [ (a.Deep_view.a_col, a.Deep_view.a_tag) ];
          }
          :: !branches;
        incr id)
      n.Deep_view.n_aggregates;
    List.iter
      (build (path_id ^ "/" ^ n.Deep_view.n_tag) chain_tags chain_slots)
      n.Deep_view.n_children
  in
  build "" [] [] v.Deep_view.top;
  let branches = List.rev !branches in
  let key_slots = List.init key_count (fun i -> i) in
  {
    e_root_tag = v.Deep_view.root_tag;
    e_node_col = node_col;
    e_arity = !payload;
    e_branches = branches;
    e_key_slots = key_slots;
  }

let branch_by_id enc id =
  match List.find_opt (fun b -> b.b_id = id) enc.e_branches with
  | Some b -> b
  | None -> Errors.exec_errorf "deep tagger: unknown node id %d" id

(* ---------- plan construction ---------- *)

let bind catalog src =
  Sql_binder.bind_query catalog (Sql_parser.parse_query_string src)

let slot_name i = Printf.sprintf "dp%d" i

(* A null-padded projection to the global layout. *)
let global_projection ~(enc : encoding) ~node_id
    ~(slot_values : (int * Expr.t) list) plan =
  let items =
    Array.init enc.e_arity (fun i ->
        if i = enc.e_node_col then (Expr.int node_id, "dnode")
        else
          match List.assoc_opt i slot_values with
          | Some e -> (e, slot_name i)
          | None -> (Expr.null, slot_name i))
  in
  Plan.project (Array.to_list items) plan

(* slot/value pairs for a node's full key path *)
let path_slot_values (b : branch) (path_cols : string list) =
  let slots = List.concat b.b_chain_slots in
  List.map2 (fun slot col -> (slot, Expr.column col)) slots path_cols

let order_plan ~(enc : encoding) branches =
  Plan.order_by
    (List.map
       (fun i -> (Expr.column (slot_name i), Plan.Asc))
       enc.e_key_slots
     @ [ (Expr.column "dnode", Plan.Asc) ])
    (Plan.union_all branches)

let parent_path_cols (n : Deep_view.node) =
  List.filteri
    (fun i _ -> i < List.length n.Deep_view.n_path - n.Deep_view.n_own_keys)
    n.Deep_view.n_path

(* ---------- strategy 1: sorted outer union ---------- *)

let outer_union_plan (catalog : Catalog.t) (v : Deep_view.t) :
    Plan.t * encoding =
  let enc = build_encoding v in
  let branches = ref [] in
  let id = ref 0 in
  let rec walk (n : Deep_view.node) =
    let b = branch_by_id enc !id in
    let row_branch =
      global_projection ~enc ~node_id:b.b_id
        ~slot_values:
          (path_slot_values b n.Deep_view.n_path
          @ List.map2
              (fun (col, _) (_, slot) -> (slot, Expr.column col))
              n.Deep_view.n_fields b.b_fields)
        (bind catalog n.Deep_view.n_query)
    in
    branches := row_branch :: !branches;
    incr id;
    List.iter
      (fun (a : Deep_view.aggregate_spec) ->
        let db = branch_by_id enc !id in
        let parent_cols = parent_path_cols n in
        (* the redundancy: re-bind and re-group the node query *)
        let grouped =
          Plan.group_by
            (List.map (fun c -> Expr.col c) parent_cols)
            [ (Expr.agg a.Deep_view.a_fn (Some (Expr.column a.Deep_view.a_col)),
               "dagg") ]
            (bind catalog n.Deep_view.n_query)
        in
        let slot_values =
          List.map2
            (fun slot col -> (slot, Expr.column col))
            (List.concat db.b_chain_slots)
            parent_cols
          @ [ (snd (List.hd db.b_fields), Expr.column "dagg") ]
        in
        branches :=
          global_projection ~enc ~node_id:db.b_id ~slot_values grouped
          :: !branches;
        incr id)
      n.Deep_view.n_aggregates;
    List.iter walk n.Deep_view.n_children
  in
  walk v.Deep_view.top;
  (order_plan ~enc (List.rev !branches), enc)

(* ---------- strategy 2: GApply per aggregate-bearing node ---------- *)

let gapply_plan (catalog : Catalog.t) (v : Deep_view.t) : Plan.t * encoding
    =
  let enc = build_encoding v in
  let branches = ref [] in
  let id = ref 0 in
  let rec walk (n : Deep_view.node) =
    let b = branch_by_id enc !id in
    let row_id = !id in
    incr id;
    let agg_branches =
      List.map
        (fun (a : Deep_view.aggregate_spec) ->
          let db = branch_by_id enc !id in
          incr id;
          (a, db))
        n.Deep_view.n_aggregates
    in
    (if agg_branches = [] then
       (* no per-group computation: a plain branch *)
       branches :=
         global_projection ~enc ~node_id:b.b_id
           ~slot_values:
             (path_slot_values b n.Deep_view.n_path
             @ List.map2
                 (fun (col, _) (_, slot) -> (slot, Expr.column col))
                 n.Deep_view.n_fields b.b_fields)
           (bind catalog n.Deep_view.n_query)
         :: !branches
     else begin
       (* one GApply pass: element rows + all aggregates per group *)
       let outer = bind catalog n.Deep_view.n_query in
       let oschema = Props.schema_of outer in
       let parent_cols = parent_path_cols n in
       let own_cols =
         List.filteri
           (fun i _ ->
             i >= List.length n.Deep_view.n_path - n.Deep_view.n_own_keys)
           n.Deep_view.n_path
       in
       let parent_slots = List.concat b.b_chain_slots in
       let parent_slots =
         List.filteri
           (fun i _ -> i < List.length parent_cols)
           parent_slots
       in
       let own_slots =
         List.filteri
           (fun i _ -> i >= List.length parent_cols)
           (List.concat b.b_chain_slots)
       in
       let var = Printf.sprintf "dg%d" row_id in
       let g () = Plan.group_scan ~var oschema in
       (* the PGQ produces every global column except the parent-path
          slots, which GApply prepends as the group key *)
       let non_key_slots =
         List.filter
           (fun i -> not (List.mem i parent_slots))
           (List.init enc.e_arity (fun i -> i))
       in
       let pgq_items ~node_id ~slot_values =
         List.map
           (fun i ->
             if i = enc.e_node_col then (Expr.int node_id, "dnode")
             else
               match List.assoc_opt i slot_values with
               | Some e -> (e, slot_name i)
               | None -> (Expr.null, slot_name i))
           non_key_slots
       in
       let rows_branch =
         Plan.project
           (pgq_items ~node_id:b.b_id
              ~slot_values:
                (List.map2
                   (fun slot col -> (slot, Expr.column col))
                   own_slots own_cols
                @ List.map2
                    (fun (col, _) (_, slot) -> (slot, Expr.column col))
                    n.Deep_view.n_fields b.b_fields))
           (g ())
       in
       let agg_pgq_branches =
         List.map
           (fun ((a : Deep_view.aggregate_spec), db) ->
             Plan.project
               (pgq_items ~node_id:db.b_id
                  ~slot_values:
                    [ (snd (List.hd db.b_fields), Expr.column "dagg") ])
               (Plan.aggregate
                  [ (Expr.agg a.Deep_view.a_fn
                       (Some (Expr.column a.Deep_view.a_col)), "dagg") ]
                  (g ())))
           agg_branches
       in
       (* groups in key order, and the aggregate rows (own-key slots
          NULL, which sorts first) ahead of the element rows: each group
          then comes out in the final ORDER BY's order, and the branch
          reaches it as one presorted run *)
       let ga =
         Plan.g_apply_clustered
           ~gcols:(List.map (fun c -> Expr.col c) parent_cols)
           ~var ~outer
           ~pgq:(Plan.union_all (agg_pgq_branches @ [ rows_branch ]))
       in
       (* re-shuffle the GApply output (parent keys first, then the PGQ
          columns) into the global slot order *)
       let ga_schema = Props.schema_of ga in
       let key_names =
         List.mapi
           (fun i _ ->
             let c = Schema.get ga_schema i in
             (List.nth parent_slots i,
              Expr.Col (Expr.col ?qual:c.Schema.source c.Schema.cname)))
           parent_cols
       in
       let items =
         List.init enc.e_arity (fun i ->
             if i = enc.e_node_col then (Expr.column "dnode", "dnode")
             else
               match List.assoc_opt i key_names with
               | Some e -> (e, slot_name i)
               | None -> (Expr.column (slot_name i), slot_name i))
       in
       branches := Plan.project items ga :: !branches
     end);
    List.iter walk n.Deep_view.n_children
  in
  walk v.Deep_view.top;
  (order_plan ~enc (List.rev !branches), enc)

(* ---------- the hierarchical constant-space tagger ---------- *)

(* A branch's chain as arrays, indexed by level (root level first). *)
type chain = {
  c_branch : branch;
  c_tags : string array;
  c_slots : int array array;
}

(* Chains indexed by node id, so the per-row dispatch is an array load. *)
let chain_table (enc : encoding) : chain option array =
  let max_id = List.fold_left (fun m b -> max m b.b_id) 0 enc.e_branches in
  let table = Array.make (max_id + 1) None in
  List.iter
    (fun b ->
      table.(b.b_id) <-
        Some
          {
            c_branch = b;
            c_tags = Array.of_list b.b_chain_tags;
            c_slots = Array.of_list (List.map Array.of_list b.b_chain_slots);
          })
    enc.e_branches;
  table

let field_elements (b : branch) (row : Tuple.t) =
  List.filter_map
    (fun (tag, idx) ->
      match Tuple.get row idx with
      | Value.Null -> None
      | v -> Some (Xml.element tag [ Xml.text (Value.to_string v) ]))
    b.b_fields

(** Build the document tree from a clustered stream.  The open chain is
    kept per level in arrays with a depth counter: each open element's
    tag, the row that opened it with that level's key slots, and its
    children so far (reversed).  A row's keys are compared against the
    open rows in place. *)
let tag (enc : encoding) (cursor : Cursor.t) : Xml.t =
  let table = chain_table enc in
  let max_depth =
    Array.fold_left
      (fun m c ->
        match c with Some c -> max m (Array.length c.c_tags) | None -> m)
      0 table
  in
  let open_tag = Array.make max_depth "" in
  let open_row = Array.make max_depth Tuple.empty in
  let open_slots = Array.make max_depth [||] in
  let open_children = Array.make max_depth [] in
  let depth = ref 0 in
  let root_children = ref [] in
  let pop () =
    let d = !depth - 1 in
    let element = Xml.element open_tag.(d) (List.rev open_children.(d)) in
    open_children.(d) <- [];
    if d = 0 then root_children := element :: !root_children
    else open_children.(d - 1) <- element :: open_children.(d - 1);
    depth := d
  in
  (* whether [row]'s keys at [slots] equal those the open element at
     [level] was opened on *)
  let same_key row slots level =
    let fslots = open_slots.(level) and frow = open_row.(level) in
    let n = Array.length slots in
    let rec go j =
      j = n
      || Value.equal_total frow.(fslots.(j)) row.(slots.(j))
         && go (j + 1)
    in
    Array.length fslots = n && go 0
  in
  (* length of the longest prefix of the open chain matching the row's *)
  let common_prefix c row =
    let n = min !depth (Array.length c.c_tags) in
    let rec go level =
      if
        level < n
        && String.equal open_tag.(level) c.c_tags.(level)
        && same_key row c.c_slots.(level) level
      then go (level + 1)
      else level
    in
    go 0
  in
  Cursor.iter
    (fun row ->
      match Tuple.get row enc.e_node_col with
      | Value.Int id ->
          let c =
            match
              if id >= 0 && id < Array.length table then table.(id) else None
            with
            | Some c -> c
            | None -> Errors.exec_errorf "deep tagger: unknown node id %d" id
          in
          let b = c.c_branch in
          let levels = Array.length c.c_tags in
          let cp = common_prefix c row in
          while !depth > cp do
            pop ()
          done;
          (match b.b_tag with
          | Some tag ->
              if cp <> levels - 1 then
                Errors.exec_errorf
                  "deep tagger: <%s> row arrived without its parent \
                   (stream not clustered?)"
                  tag;
              open_tag.(cp) <- tag;
              open_row.(cp) <- row;
              open_slots.(cp) <- c.c_slots.(cp);
              open_children.(cp) <- List.rev (field_elements b row);
              depth := cp + 1
          | None ->
              if cp <> levels then
                Errors.exec_errorf
                  "deep tagger: derived values arrived without their \
                   parent element";
              if cp = 0 then
                Errors.exec_errorf "deep tagger: derived values at the root";
              open_children.(cp - 1) <-
                List.rev_append (field_elements b row) open_children.(cp - 1))
      | v ->
          Errors.exec_errorf "deep tagger: non-integer node id %s"
            (Value.to_string v))
    cursor;
  while !depth > 0 do
    pop ()
  done;
  Xml.element enc.e_root_tag (List.rev !root_children)

type strategy = Sorted_outer_union | Gapply_pass

let publish ?(strategy = Gapply_pass) (catalog : Catalog.t)
    (v : Deep_view.t) : Xml.t =
  let plan, enc =
    match strategy with
    | Sorted_outer_union -> outer_union_plan catalog v
    | Gapply_pass -> gapply_plan catalog v
  in
  let compiled = Compile.plan plan in
  tag enc (compiled.Compile.run (Env.make catalog))
