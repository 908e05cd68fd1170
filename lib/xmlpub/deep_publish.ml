(* Plans and tagging for XML views of any depth (Deep_view).  The
   two-level Figure-1 views reach here through Publish's lowering, so
   this is the only row encoding, plan generator and tagger.

   Row encoding (generalised sorted outer union): every node gets slots
   for its *own* key columns, one node-id column, and payload slots for
   its fields and derived aggregates.  Key slots and node ids are
   assigned in one preorder walk: a node, then its aggregates, then its
   children.  A row fills the key slots of its whole ancestor chain and
   NULL-pads the rest; sorting by all key slots (NULLs first) then node
   id clusters every element immediately after its parent, which is
   what the hierarchical tagger needs.  The aggregate rows of a keyed
   node (own-key slots NULL) sort ahead of its element rows; those of a
   node without keys sort after them (higher ids), and that node's rows
   tie, so they keep the order of its query.

   Strategies:
   - [outer_union_plan]: one UNION ALL branch per element type and per
     derived aggregate (each aggregate re-evaluates and re-groups its
     node's query — the Section 2 redundancy);
   - [gapply_plan]: the top node's rows are one plain branch; every
     other node produces its element rows and all its aggregates from
     one clustered GApply pass grouped on its parent path.

   A selection on the top node (Section 4.2's object selection) runs
   inside a GApply over the selecting query joined to the top query;
   every other node keeps only the qualifying top elements' rows. *)

type level = {
  l_node : int;         (* node id of the element at this level *)
  l_slots : int array;  (* its own-key slots *)
}

type branch = {
  b_id : int;
  b_tag : string option;           (* None = derived values *)
  b_chain : level array;
      (* root level first; derived values carry their parent's chain *)
  b_fields : (string * int) list;  (* (element tag, output column) *)
}

type encoding = {
  e_root_tag : string;
  e_node_col : int;
  e_arity : int;
  e_branches : branch list;       (* in id order, ids 0.. *)
  e_key_slots : int list;
}

(* ---------- encoding construction ---------- *)

(* A view node with its place in the encoding. *)
type placed = {
  p_node : Deep_view.node;
  p_row : branch;  (* its element rows *)
  p_aggs : (Deep_view.aggregate_spec * branch) list;
  p_children : placed list;
}

let rec count_keys (n : Deep_view.node) =
  List.fold_left
    (fun k c -> k + count_keys c)
    n.Deep_view.n_own_keys n.Deep_view.n_children

(* One preorder walk assigns key slots, node ids and payload slots: a
   node, then its aggregates, then its children.  Nodes are told apart
   by their place in the tree, never by their tags. *)
let place (v : Deep_view.t) : encoding * placed =
  let key_count = count_keys v.Deep_view.top in
  let next_key = ref 0 and next_id = ref 0 in
  let next_payload = ref (key_count + 1) in
  let take r =
    let i = !r in
    incr r;
    i
  in
  let branches = ref [] in
  let add b_tag b_chain fields =
    let b_id = take next_id in
    let b_fields = List.map (fun (_, tag) -> (tag, take next_payload)) fields in
    let b = { b_id; b_tag; b_chain; b_fields } in
    branches := b :: !branches;
    b
  in
  let rec walk parent_chain (n : Deep_view.node) =
    let own = Array.init n.Deep_view.n_own_keys (fun _ -> take next_key) in
    (* the element rows take the next id *)
    let chain =
      Array.append parent_chain [| { l_node = !next_id; l_slots = own } |]
    in
    let p_row = add (Some n.Deep_view.n_tag) chain n.Deep_view.n_fields in
    let p_aggs =
      List.map
        (fun (a : Deep_view.aggregate_spec) ->
          (a, add None parent_chain [ (a.Deep_view.a_col, a.Deep_view.a_tag) ]))
        n.Deep_view.n_aggregates
    in
    let p_children = List.map (walk chain) n.Deep_view.n_children in
    { p_node = n; p_row; p_aggs; p_children }
  in
  let top = walk [||] v.Deep_view.top in
  ( {
      e_root_tag = v.Deep_view.root_tag;
      e_node_col = key_count;
      e_arity = !next_payload;
      e_branches = List.rev !branches;
      e_key_slots = List.init key_count Fun.id;
    },
    top )

let build_encoding v = fst (place v)

(* ---------- plan construction ---------- *)

let bind catalog src =
  Sql_binder.bind_query catalog (Sql_parser.parse_query_string src)

let slot_name i = Printf.sprintf "dp%d" i

(* the first [n] elements of [l], and the rest *)
let split n l =
  (List.filteri (fun i _ -> i < n) l, List.filteri (fun i _ -> i >= n) l)

let parent_path (n : Deep_view.node) =
  fst (split (List.length n.Deep_view.n_path - n.Deep_view.n_own_keys)
         n.Deep_view.n_path)

(* the key slots of a branch's whole chain, root level first *)
let path_slots (b : branch) =
  List.concat_map (fun l -> Array.to_list l.l_slots) (Array.to_list b.b_chain)

let column_values slots cols =
  List.map2 (fun slot col -> (slot, Expr.column col)) slots cols

let field_values (b : branch) fields =
  List.map2
    (fun (col, _) (_, slot) -> (slot, Expr.column col))
    fields b.b_fields

let agg_item (a : Deep_view.aggregate_spec) =
  (Expr.agg a.Deep_view.a_fn (Some (Expr.column a.Deep_view.a_col)), "dagg")

let agg_value (b : branch) = (snd (List.hd b.b_fields), Expr.column "dagg")

(* Projection items putting a row of [node_id] into the global layout:
   [slot_values] in their slots, NULL elsewhere, leaving out the slots in
   [skip] (those a GApply prepends as its group key). *)
let layout ~(enc : encoding) ?(skip = []) ~node_id slot_values =
  List.filter_map
    (fun i ->
      if List.mem i skip then None
      else if i = enc.e_node_col then Some (Expr.int node_id, "dnode")
      else
        Some
          ( Option.value (List.assoc_opt i slot_values) ~default:Expr.null,
            slot_name i ))
    (List.init enc.e_arity Fun.id)

(* A node's element rows from [plan], its query. *)
let row_branch ~enc (p : placed) plan =
  let n = p.p_node in
  Plan.project
    (layout ~enc ~node_id:p.p_row.b_id
       (column_values (path_slots p.p_row) n.Deep_view.n_path
       @ field_values p.p_row n.Deep_view.n_fields))
    plan

let order_plan ~(enc : encoding) branches =
  Plan.order_by
    (List.map
       (fun i -> (Expr.column (slot_name i), Plan.Asc))
       enc.e_key_slots
     @ [ (Expr.column "dnode", Plan.Asc) ])
    (Plan.union_all branches)

(* every node below [p], in preorder *)
let rec descendants (p : placed) =
  List.concat_map (fun c -> c :: descendants c) p.p_children

(* ---------- top-node selection ---------- *)

let cmp_expr col op v = Expr.Binary (op, Expr.column col, Expr.float v)

(* Qualifying-key plan of a selection, producing columns named
   qk0..qk{k-1}. *)
let qualifying_keys catalog (s : Deep_view.selection) : Plan.t =
  let keys =
    List.mapi
      (fun j link -> (Expr.column link, Printf.sprintf "qk%d" j))
      s.Deep_view.s_link
  in
  let rows = bind catalog s.Deep_view.s_query in
  match s.Deep_view.s_guard with
  | Deep_view.Some_row (col, op, value) ->
      Plan.distinct
        (Plan.project keys (Plan.select (cmp_expr col op value) rows))
  | Deep_view.Agg_holds (fn, col, op, value) ->
      let grouped =
        Plan.group_by
          (List.map (fun link -> Expr.col link) s.Deep_view.s_link)
          [ (Expr.agg fn (Some (Expr.column col)), "qagg") ]
          rows
      in
      Plan.project keys (Plan.select (cmp_expr "qagg" op value) grouped)

(* Semi-join [plan] (whose key columns are [on_cols]) with the
   qualifying keys. *)
let semijoin ~keys_plan ~on_cols plan =
  let pred =
    Expr.conjoin
      (List.mapi
         (fun j col ->
           Expr.( ==^ )
             (Expr.column (Printf.sprintf "qk%d" j))
             (Expr.column col))
         on_cols)
  in
  let joined = Plan.join pred keys_plan plan in
  (* drop the qk columns again *)
  let schema = Props.schema_of plan in
  Plan.project
    (List.map
       (fun (c : Schema.column) ->
         (Expr.Col (Expr.col ?qual:c.Schema.source c.Schema.cname),
          c.Schema.cname))
       (Schema.to_list schema))
    joined

(* A node's query, restricted to the qualifying top elements when the
   view has a selection; every restricted node shares one keys plan. *)
let node_source catalog (v : Deep_view.t) =
  let k = List.length v.Deep_view.top.Deep_view.n_path in
  let keys_plan =
    lazy (qualifying_keys catalog (Option.get v.Deep_view.select))
  in
  fun (n : Deep_view.node) ->
    let plan = bind catalog n.Deep_view.n_query in
    match v.Deep_view.select with
    | None -> plan
    | Some _ ->
        semijoin ~keys_plan:(Lazy.force keys_plan)
          ~on_cols:(fst (split k n.Deep_view.n_path)) plan

(* ---------- strategy 1: sorted outer union ---------- *)

let outer_union_plan (catalog : Catalog.t) (v : Deep_view.t) :
    Plan.t * encoding =
  let enc, top = place v in
  let source = node_source catalog v in
  let branches (p : placed) =
    let n = p.p_node in
    let parent_cols = parent_path n in
    row_branch ~enc p (source n)
    :: List.map
         (fun (a, (b : branch)) ->
           (* the redundancy: re-bind and re-group the node query *)
           Plan.project
             (layout ~enc ~node_id:b.b_id
                (column_values (path_slots b) parent_cols @ [ agg_value b ]))
             (Plan.group_by
                (List.map (fun c -> Expr.col c) parent_cols)
                [ agg_item a ] (source n)))
         p.p_aggs
  in
  (order_plan ~enc (List.concat_map branches (top :: descendants top)), enc)

(* ---------- strategy 2: one GApply pass per non-root node ---------- *)

let gapply_plan (catalog : Catalog.t) (v : Deep_view.t) : Plan.t * encoding
    =
  let enc, top = place v in
  (* [p]'s element rows and aggregates over the group [g ()], in the
     final ORDER BY's order: a keyed node's aggregate rows have NULL
     own keys and come first, those of a node without keys have higher
     ids and come last *)
  let node_pgq ~prefix (p : placed) g =
    let n = p.p_node in
    let own_slots =
      Array.to_list p.p_row.b_chain.(Array.length p.p_row.b_chain - 1).l_slots
    in
    let own_cols =
      snd (split (List.length (parent_path n)) n.Deep_view.n_path)
    in
    let rows =
      Plan.project
        (layout ~enc ~skip:prefix ~node_id:p.p_row.b_id
           (column_values own_slots own_cols
           @ field_values p.p_row n.Deep_view.n_fields))
        (g ())
    in
    let aggs =
      List.map
        (fun (a, (b : branch)) ->
          Plan.project
            (layout ~enc ~skip:prefix ~node_id:b.b_id [ agg_value b ])
            (Plan.aggregate [ agg_item a ] (g ())))
        p.p_aggs
    in
    if n.Deep_view.n_own_keys = 0 then rows :: aggs else aggs @ [ rows ]
  in
  (* A clustered GApply, its output re-shuffled into the global slot
     order: the group key fills [prefix].  The GApply emits its groups in
     key order and each group in the ORDER BY's order, so the branch
     reaches the final sort as one presorted run; when [prefix] is the
     leading slots the projection only renames, and passes rows
     through. *)
  let clustered ~prefix ~gcols ~var ~outer pgq =
    let ga = Plan.g_apply_clustered ~gcols ~var ~outer ~pgq in
    let schema = Props.schema_of ga in
    Plan.project
      (List.init enc.e_arity (fun i ->
           if i = enc.e_node_col then (Expr.column "dnode", "dnode")
           else
             match List.find_index (( = ) i) prefix with
             | Some j ->
                 let c = Schema.get schema j in
                 ( Expr.Col (Expr.col ?qual:c.Schema.source c.Schema.cname),
                   slot_name i )
             | None -> (Expr.column (slot_name i), slot_name i)))
      ga
  in
  let source = node_source catalog v in
  let node_gapply (p : placed) =
    let n = p.p_node in
    let outer = source n in
    let var = Printf.sprintf "dg%d" p.p_row.b_id in
    let g () = Plan.group_scan ~var (Props.schema_of outer) in
    let prefix =
      List.filteri
        (fun i _ -> i < List.length (parent_path n))
        (path_slots p.p_row)
    in
    clustered ~prefix
      ~gcols:(List.map (fun c -> Expr.col c) (parent_path n))
      ~var ~outer
      (Plan.union_all (node_pgq ~prefix p g))
  in
  (* The GApply of the selecting query.  Its outer input is that query
     joined to the top query, so every group carries its top row, and
     the PGQ keeps or drops the group as a whole:

       Apply (Exists guard, Union_all [top row; child rows; aggs])

     The guard is [Select (pred, group)] for an existential predicate
     and [Select (agg op c, Aggregate (agg, group))] for an aggregate
     one.  The child rows are there when the selecting query is one of
     the top node's children ([sel]).  The query runs once, instead of
     under a qualifying-keys plan that the top branch and the child
     each semijoin with. *)
  let selecting_gapply (s : Deep_view.selection) sel =
    let tn = top.p_node in
    let parent_plan = bind catalog tn.Deep_view.n_query in
    let parent_schema = Props.schema_of parent_plan in
    (* fresh names for the top query's columns, so none collides with a
       column of the selecting query *)
    let fresh i = Printf.sprintf "__xparent%d" i in
    let fresh_of name = fresh (Schema.find name parent_schema) in
    let renamed =
      List.mapi
        (fun i (col : Schema.column) ->
          ( Expr.Col (Expr.col ?qual:col.Schema.source col.Schema.cname),
            fresh i ))
        (Schema.to_list parent_schema)
    in
    let on =
      Expr.conjoin
        (List.map2
           (fun link key ->
             Expr.( ==^ ) (Expr.column link) (Expr.column (fresh_of key)))
           s.Deep_view.s_link tn.Deep_view.n_path)
    in
    (* the selecting query probes a hash table built on the top rows; a
       probe row's matches come out in build order and, the key being
       unique, there is one per probe row, so each group's members keep
       the selecting query's row order: the order of a top element's
       children in the published document *)
    let outer =
      Plan.join on
        (bind catalog s.Deep_view.s_query)
        (Plan.project renamed parent_plan)
    in
    let var = "xsel" in
    let g () = Plan.group_scan ~var (Props.schema_of outer) in
    let guard =
      match s.Deep_view.s_guard with
      | Deep_view.Some_row (col, op, value) ->
          Plan.select (cmp_expr col op value) (g ())
      | Deep_view.Agg_holds (fn, col, op, value) ->
          Plan.select (cmp_expr "qagg" op value)
            (Plan.aggregate [ (Expr.agg fn (Some (Expr.column col)), "qagg") ]
               (g ()))
    in
    let prefix = path_slots top.p_row in
    (* every member carries the same top row (the key identifies it):
       Distinct over the top query's columns leaves exactly that row *)
    let top_row =
      Plan.project
        (layout ~enc ~skip:prefix ~node_id:top.p_row.b_id
           (List.map2
              (fun (col, _) (_, slot) -> (slot, Expr.column (fresh_of col)))
              tn.Deep_view.n_fields top.p_row.b_fields))
        (Plan.distinct
           (Plan.project
              (List.map (fun (_, name) -> (Expr.column name, name)) renamed)
              (g ())))
    in
    let child_rows =
      match sel with Some p -> node_pgq ~prefix p g | None -> []
    in
    clustered ~prefix
      ~gcols:
        (List.map (fun key -> Expr.col (fresh_of key)) tn.Deep_view.n_path)
      ~var ~outer
      (Plan.apply (Plan.exists guard)
         (Plan.union_all (top_row :: child_rows)))
  in
  let branches =
    match v.Deep_view.select with
    | None ->
        row_branch ~enc top (source top.p_node)
        :: List.map node_gapply (descendants top)
    | Some s ->
        let sel =
          List.find_opt
            (fun (p : placed) ->
              String.equal p.p_node.Deep_view.n_query s.Deep_view.s_query
              && p.p_node.Deep_view.n_path = s.Deep_view.s_link)
            top.p_children
        in
        selecting_gapply s sel
        :: List.filter_map
             (fun p ->
               match sel with
               | Some q when q == p -> None
               | _ -> Some (node_gapply p))
             (descendants top)
  in
  (order_plan ~enc branches, enc)

(* ---------- the hierarchical constant-space tagger ---------- *)

(* The elements under construction, per level from the root: each one's
   children so far, reversed; and the finished document. *)
type tree = {
  t_children : Xml.t list array;
  mutable t_depth : int;
  mutable t_doc : Xml.t option;
}

(* Where the tagger's output goes.  A variant, not a record of closures:
   the walk calls each sink's operations directly.  Indirect calls per
   element cost the markup sink about a tenth of its time on the
   Figure-1 documents. *)
type sink = Markup of Buffer.t | Tree of tree

let open_tag buf tag =
  Buffer.add_char buf '<';
  Buffer.add_string buf tag;
  Buffer.add_char buf '>'

let close_tag buf tag =
  Buffer.add_string buf "</";
  Buffer.add_string buf tag;
  Buffer.add_char buf '>'

let add_child t child =
  let d = t.t_depth - 1 in
  if d < 0 then t.t_doc <- Some child
  else t.t_children.(d) <- child :: t.t_children.(d)

(* an element opens *)
let start sink tag =
  match sink with
  | Markup buf -> open_tag buf tag
  | Tree t -> t.t_depth <- t.t_depth + 1

(* a field element with its text *)
let field sink tag text =
  match sink with
  | Markup buf ->
      open_tag buf tag;
      Xml.escape_into buf text;
      close_tag buf tag
  | Tree t -> add_child t (Xml.element tag [ Xml.text text ])

(* the innermost open element closes *)
let finish sink tag =
  match sink with
  | Markup buf -> close_tag buf tag
  | Tree t ->
      let d = t.t_depth - 1 in
      let children = t.t_children.(d) in
      t.t_children.(d) <- [];
      t.t_depth <- d;
      add_child t (Xml.element tag (List.rev children))

let max_depth (enc : encoding) =
  List.fold_left (fun m b -> max m (Array.length b.b_chain)) 0 enc.e_branches

(* One walk over a clustered stream.  The open root-to-leaf chain is
   kept per level in arrays with a depth counter: each open element's
   node id and the row that opened it.  A row extends the longest
   prefix of the open chain whose node ids and key slots it shares;
   memory is bounded by that chain. *)
let walk (enc : encoding) (sink : sink) (cursor : Cursor.t) =
  let table = Array.of_list enc.e_branches in
  let max_depth = max_depth enc in
  (* per node id: the element tag, and the levels that must be open (an
     element's ancestors, a derived value's whole chain) *)
  let tag_of = Array.map (fun b -> Option.value b.b_tag ~default:"") table in
  let need_of =
    Array.map
      (fun b ->
        Array.length b.b_chain - if Option.is_some b.b_tag then 1 else 0)
      table
  in
  (* the levels a row compares: a keyed element its own level too; an
     element without keys always opens a new one *)
  let upto_of =
    Array.mapi
      (fun id b ->
        let need = need_of.(id) in
        if Option.is_some b.b_tag && Array.length b.b_chain.(need).l_slots > 0
        then need + 1
        else need)
      table
  in
  let open_node = Array.make max_depth (-1) in
  let open_row = Array.make max_depth Tuple.empty in
  let depth = ref 0 in
  let pop () =
    decr depth;
    finish sink tag_of.(open_node.(!depth))
  in
  (* The tagger is the engine's decode boundary for dictionary-encoded
     strings: [Value.to_string] resolves a [Sym] handle back to its
     interned text here, so queries that never reach output (joins,
     grouping, predicates) compare integer ids and pay no decode. *)
  let fields (b : branch) row =
    List.iter
      (fun (tag, idx) ->
        match Tuple.get row idx with
        | Value.Null -> ()
        | v -> field sink tag (Value.to_string v))
      b.b_fields
  in
  (* whether the open element at [level] is [l]'s node with [row]'s keys *)
  let is_open row level l =
    open_node.(level) = l.l_node
    &&
    let frow = open_row.(level) and slots = l.l_slots in
    let rec go j =
      j = Array.length slots
      || Value.equal_total frow.(slots.(j)) row.(slots.(j))
         && go (j + 1)
    in
    go 0
  in
  let rec matched row chain upto level =
    if level < upto && level < !depth && is_open row level chain.(level)
    then matched row chain upto (level + 1)
    else level
  in
  (* a NULL ancestor key matches no element ([link = key] never holds
     for NULL), so such a row belongs to none and is not published *)
  let orphan row chain upto =
    let rec go level =
      level < upto
      && (Array.exists
            (fun s -> match row.(s) with Value.Null -> true | _ -> false)
            chain.(level).l_slots
         || go (level + 1))
    in
    go 0
  in
  start sink enc.e_root_tag;
  Cursor.iter
    (fun row ->
      let b =
        match Tuple.get row enc.e_node_col with
        | Value.Int id when id >= 0 && id < Array.length table -> table.(id)
        | Value.Int id ->
            Errors.exec_errorf "deep tagger: unknown node id %d" id
        | v ->
            Errors.exec_errorf "deep tagger: non-integer node id %s"
              (Value.to_string v)
      in
      let chain = b.b_chain in
      let need = need_of.(b.b_id) and upto = upto_of.(b.b_id) in
      let cp = matched row chain upto 0 in
      if cp < need then begin
        if not (orphan row chain need) then
          Errors.exec_errorf
            "deep tagger: <%s> row arrived without its parent (stream not \
             clustered?)"
            (Option.value b.b_tag ~default:"derived value")
      end
      else
        match b.b_tag with
        | Some tag ->
            if cp > need then
              Errors.exec_errorf
                "deep tagger: duplicate key: a second <%s> row with the keys \
                 of the open one"
                tag;
            while !depth > need do
              pop ()
            done;
            start sink tag;
            open_node.(need) <- b.b_id;
            (* an element without keys is never compared *)
            if upto > need then open_row.(need) <- row;
            depth := need + 1;
            fields b row
        | None ->
            if need = 0 then
              Errors.exec_errorf "deep tagger: derived values at the root";
            while !depth > need do
              pop ()
            done;
            fields b row)
    cursor;
  while !depth > 0 do
    pop ()
  done;
  finish sink enc.e_root_tag

(** The {!Xml.t} sink: build the document tree. *)
let tag (enc : encoding) (cursor : Cursor.t) : Xml.t =
  (* the root's level, then one per chain level *)
  let levels = 1 + max_depth enc in
  let t =
    {
      t_children = Array.make levels [];
      t_depth = 0;
      t_doc = None;
    }
  in
  walk enc (Tree t) cursor;
  Option.get t.t_doc

(** The buffer sink: stream markup, an empty element as [<t></t>]. *)
let tag_to_buffer (enc : encoding) (cursor : Cursor.t) (buf : Buffer.t) =
  walk enc (Markup buf) cursor

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
