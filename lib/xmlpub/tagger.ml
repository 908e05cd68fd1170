(* The constant-space tagger (middleware of Section 2).

   Consumes a tuple stream that is *clustered by the parent key* (which
   the sorted outer union guarantees with ORDER BY, and the GApply plan
   guarantees with its final order-by) and emits XML.  The tagger keeps
   only the current parent element open — its space is bounded by one
   group, never by the whole document, which is exactly the property the
   paper's SQL formulations must preserve (hence their ORDER BY
   clauses).

   Two variants:
   - [tag_to_buffer] streams markup text (true constant-space tagging);
   - [tag] builds an [Xml.t] for programmatic use and tests. *)

(* Whether [row] carries the cluster key of the open parent's row: the
   key is the first [e_key_count] columns of every row. *)
let same_key (enc : Publish.encoding) (parent : Tuple.t) (row : Tuple.t) =
  let rec go i =
    i = enc.Publish.e_key_count
    || (Value.equal_total parent.(i) row.(i) && go (i + 1))
  in
  go 0

(* Branch descriptors indexed by node id (0 is the parent), so the
   per-row dispatch is an array load. *)
let branch_table (enc : Publish.encoding) : Publish.branch_desc option array =
  let max_id =
    List.fold_left
      (fun m (b : Publish.branch_desc) -> max m b.Publish.b_id)
      0 enc.Publish.e_branches
  in
  let table = Array.make (max_id + 1) None in
  List.iter
    (fun (b : Publish.branch_desc) -> table.(b.Publish.b_id) <- Some b)
    enc.Publish.e_branches;
  table.(0) <- Some enc.Publish.e_parent;
  table

let branch_of (enc : Publish.encoding) table (row : Tuple.t) :
    Publish.branch_desc =
  match Tuple.get row enc.Publish.e_node_col with
  | Value.Int id -> (
      match if id >= 0 && id < Array.length table then table.(id) else None with
      | Some b -> b
      | None -> Errors.exec_errorf "tagger: unknown node id %d" id)
  | v ->
      Errors.exec_errorf "tagger: non-integer node id %s" (Value.to_string v)

(* The tagger is the engine's decode boundary for dictionary-encoded
   strings: [Value.to_string] resolves a [Sym] handle back to its
   interned text here, so queries that never reach output (joins,
   grouping, predicates) compare integer ids and pay no decode. *)
let field_elements (branch : Publish.branch_desc) (row : Tuple.t) =
  List.filter_map
    (fun (tag, idx) ->
      match Tuple.get row idx with
      | Value.Null -> None
      | v -> Some (Xml.element tag [ Xml.text (Value.to_string v) ]))
    branch.Publish.b_fields

let parent_tag (enc : Publish.encoding) =
  match enc.Publish.e_parent.Publish.b_tag with Some t -> t | None -> "item"

(** Build the document tree. *)
let tag (enc : Publish.encoding) (cursor : Cursor.t) : Xml.t =
  let table = branch_table enc in
  let parents = ref [] in
  let current_parent = ref None in
  let current_children = ref [] in
  let close_current () =
    match !current_parent with
    | None -> ()
    | Some _ ->
        parents :=
          Xml.element (parent_tag enc) (List.rev !current_children) :: !parents;
        current_parent := None;
        current_children := []
  in
  Cursor.iter
    (fun row ->
      let branch = branch_of enc table row in
      if branch.Publish.b_id = 0 then begin
        close_current ();
        current_parent := Some row;
        current_children := List.rev (field_elements branch row)
      end
      else begin
        (match !current_parent with
        | Some p when same_key enc p row -> ()
        | _ ->
            Errors.exec_errorf
              "tagger: child row %s arrived without its parent (stream \
               not clustered?)"
              (Tuple.to_string row));
        match branch.Publish.b_tag with
        | Some tag ->
            current_children :=
              Xml.element tag (field_elements branch row)
              :: !current_children
        | None ->
            (* derived value: its field elements attach to the parent *)
            current_children :=
              List.rev_append (field_elements branch row) !current_children
      end)
    cursor;
  close_current ();
  Xml.element enc.Publish.e_root_tag (List.rev !parents)

let open_tag buf tag =
  Buffer.add_char buf '<';
  Buffer.add_string buf tag;
  Buffer.add_char buf '>'

let close_tag buf tag =
  Buffer.add_string buf "</";
  Buffer.add_string buf tag;
  Buffer.add_char buf '>'

(** Stream markup into a buffer; memory is bounded by a single row.
    Writes the bytes [Xml.to_string] gives the tree of {!tag}, except
    that an element without content is [<t></t>], not [<t/>]. *)
let tag_to_buffer (enc : Publish.encoding) (cursor : Cursor.t)
    (buf : Buffer.t) : unit =
  let table = branch_table enc in
  let parent_tag = parent_tag enc in
  let emit_fields (branch : Publish.branch_desc) row =
    List.iter
      (fun (tag, idx) ->
        match Tuple.get row idx with
        | Value.Null -> ()
        | v ->
            open_tag buf tag;
            Xml.escape_into buf (Value.to_string v);
            close_tag buf tag)
      branch.Publish.b_fields
  in
  open_tag buf enc.Publish.e_root_tag;
  let current_parent = ref None in
  Cursor.iter
    (fun row ->
      let branch = branch_of enc table row in
      if branch.Publish.b_id = 0 then begin
        if Option.is_some !current_parent then close_tag buf parent_tag;
        current_parent := Some row;
        open_tag buf parent_tag;
        emit_fields branch row
      end
      else begin
        (match !current_parent with
        | Some p when same_key enc p row -> ()
        | _ ->
            Errors.exec_errorf
              "tagger: stream not clustered at row %s" (Tuple.to_string row));
        match branch.Publish.b_tag with
        | Some tag ->
            open_tag buf tag;
            emit_fields branch row;
            close_tag buf tag
        | None -> emit_fields branch row
      end)
    cursor;
  if Option.is_some !current_parent then close_tag buf parent_tag;
  close_tag buf enc.Publish.e_root_tag

(** Publish a view end-to-end with the given strategy. *)
type strategy = Sorted_outer_union | Gapply_pass

let publish ?(strategy = Gapply_pass) (catalog : Catalog.t)
    (spec : Publish.spec) : Xml.t =
  let plan, enc =
    match strategy with
    | Sorted_outer_union -> Publish.outer_union_plan catalog spec
    | Gapply_pass -> Publish.gapply_plan catalog spec
  in
  let compiled = Compile.plan plan in
  tag enc (compiled.Compile.run (Env.make catalog))
