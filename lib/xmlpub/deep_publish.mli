(** Plans and tagging for XML views of any depth ({!Deep_view}); the
    two-level Figure-1 views reach here through {!Publish.lower}.

    Rows are encoded in a generalised sorted outer union: own-key slots
    per node, a node-id column, and per-branch payload slots.  Key slots
    and node ids are assigned in one preorder walk (a node, then its
    aggregates, then its children).  Sorting by all key slots (NULLs
    first) then node id clusters every element immediately after its
    parent. *)

(** One element of a branch's chain. *)
type level = {
  l_node : int;         (** node id of the element at this level *)
  l_slots : int array;  (** its own-key slots *)
}

type branch = {
  b_id : int;
  b_tag : string option;           (** [None] = derived values *)
  b_chain : level array;
      (** root level first; derived values carry their parent's chain *)
  b_fields : (string * int) list;  (** (element tag, output column) *)
}

type encoding = {
  e_root_tag : string;
  e_node_col : int;
  e_arity : int;
  e_branches : branch list;  (** in id order, ids [0..] *)
  e_key_slots : int list;
}

val build_encoding : Deep_view.t -> encoding

val outer_union_plan : Catalog.t -> Deep_view.t -> Plan.t * encoding
(** The sorted outer union of paper Section 2: one UNION ALL branch per
    element type and per derived aggregate; each aggregate re-evaluates
    and re-groups its node's query.  With a selection, every branch is
    semijoined with the qualifying top keys. *)

val gapply_plan : Catalog.t -> Deep_view.t -> Plan.t * encoding
(** The top node's rows are one plain branch; every other node produces
    its element rows and all its aggregates from one clustered GApply
    pass grouped on its parent path.  With a selection, the selecting
    query's GApply runs over that query joined to the top query, and its
    per-group query emits the top row, the selecting child's rows and
    its aggregates only when the guard holds on the group; the top key
    must then identify a top row.  Every other node is semijoined with
    the qualifying top keys. *)

val tag : encoding -> Cursor.t -> Xml.t
(** Hierarchical constant-space tagger into a document tree; memory is
    bounded by one open root-to-leaf chain of elements.  A row with a
    NULL ancestor key belongs to no element and is dropped.
    @raise Errors.Exec_error when the stream is not clustered, or a
    keyed element row repeats the keys of the open one. *)

val tag_to_buffer : encoding -> Cursor.t -> Buffer.t -> unit
(** The same walk streaming markup into a buffer: the bytes
    [Xml.to_string] gives the tree of {!tag}, except that an element
    without content is [<t></t>], not [<t/>]. *)

type strategy = Sorted_outer_union | Gapply_pass

val publish : ?strategy:strategy -> Catalog.t -> Deep_view.t -> Xml.t
(** Plan, execute and tag a view.  Default strategy: [Gapply_pass]. *)
