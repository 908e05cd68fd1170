(** ORDER BY over presorted branches.

    An ORDER BY sorts each branch of its input (a UNION ALL's, or the
    input itself) on its own, then merges them.  A branch whose order
    property ({!Props.order_of}) covers the first [p] keys streams
    through {!segments}; any other is materialized and sorted whole.
    {!merge} joins the sorted branches stably, so the result is the
    stable sort of the branches' concatenation.  Both hand out views of
    the rows they are given; only a segment that fails its run check is
    copied. *)

val diff_on : int array -> bool array -> Tuple.t -> Tuple.t -> int
(** [diff_on idxs desc a b] compares [a] and [b] on key columns [idxs]
    (key [k] reversed when [desc.(k)]), most significant first, and
    says where they first differ: [k + 1] when [a] precedes [b] first at
    key [k], [-(k + 1)] when it follows, and [0] when every key ties. *)

val segments :
  size:int ->
  p:int ->
  diff:(Tuple.t -> Tuple.t -> int) ->
  sort:(Tuple.t array -> Batch.cursor) ->
  ?account:(Tuple.t array -> int -> int -> unit) ->
  Batch.cursor ->
  Batch.cursor
(** [segments ~size ~p ~diff ~sort ?account branch] is [branch] in key
    order, given that it ascends on the first [p >= 1] keys ([diff] is
    {!diff_on} of the keys).  The branch is cut into segments of rows
    that tie on those [p] keys.  A segment that is a run on the
    remaining keys leaves as views of the branch's own batches (adjacent
    views of one array as one, up to [size] rows).  One that is not is
    copied, each piece charged to [account], and handed to [sort],
    which must sort it stably.  A segment leaves only once it is
    complete (the next one has begun, or the branch has ended), since
    its last row may still break its run; it may span batches.
    @raise Errors.Exec_error when the rows descend on one of the [p]
    keys. *)

val merge : cmp:(Tuple.t -> Tuple.t -> int) -> Batch.cursor array -> Batch.cursor
(** [merge ~cmp streams] merges streams sorted on [cmp] into one: the
    least head leaves first, ties going to the lower-numbered stream.
    The least head's slice leaves whole when its last row still
    precedes every other head, else as its longest part that does. *)
