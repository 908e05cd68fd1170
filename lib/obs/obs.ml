(* Per-operator execution metrics and trace hooks.  See obs.mli for the
   contract; the short version: the node tree is built single-threaded
   at compile time, and every runtime update goes through Metrics
   atomics so instrumented cursors can run on pool domains. *)

type event_kind = Open | Next | Close
type event = { op : string; node_id : int; kind : event_kind }
type hook = event -> unit

type node = {
  id : int;
  op : string;
  invocations : Metrics.counter;
  rows : Metrics.counter;
  batches : Metrics.counter;
  partitions : Metrics.counter;
  time : Metrics.timer;
  ttft : Metrics.timer;
  mutable children : node list;  (* reverse registration order *)
}

type t = {
  mutable hook : hook option;
  mutable stack : node list;  (* compile-time only *)
  mutable tree : node option;
  mutable next_id : int;
}

let make ?hook () = { hook; stack = []; tree = None; next_id = 0 }
let set_hook t hook = t.hook <- hook
let root t = t.tree

let enter t ~op f =
  let node =
    {
      id = t.next_id;
      op;
      invocations = Metrics.counter ();
      rows = Metrics.counter ();
      batches = Metrics.counter ();
      partitions = Metrics.counter ();
      time = Metrics.timer ();
      ttft = Metrics.timer ();
      children = [];
    }
  in
  t.next_id <- t.next_id + 1;
  (match t.stack with
  | parent :: _ -> parent.children <- node :: parent.children
  | [] -> t.tree <- Some node);
  t.stack <- node :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      match t.stack with [] -> () | _ :: rest -> t.stack <- rest)
    (fun () -> f node)

let current t = match t.stack with [] -> None | node :: _ -> Some node

let emit t node kind =
  match t.hook with
  | None -> ()
  | Some h -> h { op = node.op; node_id = node.id; kind }

(* Wrap one invocation whose output is pulled from [pulls] (one cursor,
   or the branches of a UNION ALL that an ORDER BY merges): counts the
   invocation, emits [Open], then meters every pull of every cursor.
   One pull yields a whole batch, so the row counter advances by
   [len r] per pull and [batches] counts the pulls.  Trace hooks still
   see one [Next] per row (not per batch) so traces stay row-granular;
   the per-row emit loop only runs when a hook is installed.  [Close]
   is emitted once every cursor has reported its end.  Per-invocation
   state: one cursor is only ever pulled by the single domain that runs
   it, so plain refs are safe here. *)
let instrument_batches t node ~len (pulls : (unit -> 'a option) array) =
  Metrics.incr node.invocations;
  emit t node Open;
  let opened = Metrics.now_ns () in
  let awaiting_first = ref true and live = ref (Array.length pulls) in
  let metered pull =
    let over = ref false in
    fun () ->
      let t0 = Metrics.now_ns () in
      let r = pull () in
      let t1 = Metrics.now_ns () in
      Metrics.add_span node.time (t1 - t0);
      (match r with
      | Some b ->
          let n = len b in
          Metrics.incr node.batches;
          Metrics.add node.rows n;
          if !awaiting_first then begin
            awaiting_first := false;
            Metrics.add_span node.ttft (t1 - opened)
          end;
          (match t.hook with
          | None -> ()
          | Some _ ->
              for _ = 1 to n do
                emit t node Next
              done)
      | None ->
          if not !over then begin
            over := true;
            decr live;
            if !live = 0 then emit t node Close
          end);
      r
  in
  Array.map metered pulls

let instrument_batch t node ~len pull =
  (instrument_batches t node ~len [| pull |]).(0)

let record t node ~invocations ~rows ~batches ~time_ns =
  Metrics.add node.invocations invocations;
  Metrics.add node.rows rows;
  Metrics.add node.batches batches;
  Metrics.add_span node.time time_ns;
  if rows > 0 then Metrics.add_span node.ttft time_ns;
  match t.hook with
  | None -> ()
  | Some _ ->
      for _ = 1 to invocations do
        emit t node Open
      done;
      for _ = 1 to rows do
        emit t node Next
      done;
      for _ = 1 to invocations do
        emit t node Close
      done

let traced t = Option.is_some t.hook

let add_partitions node n = Metrics.add node.partitions n

type stat = {
  op : string;
  invocations : int;
  rows : int;
  batches : int;
  partitions : int;
  time_ns : int;
  ttft_ns : int;
  children : stat list;
}

let rec snapshot_node (n : node) : stat =
  {
    op = n.op;
    invocations = Metrics.get n.invocations;
    rows = Metrics.get n.rows;
    batches = Metrics.get n.batches;
    partitions = Metrics.get n.partitions;
    time_ns = Metrics.elapsed_ns n.time;
    ttft_ns = Metrics.elapsed_ns n.ttft;
    (* [node.children] is in reverse registration order; rev_map restores
       plan-child order *)
    children = List.rev_map snapshot_node n.children;
  }

let snapshot t = Option.map snapshot_node t.tree

let reset t =
  let rec go (n : node) =
    Metrics.reset n.invocations;
    Metrics.reset n.rows;
    Metrics.reset n.batches;
    Metrics.reset n.partitions;
    Metrics.reset_timer n.time;
    Metrics.reset_timer n.ttft;
    List.iter go n.children
  in
  Option.iter go t.tree

let flatten stat =
  let rec go depth s acc =
    (depth, s) :: List.fold_right (go (depth + 1)) s.children acc
  in
  go 0 stat []

let rec pp_stat_tree ppf ~indent s =
  Format.fprintf ppf "%s%s  (rows=%d loops=%d%s%s time=%s first=%s)@\n"
    (String.make indent ' ') s.op s.rows s.invocations
    (if s.partitions > 0 then Printf.sprintf " groups=%d" s.partitions else "")
    (if s.batches > 0 then Printf.sprintf " batches=%d" s.batches else "")
    (Pretty.duration_ns s.time_ns)
    (Pretty.duration_ns s.ttft_ns);
  List.iter (pp_stat_tree ppf ~indent:(indent + 2)) s.children

let pp_stat ppf s = pp_stat_tree ppf ~indent:0 s
