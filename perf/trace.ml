(* In-memory span recorder for the traced run.

   Spans are recorded from the benchmark's own code around each call
   into an engine layer (see layers.ml); nothing inside lib/ is
   instrumented.  Tracing is off unless [on] is set, and an untraced
   [span] costs one bool test.

   Nesting is tracked with one implicit stack, so nested spans may only
   be opened from a single thread; a load-generator thread records flat
   spans through [record]. *)

type span = {
  id : int;
  name : string;
  op : int;  (** the operation the span belongs to; -1 outside any op *)
  parent : int;  (** parent span id; -1 for an op's root span *)
  start_ns : int;
  stop_ns : int;
  tid : int;
}

let on = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = ref 0
let stack : (int * int) list ref = ref [] (* (span id, op id) *)

let reset () =
  Mutex.protect lock (fun () ->
      spans := [];
      stack := [])

let fresh_id () =
  Mutex.protect lock (fun () ->
      incr next_id;
      !next_id)

let add s = Mutex.protect lock (fun () -> spans := s :: !spans)

let record ?(parent = -1) ~op ~id name start_ns stop_ns =
  add
    {
      id;
      name;
      op;
      parent;
      start_ns;
      stop_ns;
      tid = Thread.id (Thread.self ());
    }

let current_op () = match !stack with [] -> -1 | (_, op) :: _ -> op
let current_parent () = match !stack with [] -> -1 | (id, _) :: _ -> id

let open_span ?op name f =
  let id = fresh_id () in
  let op = match op with Some o -> o | None -> current_op () in
  let parent = if op <> current_op () then -1 else current_parent () in
  stack := (id, op) :: !stack;
  let t0 = Metrics.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Metrics.now_ns () in
      stack := List.tl !stack;
      record ~parent ~op ~id name t0 t1)
    (fun () -> f id t0)

(** [span name f] runs [f] inside a child span of the innermost open
    span. *)
let span name f = if not !on then f () else open_span name (fun _ _ -> f ())

(** [op n f] runs [f] as the root span ["op"] of operation [n]. *)
let op n f = if not !on then f () else open_span ~op:n "op" (fun _ _ -> f ())

(** [with_pulls name f]: [f] receives a cursor wrapper; the time spent
    inside the wrapped cursor's pulls is recorded as one aggregated
    child span ["exec.pull"] of [name], laid out from the start of
    [name] (its duration is exact, its position is not). *)
let with_pulls name f =
  if not !on then f (fun c -> c)
  else
    open_span name (fun id t0 ->
        let acc = ref 0 in
        let wrap c () =
          let p0 = Metrics.now_ns () in
          let r = c () in
          acc := !acc + (Metrics.now_ns () - p0);
          r
        in
        let r = f wrap in
        record ~parent:id ~op:(current_op ()) ~id:(fresh_id ()) "exec.pull" t0
          (t0 + !acc);
        r)

let recorded () = Mutex.protect lock (fun () -> List.rev !spans)

(* ---------- analysis ---------- *)

(** Per-op self times: for every op, the total self time (span minus
    the part its children cover) of each span name, plus the op's wall
    time.  Children of one span never overlap, so covered time is the
    sum of child durations. *)
let self_times spans =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          ((try Hashtbl.find child_ns s.parent with Not_found -> 0)
          + (s.stop_ns - s.start_ns)))
    spans;
  let per_op : (int, (string, int) Hashtbl.t * int ref) Hashtbl.t =
    Hashtbl.create 1024
  in
  List.iter
    (fun s ->
      if s.op >= 0 then begin
        let tbl, wall =
          match Hashtbl.find_opt per_op s.op with
          | Some e -> e
          | None ->
              let e = (Hashtbl.create 8, ref 0) in
              Hashtbl.replace per_op s.op e;
              e
        in
        let dur = s.stop_ns - s.start_ns in
        let self =
          dur - (try Hashtbl.find child_ns s.id with Not_found -> 0)
        in
        if s.parent < 0 then wall := !wall + dur;
        Hashtbl.replace tbl s.name
          ((try Hashtbl.find tbl s.name with Not_found -> 0) + self)
      end)
    spans;
  Hashtbl.fold (fun _ (tbl, wall) acc -> (tbl, !wall) :: acc) per_op []

type layer_row = {
  layer : string;
  median_self_ms : float;  (** over the ops that have this span *)
  share : float;  (** of summed op wall time *)
}

let layer_table spans =
  let ops = self_times spans in
  let total_wall = List.fold_left (fun a (_, w) -> a + w) 0 ops in
  let names = Hashtbl.create 16 in
  List.iter
    (fun (tbl, _) -> Hashtbl.iter (fun n _ -> Hashtbl.replace names n ()) tbl)
    ops;
  Hashtbl.fold
    (fun name () acc ->
      let selfs =
        List.filter_map (fun (tbl, _) -> Hashtbl.find_opt tbl name) ops
      in
      let sum = List.fold_left ( + ) 0 selfs in
      {
        layer = name;
        median_self_ms =
          Stats.median (List.map (fun ns -> float_of_int ns /. 1e6) selfs);
        share =
          (if total_wall = 0 then 0.
           else float_of_int sum /. float_of_int total_wall);
      }
      :: acc)
    names []
  |> List.sort (fun a b -> compare b.share a.share)

(* ---------- Chrome trace-event export ---------- *)

let write_chrome oc ~workload spans =
  let first = ref true in
  List.iter
    (fun s ->
      if not !first then output_string oc ",\n";
      first := false;
      Printf.fprintf oc
        "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"op\":%d,\"id\":%d,\"parent\":%d}}"
        s.name workload
        (float_of_int s.start_ns /. 1e3)
        (float_of_int (s.stop_ns - s.start_ns) /. 1e3)
        s.tid s.op s.id s.parent)
    spans
