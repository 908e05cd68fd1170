(* ORDER BY over presorted branches: per-group run checks and a stable
   k-way merge (see order_merge.mli).  Every stream here is a batch
   cursor of sorted slices: views of the rows they came in, never
   copied unless a run check fails. *)

let diff_on (idxs : int array) (desc : bool array) : Tuple.t -> Tuple.t -> int
    =
  let n = Array.length idxs in
  let rec go a b k =
    if k = n then 0
    else
      let i = Array.unsafe_get idxs k in
      let c =
        Value.compare_total (Array.unsafe_get a i) (Array.unsafe_get b i)
      in
      if c = 0 then go a b (k + 1)
      else if c < 0 <> Array.unsafe_get desc k then k + 1
      else -(k + 1)
  in
  fun a b -> go a b 0

let segments ~size ~p ~diff ~sort ?account (bc : Batch.cursor) :
    Batch.cursor =
  let ready = Queue.create () in
  (* the view about to join [ready], while the next may extend it:
     adjacent views of one array leave as one, up to [size] rows *)
  let tail = ref None in
  let emit (v : Batch.t) =
    match !tail with
    | Some (t : Batch.t)
      when t.rows == v.rows && t.pos + t.len = v.pos && t.len + v.len <= size
      ->
        tail := Some { t with len = t.len + v.len }
    | Some t ->
        Queue.push t ready;
        tail := Some v
    | None -> tail := Some v
  in
  let flush () =
    Option.iter (fun t -> Queue.push t ready) !tail;
    tail := None
  in
  (* the open segment: its pieces, latest first, and whether they run *)
  let pieces = ref [] and runs = ref true in
  let close () =
    let ps = List.rev !pieces in
    pieces := [];
    if !runs then List.iter emit ps
    else begin
      runs := true;
      let rows =
        Array.make
          (List.fold_left (fun n (v : Batch.t) -> n + v.len) 0 ps)
          Tuple.empty
      in
      let at = ref 0 in
      List.iter
        (fun (v : Batch.t) ->
          Option.iter (fun f -> f v.rows v.pos v.len) account;
          Array.blit v.rows v.pos rows !at v.len;
          at := !at + v.len)
        ps;
      flush ();
      let sorted = sort rows in
      let rec drain () =
        Option.iter
          (fun v ->
            Queue.push v ready;
            drain ())
          (sorted ())
      in
      drain ()
    end
  in
  let piece rows pos stop =
    if stop > pos then
      pieces := { Batch.rows; pos; len = stop - pos } :: !pieces
  in
  (* the last row of the batches scanned so far, once there is one *)
  let prev = ref Tuple.empty and started = ref false in
  let scan (b : Batch.t) =
    let rows = b.rows and stop = b.pos + b.len in
    let start = ref b.pos in
    for i = b.pos to stop - 1 do
      if i > b.pos || !started then begin
        let row = Array.unsafe_get rows i in
        let d =
          diff (if i > b.pos then Array.unsafe_get rows (i - 1) else !prev) row
        in
        if d > 0 && d <= p then begin
          (* a new segment starts at row [i] *)
          piece rows !start i;
          close ();
          start := i
        end
        else if d < 0 then
          if -d <= p then
            Errors.exec_errorf
              "ORDER BY: a branch's rows descend on a key it ascends on"
          else runs := false
      end
    done;
    piece rows !start stop;
    started := true;
    prev := Array.unsafe_get rows (stop - 1)
  in
  let exhausted = ref false in
  let rec next () =
    if not (Queue.is_empty ready) then Some (Queue.pop ready)
    else if !exhausted then None
    else begin
      (match bc () with
      | Some b -> scan b
      | None ->
          exhausted := true;
          close ());
      flush ();
      next ()
    end
  in
  next

let merge ~cmp (streams : Batch.cursor array) : Batch.cursor =
  match streams with
  | [| one |] -> one
  | _ ->
      (* stream [j]'s head slice is [rows.(j)] from [pos.(j)] to
         [stop.(j)]; a drained stream is not [live] *)
      let k = Array.length streams in
      let rows = Array.make k [||] and pos = Array.make k 0 in
      let stop = Array.make k 0 and live = Array.make k true in
      let head j = Array.unsafe_get rows.(j) pos.(j) in
      let refill j =
        if live.(j) && pos.(j) >= stop.(j) then
          match streams.(j) () with
          | Some (b : Batch.t) ->
              rows.(j) <- b.rows;
              pos.(j) <- b.pos;
              stop.(j) <- b.pos + b.len
          | None -> live.(j) <- false
      in
      (* the least live head other than [skip]'s, ties to the lower *)
      let least skip =
        let best = ref (-1) in
        for j = 0 to k - 1 do
          if j <> skip && live.(j)
             && (!best < 0 || cmp (head j) (head !best) < 0)
          then best := j
        done;
        !best
      in
      fun () ->
        for j = 0 to k - 1 do
          refill j
        done;
        match least (-1) with
        | -1 -> None
        | b ->
            let lo = pos.(b) and hi = stop.(b) and rs = rows.(b) in
            let n =
              match least b with
              | -1 -> hi - lo
              | o ->
                  let h = head o in
                  let precedes row =
                    let c = cmp row h in
                    c < 0 || (c = 0 && b < o)
                  in
                  if precedes rs.(hi - 1) then hi - lo
                  else begin
                    (* rs.(lo) precedes, rs.(hi - 1) does not *)
                    let yes = ref lo and no = ref (hi - 1) in
                    while !no - !yes > 1 do
                      let mid = (!yes + !no) / 2 in
                      if precedes rs.(mid) then yes := mid else no := mid
                    done;
                    !no - lo
                  end
            in
            pos.(b) <- lo + n;
            Some { Batch.rows = rs; pos = lo; len = n }
