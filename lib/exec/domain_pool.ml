(* A fixed-size pool of worker domains for intra-query parallelism.

   Built directly on [Domain.spawn] (no external task library).  Work
   arrives as *batches*: a batch is a set of integer-indexed chunks
   claimed competitively through an atomic counter, so load balances
   even when chunks are uneven (a skewed GApply group distribution, for
   example).  The submitting domain always participates in draining its
   own batch, which caps effective parallelism at [workers + 1] and
   makes nested submissions (a parallel GApply whose per-group query
   contains another parallel GApply) deadlock-free: a domain only ever
   blocks on chunks that are already running elsewhere.

   Worker domains are spawned lazily on first use, kept for the life of
   the process, and shared by every query (pool reuse).  Exceptions
   raised inside a chunk are captured (first one wins, with its original
   backtrace) and re-raised on the submitting domain after the whole
   batch has drained, so the pool itself never loses a worker to a user
   exception.  A failed batch is *poisoned*: chunks claimed after the
   failure complete immediately without running, so a cancelled or
   crashed parallel GApply phase re-joins promptly instead of burning
   workers on doomed work — no worker is ever still running batch work
   when the submitter re-raises. *)

type batch = {
  b_mutex : Mutex.t;
  b_cond : Condition.t;
  nchunks : int;
  next : int Atomic.t;              (* next chunk index to claim *)
  mutable completed : int;          (* chunks finished (under b_mutex) *)
  poisoned : bool Atomic.t;         (* a chunk failed: stop running more *)
  mutable error : (exn * Printexc.raw_backtrace) option;
  run_chunk : int -> unit;
}

type state = {
  s_mutex : Mutex.t;
  s_cond : Condition.t;
  queue : batch Queue.t;            (* one entry per worker invited to help *)
  mutable spawned : int;            (* worker domains running *)
}

(* A pool value is a lightweight handle: the shared state plus the
   number of worker domains this handle may use (so a --parallelism 2
   run really uses 2 domains even if an earlier query grew the shared
   pool to 8). *)
type t = { state : state; workers : int }

let num_domains t = t.workers + 1

(* ---------- batch draining ---------- *)

let drain (b : batch) =
  let rec go () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.nchunks then begin
      (* fast-drain a poisoned batch: the remaining chunks are claimed
         and completed without running, so the batch converges at the
         speed of the bookkeeping, not of the doomed work *)
      if not (Atomic.get b.poisoned) then
        (try b.run_chunk i
         with e ->
           (* capture the *first* failure with its original backtrace;
              later failures (often knock-on [Cancelled]s from sibling
              domains) never overwrite it *)
           let bt = Printexc.get_raw_backtrace () in
           Atomic.set b.poisoned true;
           Mutex.lock b.b_mutex;
           if b.error = None then b.error <- Some (e, bt);
           Mutex.unlock b.b_mutex);
      Mutex.lock b.b_mutex;
      b.completed <- b.completed + 1;
      if b.completed = b.nchunks then Condition.broadcast b.b_cond;
      Mutex.unlock b.b_mutex;
      go ()
    end
  in
  go ()

let rec worker_loop (s : state) =
  Mutex.lock s.s_mutex;
  while Queue.is_empty s.queue do
    Condition.wait s.s_cond s.s_mutex
  done;
  let b = Queue.pop s.queue in
  Mutex.unlock s.s_mutex;
  drain b;
  worker_loop s

(* ---------- pool construction ---------- *)

let make_state () =
  {
    s_mutex = Mutex.create ();
    s_cond = Condition.create ();
    queue = Queue.create ();
    spawned = 0;
  }

let ensure_workers (s : state) target =
  if s.spawned < target then begin
    Mutex.lock s.s_mutex;
    while s.spawned < target do
      ignore (Domain.spawn (fun () -> worker_loop s));
      s.spawned <- s.spawned + 1
    done;
    Mutex.unlock s.s_mutex
  end

let default_num_domains () = max 1 (Domain.recommended_domain_count () - 1)

let create ?num_domains () =
  let workers =
    match num_domains with
    | Some n -> max 0 n
    | None -> default_num_domains ()
  in
  let state = make_state () in
  ensure_workers state workers;
  { state; workers }

(* The shared process-wide pool, grown on demand to the largest
   parallelism any query has asked for. *)
let shared_state = lazy (make_state ())

let for_parallelism parallelism =
  let target =
    if parallelism = 0 then Domain.recommended_domain_count ()
    else parallelism
  in
  if target <= 1 then None
  else begin
    let state = Lazy.force shared_state in
    let workers = target - 1 in
    ensure_workers state workers;
    Some { state; workers }
  end

(* ---------- parallel combinators ---------- *)

let parallel_map_array (t : t) (f : 'a -> 'b) (input : 'a array) : 'b array =
  let n = Array.length input in
  if n <= 1 || t.workers = 0 then Array.map f input
  else begin
    let results : 'b option array = Array.make n None in
    (* more chunks than domains so a slow chunk doesn't serialise the
       tail, but not so many that claim overhead dominates *)
    let chunk_size = max 1 (n / ((t.workers + 1) * 4)) in
    let nchunks = (n + chunk_size - 1) / chunk_size in
    let run_chunk ci =
      let lo = ci * chunk_size in
      let hi = min n (lo + chunk_size) in
      for i = lo to hi - 1 do
        results.(i) <- Some (f input.(i))
      done
    in
    let b =
      {
        b_mutex = Mutex.create ();
        b_cond = Condition.create ();
        nchunks;
        next = Atomic.make 0;
        completed = 0;
        poisoned = Atomic.make false;
        error = None;
        run_chunk;
      }
    in
    let helpers = min t.workers (nchunks - 1) in
    if helpers > 0 then begin
      Mutex.lock t.state.s_mutex;
      for _ = 1 to helpers do
        Queue.push b t.state.queue
      done;
      Condition.broadcast t.state.s_cond;
      Mutex.unlock t.state.s_mutex
    end;
    drain b;
    Mutex.lock b.b_mutex;
    while b.completed < b.nchunks do
      Condition.wait b.b_cond b.b_mutex
    done;
    Mutex.unlock b.b_mutex;
    (match b.error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

(* Merging sorted runs in place: ping-pong pairwise merges between the
   array and a scratch buffer, each pass on the pool if there is one.
   Stable: a merge takes ties from the left (earlier) run. *)

let merge ~cmp (src : 'a array) lo mid hi (dst : 'a array) =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if !i < mid && (!j >= hi || cmp src.(!i) src.(!j) <= 0) then begin
      dst.(k) <- src.(!i);
      incr i
    end
    else begin
      dst.(k) <- src.(!j);
      incr j
    end
  done

let merge_runs ?pool (cmp : 'a -> 'a -> int) (arr : 'a array) bounds =
  let each npairs f =
    let pairs = Array.init npairs Fun.id in
    match pool with
    | Some t -> ignore (parallel_map_array t f pairs)
    | None -> Array.iter f pairs
  in
  (* merge run pairs; an odd last run is merged with an empty one,
     which copies it *)
  let rec passes src dst bounds =
    let nruns = Array.length bounds - 1 in
    if nruns <= 1 then src
    else begin
      let npairs = (nruns + 1) / 2 in
      let b k = bounds.(min k nruns) in
      each npairs (fun p ->
          let lo = 2 * p in
          merge ~cmp src (b lo) (b (lo + 1)) (b (lo + 2)) dst);
      passes dst src (Array.init (npairs + 1) (fun p -> b (2 * p)))
    end
  in
  let result = passes arr (Array.copy arr) bounds in
  if result != arr then Array.blit result 0 arr 0 (Array.length arr)

(* Parallel merge sort: sort contiguous runs on the pool with
   [Array.stable_sort], then merge them. *)
let parallel_sort (t : t) (cmp : 'a -> 'a -> int) (arr : 'a array) : unit =
  let n = Array.length arr in
  if t.workers = 0 || n < 4096 then Array.stable_sort cmp arr
  else begin
    (* run [i] is [bounds.(i), bounds.(i + 1)) *)
    let nruns = min (t.workers + 1) n in
    let bounds = Array.init (nruns + 1) (fun i -> i * n / nruns) in
    ignore
      (parallel_map_array t
         (fun i ->
           let lo = bounds.(i) and len = bounds.(i + 1) - bounds.(i) in
           let sub = Array.sub arr lo len in
           Array.stable_sort cmp sub;
           Array.blit sub 0 arr lo len)
         (Array.init nruns Fun.id));
    merge_runs ~pool:t cmp arr bounds
  end
