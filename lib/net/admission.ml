(* Admission control for the network front end.

   Classic gate + bounded queue: up to [max_concurrent] statements
   execute at once; up to [queue_depth] more wait, each with a deadline
   of [admission_timeout_ms]; everything beyond that — or anything
   still queued when its deadline lands, or anything arriving during a
   drain — is shed with a typed {!Errors.Overloaded} carrying the queue
   occupancy and a retry-after hint derived from the EWMA service time.
   Shedding is deliberate: under sustained overload a bounded queue
   keeps admitted-statement latency flat while the excess gets a fast,
   honest rejection instead of a timeout.

   The stdlib has no [Condition.timedwait], so deadline expiry is
   driven by a lazily started ticker thread that broadcasts the
   condition every few milliseconds while anyone is queued; waiters
   re-check slot availability and their own deadline on every wake.
   The tick only bounds how *late* a shed can be (one tick past the
   deadline), never admission itself — a freed slot broadcasts
   immediately. *)

type config = {
  max_concurrent : int;
  queue_depth : int;
  admission_timeout_ms : int;
  per_client_cap : int;          (* 0 = no per-client quota *)
}

let default_config =
  {
    max_concurrent = 4;
    queue_depth = 16;
    admission_timeout_ms = 100;
    per_client_cap = 0;
  }

type t = {
  cfg : config;
  stats : Net_stats.t;
  mu : Mutex.t;
  cond : Condition.t;
  mutable running : int;
  mutable waiting : int;
  mutable draining : bool;
  mutable stopped : bool;        (* ticker shutdown *)
  mutable ewma_service_ns : float;
  mutable ticker : Thread.t option;
  by_client : (string, int) Hashtbl.t;  (* token -> running count *)
}

let tick_interval = 0.002 (* 2ms: bounds deadline-check latency *)

let running t = Mutex.protect t.mu (fun () -> t.running)
let queued t = Mutex.protect t.mu (fun () -> t.waiting)

let create reg cfg =
  if cfg.max_concurrent < 1 then invalid_arg "admission: max_concurrent < 1";
  if cfg.queue_depth < 0 then invalid_arg "admission: queue_depth < 0";
  let t =
    {
      cfg;
      stats = Net_stats.create reg;
      mu = Mutex.create ();
      cond = Condition.create ();
      running = 0;
      waiting = 0;
      draining = false;
      stopped = false;
      ewma_service_ns = 0.;
      ticker = None;
      by_client = Hashtbl.create 16;
    }
  in
  Metrics.derived reg ~help:"Statements executing now." "gapply_admission_running"
    (fun () -> running t);
  Metrics.derived reg ~help:"Statements waiting for a slot now."
    "gapply_admission_queued" (fun () -> queued t);
  Metrics.derived_float reg ~help:"Smoothed statement service time (ms)."
    "gapply_admission_ewma_service_ms" (fun () ->
      Mutex.protect t.mu (fun () -> t.ewma_service_ns /. 1e6));
  t

(* Per-client bookkeeping; all called with [t.mu] held. *)
let client_count_locked t c =
  match Hashtbl.find_opt t.by_client c with Some n -> n | None -> 0

let incr_client_locked t c =
  Hashtbl.replace t.by_client c (client_count_locked t c + 1)

let decr_client_locked t c =
  match client_count_locked t c - 1 with
  | n when n <= 0 -> Hashtbl.remove t.by_client c
  | n -> Hashtbl.replace t.by_client c n

let ticker_loop t =
  let continue_ = ref true in
  while !continue_ do
    Thread.delay tick_interval;
    Mutex.protect t.mu (fun () ->
        if t.stopped then continue_ := false
        else if t.waiting > 0 then Condition.broadcast t.cond)
  done

(* Called with [t.mu] held. *)
let ensure_ticker t =
  match t.ticker with
  | Some _ -> ()
  | None -> t.ticker <- Some (Thread.create ticker_loop t)

let now_ns () = Metrics.now_ns ()

(* Retry hint: with [waiting] statements ahead and [max_concurrent]
   servers draining the queue at the observed EWMA service time, a
   retry after roughly (queue position / servers) * service time should
   find room.  Clamped to [1, 5000] ms so a cold EWMA still gives a
   sane hint. *)
let retry_after_ms_locked t =
  let service_ms = t.ewma_service_ns /. 1e6 in
  let est =
    service_ms
    *. float_of_int (t.waiting + 1)
    /. float_of_int t.cfg.max_concurrent
  in
  max 1 (min 5000 (int_of_float (ceil est)))

let shed t reason ~detail =
  Net_stats.shed t.stats reason;
  let queue_depth, retry_after_ms =
    Mutex.protect t.mu (fun () -> (t.waiting, retry_after_ms_locked t))
  in
  Errors.overloadedf ~queue_depth ~retry_after_ms "%s" detail

let note_service t elapsed_ns =
  (* EWMA with alpha 0.2: smooth enough to survive one outlier, fresh
     enough to track a phase change within a few statements *)
  Mutex.protect t.mu (fun () ->
      t.ewma_service_ns <-
        (if t.ewma_service_ns = 0. then float_of_int elapsed_ns
         else (0.8 *. t.ewma_service_ns) +. (0.2 *. float_of_int elapsed_ns)))

let release t client =
  Mutex.protect t.mu (fun () ->
      t.running <- t.running - 1;
      (match client with Some c -> decr_client_locked t c | None -> ());
      Condition.broadcast t.cond)

(* Admit or shed, then run [f] inside the slot.  [client] is the quota
   identity: with [per_client_cap] set, a client already holding its
   fair share of slots queues behind everyone else even while the gate
   has room, and a deadline expiry in that state is shed as [Quota] —
   the typed signal that the client, not the server, is the
   bottleneck. *)
let admit ?client t f =
  let deadline =
    now_ns () + (t.cfg.admission_timeout_ms * 1_000_000)
  in
  let quota =
    match client with
    | Some c when t.cfg.per_client_cap > 0 -> Some c
    | _ -> None
  in
  let client_ok () =
    match quota with
    | None -> true
    | Some c -> client_count_locked t c < t.cfg.per_client_cap
  in
  let take_slot () =
    t.running <- t.running + 1;
    match quota with Some c -> incr_client_locked t c | None -> ()
  in
  let decision =
    Mutex.protect t.mu (fun () ->
        if t.draining then `Shed (Net_stats.Draining, "server is draining")
        else if
          t.running < t.cfg.max_concurrent && t.waiting = 0 && client_ok ()
        then begin
          take_slot ();
          `Admitted
        end
        else if t.waiting >= t.cfg.queue_depth then
          `Shed (Net_stats.Queue_full, "admission queue full")
        else begin
          t.waiting <- t.waiting + 1;
          ensure_ticker t;
          let result = ref `Wait in
          while !result = `Wait do
            if t.draining then result := `Drained
            else if t.running < t.cfg.max_concurrent && client_ok () then begin
              take_slot ();
              result := `Slot
            end
            else if now_ns () > deadline then
              result := (if client_ok () then `Deadline else `Quota)
            else Condition.wait t.cond t.mu
          done;
          t.waiting <- t.waiting - 1;
          match !result with
          | `Slot -> `Admitted
          | `Deadline ->
              `Shed (Net_stats.Deadline, "admission deadline exceeded")
          | `Quota ->
              `Shed
                ( Net_stats.Quota,
                  Printf.sprintf "client over per-client cap of %d"
                    t.cfg.per_client_cap )
          | `Drained | `Wait ->
              `Shed (Net_stats.Draining, "server is draining")
        end)
  in
  match decision with
  | `Shed (reason, detail) -> shed t reason ~detail
  | `Admitted ->
      Metrics.incr t.stats.admitted;
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () ->
          note_service t (now_ns () - t0);
          release t quota)
        f

let begin_drain t =
  Mutex.protect t.mu (fun () ->
      t.draining <- true;
      Condition.broadcast t.cond)

let draining t = Mutex.protect t.mu (fun () -> t.draining)

(* Wait (bounded) for every admitted statement to finish; queued
   waiters are flushed by [begin_drain]'s broadcast. *)
let await_idle t ~timeout_ms =
  let deadline = now_ns () + (timeout_ms * 1_000_000) in
  let rec poll () =
    if Mutex.protect t.mu (fun () -> t.running = 0 && t.waiting = 0) then true
    else if now_ns () > deadline then false
    else begin
      Thread.delay 0.002;
      poll ()
    end
  in
  poll ()

let stop t =
  Mutex.protect t.mu (fun () ->
      t.stopped <- true;
      Condition.broadcast t.cond);
  match t.ticker with Some th -> Thread.join th | None -> ()

let client_running t c = Mutex.protect t.mu (fun () -> client_count_locked t c)

