(* serve and ingest: the real gapply_server binary as a child process,
   loaded over loopback from this process with at most 2 threads and 2
   connections.  The data directory is built in process from the seed,
   so the server receives only generated data.

   The traced run records client-side spans only; the layer split comes
   from replaying the recorded statement sequence, in order, against an
   in-process engine built from the same seed with the server's
   settings, after the server is gone. *)

open Workload

let msf = 0.25
let replay_op_base = 1_000_000

type instance = {
  dir : string;
  child : Child.t;
  reference : Layers.engine;
      (** the closed engine that built [dir]; still answers queries in
          memory, so it is the in-process reference *)
  conns : Layers.conn list;
}

let start_instance cfg ~tag ~events ~extra ~conns =
  let dir = Child.fresh_dir tag in
  let db = Layers.open_db ~dir ~seed:cfg.seed ~msf ~events () in
  Layers.close_db db;
  let child = Child.spawn ~data_dir:dir ~extra in
  let conns = List.init conns (fun _ -> Layers.connect child.Child.port) in
  { dir; child; reference = db; conns }

let release inst () =
  List.iter Layers.quit inst.conns;
  Child.kill inst.child;
  Child.rm_rf inst.dir

let same_rows expected got =
  match (expected, got) with
  | Layers.Rows a, Layers.Rows b -> a.count = b.count && Layers.same_table a.body b.body
  | _ -> false

let rows_and_kb replies =
  let n = float_of_int (List.length replies) in
  List.fold_left
    (fun (rows, kb) -> function
      | Layers.Rows { count; body } ->
          (rows +. float_of_int count, kb +. (float_of_int (String.length body) /. 1024.))
      | _ -> (rows, kb))
    (0., 0.) replies
  |> fun (rows, kb) -> (rows /. n, kb /. n)

let server_metrics r ?ops inst w ~cpu_s =
  cpu_metric r ?ops w ~cpu_s;
  metric r "peak_rss_mb" "MB" (Child.peak_rss_mb inst.child.Child.pid)

(** Per-layer counters of a replay: plan-cache, statistics and WAL
    deltas, and the engine's allocation per op. *)
let replay_counters r (c0 : Layers.counters) (c1 : Layers.counters) gc0 gc1
    ~reads ~commits =
  let per n x = if n = 0 then 0. else float_of_int x /. float_of_int n in
  let ops = float_of_int (reads + commits) in
  let lookups = c1.hits - c0.hits + (c1.misses - c0.misses) in
  layer r "plan_cache.hit_rate" "ratio" (per lookups (c1.hits - c0.hits));
  layer r "plan_cache.evictions_per_read" "count"
    (per reads (c1.evictions - c0.evictions));
  layer r "storage.stats_rebuilds_per_read" "count"
    (per reads (c1.stats_epoch - c0.stats_epoch));
  if commits > 0 then begin
    layer r "plan_cache.invalidations_per_commit" "count"
      (per commits (c1.invalidations - c0.invalidations));
    layer r "store.fsyncs_per_commit" "count" (per commits (c1.fsyncs - c0.fsyncs));
    layer r "store.wal_bytes_per_commit" "B"
      (per commits (c1.wal_bytes - c0.wal_bytes))
  end;
  layer r "runtime.minor_mwords_per_op" "Mwords"
    ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. ops /. 1e6);
  layer r "runtime.major_gcs_per_kop" "count"
    (1000.
    *. float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)
    /. ops)

let median_self spans name =
  match
    List.find_opt (fun row -> row.Trace.layer = name) (Trace.layer_table spans)
  with
  | Some row -> row.Trace.median_self_ms
  | None -> 0.

let served_layers =
  [
    ("engine.exec", "engine.exec_ms");
    ("net.render", "net.render_ms");
    ("net.encode", "net.encode_ms");
    ("net.decode", "net.decode_ms");
  ]

(* ---------- serve ---------- *)

(* Q1-Q4 with Q1 twice: with 5 slots per cycle the median and p99 of the
   mixed latencies fall inside one query's distribution rather than on
   the boundary between two. *)
let serve_cycle = [| 0; 1; 2; 3; 0 |]
let ladder_rates = [ 50; 100; 150; 225 ]

(** Open-loop ladder on two connections (one thread each), 5 s per step
    (shorter in short smoke windows): request i of a step is due at
    i/rate and timed from then.  A step passes when
    p95 <= 50 ms with no shed, no failure and the generator no more than
    50 ms behind at its end; max_rate_ops is the highest step reached
    with every step below it passing. *)
let ladder r cfg inst ~sql ~check =
  let step_s = Float.min 5. (cfg.seconds /. 3.) in
  let conns = Array.of_list inst.conns in
  let all_passed = ref true and max_rate = ref 0 in
  List.iter
    (fun rate ->
      let n = Int.max 2 (int_of_float (float_of_int rate *. step_s)) in
      let t0 = Metrics.now_ns () + 10_000_000 in
      let lat = Array.make n Float.infinity and lag = Array.make n 0 in
      let shed = Atomic.make 0 and bad = Atomic.make 0 in
      let worker k () =
        let i = ref k in
        while !i < n do
          let sched = t0 + (!i * 1_000_000_000 / rate) in
          Stats.sleep_until sched;
          let sent = Metrics.now_ns () in
          let reply =
            try Layers.query conns.(k) (sql !i)
            with e -> Layers.Error (Printexc.to_string e)
          in
          let t1 = Metrics.now_ns () in
          lag.(!i) <- sent - sched;
          (match reply with
          | Layers.Shed -> Atomic.incr shed
          | reply when check !i reply -> lat.(!i) <- Stats.ms_of_ns (t1 - sched)
          | _ -> Atomic.incr bad);
          i := !i + 2
        done
      in
      let th = Thread.create (worker 1) () in
      worker 0 ();
      Thread.join th;
      r.attempted <- r.attempted + n;
      r.failed <- r.failed + Atomic.get bad;
      let p95 = Stats.percentile (Array.to_list lat) 95. in
      let lag_end = Stats.ms_of_ns (Int.max lag.(n - 1) lag.(n - 2)) in
      let shed_rate = float_of_int (Atomic.get shed) /. float_of_int n in
      let pass = p95 <= 50. && Atomic.get shed = 0 && Atomic.get bad = 0 && lag_end <= 50. in
      if pass && !all_passed then max_rate := rate else all_passed := false;
      let pre = Printf.sprintf "loadgen.r%d." rate in
      layer_ms r (pre ^ "p95_ms") p95;
      layer_ms r (pre ^ "lag_ms") lag_end;
      layer r (pre ^ "shed_rate") "ratio" shed_rate;
      r.samples <- (pre ^ "p95_ms", n) :: r.samples)
    ladder_rates;
  layer r "max_rate_ops" "1/s" (float_of_int !max_rate)

(* Figure 8 Q1-Q4 over the wire, msf 0.25.  Four fixed texts against a
   128-entry plan cache: after set-up every statement is a warm hit, so
   this bypasses parse, bind, optimize and the WAL. *)
let serve r cfg =
  let queries = Array.of_list Layers.figure8 in
  let inst =
    timed_setups r cfg (fun () ->
        let inst = start_instance cfg ~tag:"serve" ~events:false ~extra:[] ~conns:1 in
        Array.iter (fun (_, s) -> ignore (Layers.query (List.hd inst.conns) s)) queries;
        (inst, release inst))
  in
  let conn = List.hd inst.conns in
  let expected = Array.map (fun (_, s) -> Layers.reference inst.reference s) queries in
  let q i = serve_cycle.(i mod Array.length serve_cycle) in
  let sql i = snd queries.(q i) in
  let same i reply = same_rows expected.(q i) reply in
  let work i = Layers.query conn (sql i) in
  Stats.run_for ~seconds:(warmup cfg) work;
  let cpu0 = Child.cpu_s inst.child.Child.pid in
  let w = Stats.closed_loop ~seconds:cfg.seconds ~on_error ~work ~check:same in
  account r w;
  latency_metrics r w;
  server_metrics r inst w ~cpu_s:(Child.cpu_s inst.child.Child.pid -. cpu0);
  if cfg.trace then begin
    (match Child.scrape inst.child "gapply_admission_ewma_service_ms" with
    | Some v -> layer_ms r "net.service_ewma_ms" v
    | None -> layer r "net.service_ewma_ms" "ms" Float.nan);
    let seq = Stats.Vec.create () in
    let tw, client_spans =
      traced (fun () ->
          Stats.closed_loop ~seconds:cfg.seconds ~on_error ~check:same ~work:(fun i ->
              Stats.Vec.push seq (q i);
              Trace.op i (fun () -> Trace.span "net.request" (fun () -> work i))))
    in
    account r tw;
    tracing_overhead r ~untraced:w ~traced:tw;
    let conn2 = Layers.connect inst.child.Child.port in
    let inst = { inst with conns = [ conn; conn2 ] } in
    ladder r cfg inst ~sql ~check:same;
    release inst ();
    (* replay the traced window's statements in process *)
    let db =
      Layers.open_db ~server_like:true ~dir:(Child.fresh_dir "replay") ~seed:cfg.seed
        ~msf ~events:false ()
    in
    let sess = Layers.session db in
    Array.iter (fun (_, s) -> ignore (Layers.replay_served sess s)) queries;
    let c0 = Layers.counters db and gc0 = Gc.quick_stat () in
    let replies, spans =
      traced (fun () ->
          List.mapi
            (fun k qi ->
              let reply =
                Trace.op (replay_op_base + k) (fun () ->
                    Layers.replay_served sess (snd queries.(qi)))
              in
              check r "replayed reply equals the reference"
                (same_rows expected.(qi) reply);
              reply)
            (Stats.Vec.to_list seq))
    in
    let c1 = Layers.counters db and gc1 = Gc.quick_stat () in
    Layers.close_db db;
    let n = List.length replies in
    replay_counters r c0 c1 gc0 gc1 ~reads:n ~commits:0;
    let rows, kb = rows_and_kb replies in
    layer r "exec.rows_per_op" "count" rows;
    layer r "net.reply_kb_per_op" "KB" kb;
    print_layer_table ~label:"client" client_spans;
    print_layer_table ~label:"replay" spans;
    span_layers r spans ~names:served_layers;
    (* the four replayed spans, scaled like every per-layer time *)
    let spans_ms =
      List.fold_left (fun a (s, _) -> a +. median_self spans s) 0. served_layers
    in
    layer r "net.unaccounted_ms" "ms"
      (Stats.percentile (Stats.lat_ms w) 50. -. (spans_ms *. !run_factor));
    r.spans <- client_spans @ spans
  end

(* ---------- ingest ---------- *)

let write_rate = 40

(** INSERT number [i] of the write stream: 4 rows, ids 4i..4i+3, with
    seeded group key k (16 values) and value v. *)
let insert_rows ~seed i =
  List.init 4 (fun j ->
      let id = (4 * i) + j in
      Printf.sprintf "(%d, %d, %d)" id
        (Hashtbl.hash (seed, id, 'k') mod 16)
        (Hashtbl.hash (seed, id, 'v') mod 1000))

let insert_sql ~seed idxs =
  "insert into events values "
  ^ String.concat ", " (List.concat_map (insert_rows ~seed) idxs)

(* Bound ranges of the four rule families (selection, exists,
   aggregate, invariant), inside the price ranges at msf 0.25 so every
   query returns a seed-dependent, non-trivial answer. *)
let bound_ranges = [| (900., 1400.); (1350., 1400.); (1144., 1155.); (900., 910.) |]

type read = { sql : string; report : bool }

(** The reader's statement stream: the events report, then one query of
    each rule family with a seeded random bound, repeated.  Report = 1
    statement in 5, so the median of the mixed latencies falls inside
    one distribution rather than between two; the bounds' spread keeps
    the plan cache overflowing. *)
let reader_stream ~seed =
  let rng = Random.State.make [| seed |] in
  let families = Array.of_list Layers.rule_families in
  let n = ref 0 in
  fun () ->
    let k = !n mod 5 in
    incr n;
    if k = 0 then { sql = Layers.events_report; report = true }
    else
      let lo, hi = bound_ranges.(k - 1) in
      let b = Float.round ((lo +. Random.State.float rng (hi -. lo)) *. 100.) /. 100. in
      { sql = (snd families.(k - 1)) b; report = false }

type write = { idx : int; sched : int; sent : int; finished : int; acked : bool }

(** Open-loop writer: one autocommit INSERT every 1/[write_rate] s,
    timed from its schedule, until [stop]. *)
let writer ~conn ~seed ~first ~stop ~log () =
  let t0 = Metrics.now_ns () in
  let k = ref 0 in
  while not (Atomic.get stop) do
    let sched = t0 + (!k * 1_000_000_000 / write_rate) in
    Stats.sleep_until sched;
    if not (Atomic.get stop) then begin
      let idx = first + !k in
      let sent = Metrics.now_ns () in
      let acked =
        match Layers.query conn (insert_sql ~seed [ idx ]) with
        | Layers.Ack _ -> true
        | _ -> false
        | exception _ -> false
      in
      log { idx; sched; sent; finished = Metrics.now_ns (); acked };
      incr k
    end
  done

type replay_op = Insert of int | Read of string

(** What one ingest window leaves for the metrics and the replay. *)
type session = {
  w : Stats.window;  (** the reader's window *)
  in_window : write list;  (** the writes scheduled inside it *)
  writes : write list;  (** every write of the session, in order *)
  reads : (int * string) list;  (** send time and text of the window's reads *)
  cpu_s : float;  (** server CPU seconds used during the window *)
  spans : Trace.span list;  (** the reader's client spans, when traced *)
}

(* The set-up's literal for each rule family: the end of its range that
   selects least.  Set-up time is the cold path's (statistics, plans);
   a large reply over the wire sometimes stalls about 40 ms, which made
   set-up time bimodal with the seed's own first literals. *)
let setup_bounds = [| 900.; 1400.; 1155.; 900. |]

(** A fresh strict-durability server with the events table, its first
    INSERT and one read of each kind done, plus the reader stream. *)
let ingest_setup cfg () =
  let inst =
    start_instance cfg ~tag:"ingest" ~events:true
      ~extra:[ "--durability"; "strict" ] ~conns:2
  in
  let rc = List.nth inst.conns 0 and wc = List.nth inst.conns 1 in
  (match Layers.query wc (insert_sql ~seed:cfg.seed [ 0 ]) with
  | Layers.Ack _ -> ()
  | _ -> failwith "set-up INSERT not acknowledged");
  ignore (Layers.query rc Layers.events_report);
  List.iteri
    (fun k (_, sql) -> ignore (Layers.query rc (sql setup_bounds.(k))))
    Layers.rule_families;
  ((inst, reader_stream ~seed:cfg.seed), release inst)

(** Start the writer, run the reader for the warm-up and one window
    (traced when [traced]), stop the writer and check every output of
    the session. *)
let ingest_session r cfg (inst, read) ~traced:tr =
  let seed = cfg.seed in
  let rconn = List.nth inst.conns 0 and wconn = List.nth inst.conns 1 in
  let writes = ref [] and wlock = Mutex.create () in
  let stop = Atomic.make false in
  let wthread =
    Thread.create
      (writer ~conn:wconn ~seed ~first:1 ~stop ~log:(fun w ->
           Mutex.protect wlock (fun () -> writes := w :: !writes)))
      ()
  in
  let stop_writer () =
    if not (Atomic.get stop) then begin
      Atomic.set stop true;
      Thread.join wthread
    end
  in
  Fun.protect ~finally:stop_writer (fun () ->
      let last_total = ref 0 in
      (* Every third ad-hoc answer of the window is re-run in process
         after it.  3 is prime to the 4 rule families, so each family is
         checked; re-running all of them would add half a window. *)
      let adhoc = ref [] and record_adhoc = ref false and adhoc_seen = ref 0 in
      let reads = ref [] in
      let work i =
        Trace.op i (fun () ->
            Trace.span "net.request" (fun () ->
                let rd = read () in
                reads := (Metrics.now_ns (), rd.sql) :: !reads;
                (rd, Layers.query rconn rd.sql)))
      in
      let check_read _ (rd, reply) =
        match reply with
        | Layers.Rows { body; _ } when rd.report ->
            let total = Layers.column_sum body ~col:0 in
            let ok = total >= !last_total in
            last_total := total;
            ok
        | Layers.Rows { count; body } ->
            if !record_adhoc then begin
              incr adhoc_seen;
              if !adhoc_seen mod 3 = 0 then
                adhoc := (rd.sql, count, Hashtbl.hash (Layers.data_rows body)) :: !adhoc
            end;
            true
        | _ -> false
      in
      Stats.run_for ~seconds:(warmup cfg) (fun i -> check_read i (work i));
      reads := [];
      let cpu0 = Child.cpu_s inst.child.Child.pid in
      record_adhoc := true;
      let window () = Stats.closed_loop ~seconds:cfg.seconds ~on_error ~work ~check:check_read in
      let w, spans = if tr then traced window else (window (), []) in
      record_adhoc := false;
      let cpu_s = Child.cpu_s inst.child.Child.pid -. cpu0 in
      stop_writer ();
      let writes = Mutex.protect wlock (fun () -> List.rev !writes) in
      let in_window =
        List.filter (fun x -> x.sched >= w.start_ns && x.sched < w.stop_ns) writes
      in
      let unacked = List.filter (fun x -> not x.acked) in
      account r w;
      r.attempted <- r.attempted + List.length in_window;
      r.failed <- r.failed + List.length (unacked in_window);
      check r "every INSERT acknowledged" (unacked writes = []);
      let acks = 1 + List.length writes - List.length (unacked writes) in
      (match Layers.query rconn Layers.events_count with
      | Layers.Rows { body; _ } ->
          check r
            (Printf.sprintf "count(*) of events = 4 x %d acknowledged INSERTs" acks)
            (Layers.column_sum body ~col:0 = 4 * acks)
      | _ -> check r "final count(*) answered" false);
      (* ad-hoc answers against the in-process reference *)
      let wrong =
        List.filter
          (fun (sql, count, hash) ->
            match Layers.reference inst.reference sql with
            | Layers.Rows ref_ ->
                ref_.count <> count || Hashtbl.hash (Layers.data_rows ref_.body) <> hash
            | _ -> true)
          !adhoc
      in
      r.failed <- r.failed + List.length wrong;
      check r
        (Printf.sprintf "%d ad-hoc answers equal the reference" (List.length !adhoc))
        (wrong = []);
      { w; in_window; writes; reads = !reads; cpu_s; spans })

(** Replay a traced session's statements, in order, on an in-process
    strict engine built from the same seed with the server's settings,
    and take the layer spans and counters from it. *)
let ingest_replay r cfg (t : session) =
  let seed = cfg.seed in
  let seq =
    List.map (fun (at, sql) -> (at, Read sql)) t.reads
    @ List.map (fun x -> (x.sent, Insert x.idx)) t.in_window
    |> List.sort compare |> List.map snd
  in
  let first_idx =
    List.fold_left (fun a x -> Int.min a x.idx) (List.length t.writes + 1) t.in_window
  in
  let db =
    Layers.open_db ~server_like:true ~dir:(Child.fresh_dir "replay") ~seed ~msf
      ~events:true ()
  in
  let wsess = Layers.session db and rsess = Layers.session db in
  (* the events table as the traced window found it *)
  let rec preload i =
    if i < first_idx then begin
      let chunk = List.init (Int.min 100 (first_idx - i)) (fun j -> i + j) in
      ignore (Layers.replay_commit wsess (insert_sql ~seed chunk));
      preload (i + 100)
    end
  in
  preload 0;
  ignore (Layers.replay_served rsess Layers.events_report);
  List.iter
    (function Read sql -> ignore (Layers.replay_served rsess sql) | Insert _ -> ())
    (List.filteri (fun i _ -> i < 10) seq);
  let c0 = Layers.counters db and gc0 = Gc.quick_stat () in
  let replies, spans =
    traced (fun () ->
        List.mapi
          (fun k op ->
            Trace.op (replay_op_base + k) (fun () ->
                match op with
                | Insert idx -> (
                    match Layers.replay_commit wsess (insert_sql ~seed [ idx ]) with
                    | Layers.Ack _ -> None
                    | _ ->
                        check r "replayed INSERT acknowledged" false;
                        None)
                | Read sql ->
                    ignore (Layers.replay_decomposed db sql);
                    Some (Layers.replay_served rsess sql)))
          seq)
  in
  let c1 = Layers.counters db and gc1 = Gc.quick_stat () in
  Layers.close_db db;
  let replies = List.filter_map Fun.id replies in
  let reads = List.length replies in
  replay_counters r c0 c1 gc0 gc1 ~reads ~commits:(List.length seq - reads);
  let rows, kb = rows_and_kb replies in
  layer r "exec.rows_per_op" "count" rows;
  layer r "net.reply_kb_per_op" "KB" kb;
  let write_spans =
    List.map
      (fun x ->
        {
          Trace.id = -1 - x.idx;
          name = "net.insert";
          op = 2 * replay_op_base + x.idx;
          parent = -1;
          start_ns = x.sent;
          stop_ns = x.finished;
          tid = 0;
        })
      t.in_window
  in
  print_layer_table ~label:"client" (t.spans @ write_spans);
  print_layer_table ~label:"replay" spans;
  span_layers r spans
    ~names:
      ([
         ("store.commit", "store.commit_ms");
         ("sql.parse", "sql.parse_ms");
         ("sql.bind", "sql.bind_ms");
         ("optimizer.optimize", "optimizer.optimize_ms");
         ("exec.compile", "exec.compile_ms");
         ("exec.run", "exec.run_ms");
       ]
      @ served_layers);
  let find name = List.find_opt (fun (m : metric) -> m.name = name) r.layers in
  (match (find "commit_p50_ms", find "store.commit_ms") with
  | Some c, Some s -> layer r "net.commit_wait_ms" "ms" (c.value -. s.value)
  | _ -> ());
  r.spans <- t.spans @ write_spans @ spans

(* msf 0.25 plus a growing events table, under strict durability.
   Connection W inserts at a fixed rate (so the table grows identically
   on both commits compared); connection R alternates the events report
   -- whose cached plan every commit invalidates -- with ad-hoc rule
   queries whose literals overflow the plan cache.  Parse, bind,
   optimize, compile, statistics rebuilds, MVCC stamps and WAL fsyncs
   all sit on the critical path.  Reads slow down as the session goes
   on, so the traced window runs on a fresh server, on the same
   timeline as the untraced one. *)
let ingest r cfg =
  let ((inst, _) as st) = timed_setups r cfg (ingest_setup cfg) in
  let s = ingest_session r cfg st ~traced:false in
  latency_metrics r s.w;
  server_metrics r inst s.w ~cpu_s:s.cpu_s ~ops:(Stats.attempted s.w + List.length s.in_window);
  if cfg.trace then begin
    let lat =
      List.map
        (fun x ->
          if x.acked then Stats.ms_of_ns (x.finished - x.sched) else Float.infinity)
        s.in_window
    in
    layer_ms r "commit_p50_ms" (Stats.percentile lat 50.);
    layer_ms r "commit_p99_ms" (Stats.percentile lat 99.);
    r.samples <- ("commit_p99_ms", List.length lat) :: r.samples;
    release inst ();
    let st, release_traced = ingest_setup cfg () in
    let t = ingest_session r cfg st ~traced:true in
    release_traced ();
    tracing_overhead r ~untraced:s.w ~traced:t.w;
    ingest_replay r cfg t
  end
