(* Network front-end suite: wire codec round-trips, admission-control
   unit behavior, and end-to-end server tests over real loopback
   sockets — typed error classes, per-connection session isolation,
   overload shedding, connection churn, a seeded mid-statement chaos
   sweep on live connections, graceful drain under load with WAL
   recovery, idle-timeout reaping, and the /health + /metrics listener.

   The live-connection chaos sweep width defaults to 24 seeds and is
   widened from the environment (GAPPLY_NET_CHAOS_SEEDS=150 in CI). *)

(* A worker writing to a socket the server has already closed must see
   EPIPE as an exception, not die of SIGPIPE. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let sweep_width default =
  match Sys.getenv_opt "GAPPLY_NET_CHAOS_SEEDS" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* Poll until [pred] holds; fail the test otherwise.  The server's
   counters are updated from its own threads, so observations need a
   grace period. *)
let await ?(timeout_ms = 5000) msg pred =
  let deadline = Unix.gettimeofday () +. (float_of_int timeout_ms /. 1000.) in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail (Printf.sprintf "timed out waiting for %s" msg)
    else begin
      Thread.yield ();
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

let tmpdir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gapply_net_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o700;
  dir

let server_cfg ?(max_concurrent = 4) ?(queue_depth = 16)
    ?(admission_timeout_ms = 200) ?(per_client_cap = 0) ?(idle_timeout_ms = 0)
    ?http () =
  {
    Server.host = "127.0.0.1";
    port = 0;
    acceptors = 2;
    max_concurrent;
    queue_depth;
    admission_timeout_ms;
    per_client_cap;
    idle_timeout_ms;
    http_port = http;
  }

let with_server ?tpch ?data_dir ?durability cfg f =
  Fault.disarm ();
  let db = Engine.create ?data_dir ?durability () in
  (match tpch with Some msf -> Engine.load_tpch db ~msf | None -> ());
  let srv = Server.start cfg db in
  let stats = Net_stats.create (Engine.metrics db) in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Server.stop ~drain_timeout_ms:3000 srv;
      Engine.close db)
    (fun () -> f db srv stats)

let with_client srv f =
  let c = Net_client.connect ~port:(Server.port srv) () in
  Fun.protect ~finally:(fun () -> Net_client.close c) (fun () -> f c)

(* A cartesian aggregate slow enough (~hundreds of ms at msf 0.2) to
   still be in flight when another statement probes the gate; the
   three-way variant runs for seconds — long enough that a drain always
   catches it mid-statement. *)
let slow_q = "select count(*) as n from lineitem l1, lineitem l2"
let very_slow_q = "select count(*) as n from lineitem l1, orders o1, orders o2"

(* ---------- wire codec ---------- *)

let all_requests =
  [ Wire.Query "select a from t"; Wire.Meta "\\cache"; Wire.Quit ]

let all_responses =
  [
    Wire.Rows { count = 3; body = "| a |\n| 1 |\n| 2 |\n| 3 |\n" };
    Wire.Rows { count = 0; body = "" };
    Wire.Message "created table t";
    Wire.Explanation "Project\n  Scan t";
    Wire.Failed { cls = "name"; message = "unknown table nope" };
    Wire.Failed { cls = ""; message = "" };
    Wire.Overloaded
      { queue_depth = 16; retry_after_ms = 250; message = "shed: queue full" };
    Wire.Goodbye;
  ]

let test_codec_round_trip () =
  List.iter
    (fun r ->
      let tag, payload = Wire.encode_request r in
      Alcotest.(check bool) "request round-trips" true
        (Wire.decode_request tag payload = r))
    all_requests;
  List.iter
    (fun r ->
      let tag, payload = Wire.encode_response r in
      Alcotest.(check bool) "response round-trips" true
        (Wire.decode_response tag payload = r))
    all_responses;
  (match Wire.decode_request 'Z' "" with
  | exception Wire.Protocol_error _ -> ()
  | _ -> Alcotest.fail "unknown request tag must be a protocol error");
  match Wire.decode_response '?' "" with
  | exception Wire.Protocol_error _ -> ()
  | _ -> Alcotest.fail "unknown response tag must be a protocol error"

let test_framed_io_round_trip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      List.iter
        (fun r ->
          Wire.write_request a r;
          match Wire.read_request b with
          | Some r' ->
              Alcotest.(check bool) "request survives the socket" true (r = r')
          | None -> Alcotest.fail "unexpected EOF")
        all_requests;
      List.iter
        (fun r ->
          Wire.write_response b r;
          match Wire.read_response a with
          | Some r' ->
              Alcotest.(check bool) "response survives the socket" true (r = r')
          | None -> Alcotest.fail "unexpected EOF")
        all_responses;
      (* a frame torn between header and payload is a protocol error,
         not a hang or a silent EOF *)
      let torn = Bytes.create 8 in
      Bytes.set torn 0 'Q';
      Bytes.set_int32_le torn 1 64l;
      ignore (Unix.write a torn 0 8);
      Unix.close a;
      (match Wire.read_request b with
      | exception Wire.Protocol_error _ -> ()
      | _ -> Alcotest.fail "mid-frame EOF must raise Protocol_error");
      (* clean EOF at a frame boundary reads as None *)
      let c, d = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.close c;
      (match Wire.read_request d with
      | None -> ()
      | _ -> Alcotest.fail "EOF at frame boundary must read as None");
      Unix.close d)

let test_oversized_frame_refused () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let body = String.make (Wire.max_frame + 1) 'x' in
      (match Wire.write_response a (Wire.Rows { count = 1; body }) with
      | () -> Alcotest.fail "a payload over max_frame must be refused"
      | exception Wire.Frame_too_large n ->
          Alcotest.(check int) "refusal names the payload size"
            (Wire.max_frame + 5) n);
      Unix.set_nonblock b;
      match Unix.read b (Bytes.create 1) 0 1 with
      | n -> Alcotest.fail (Printf.sprintf "refused frame wrote %d byte(s)" n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())

let nodelay fd = Unix.getsockopt fd Unix.TCP_NODELAY

let test_stream_sockets_nodelay () =
  (* both ends of a live loopback connection, made by the calls the
     server's acceptors and the clients use *)
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close lfd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen lfd 1;
      let port =
        match Unix.getsockname lfd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> Alcotest.fail "no port"
      in
      let client = Wire.dial ~host:"127.0.0.1" ~port in
      let server, _ = Wire.accept lfd in
      Alcotest.(check bool) "dialed end" true (nodelay client);
      Alcotest.(check bool) "accepted end" true (nodelay server);
      Unix.close client;
      Unix.close server);
  with_server (server_cfg ()) (fun _db srv _stats ->
      with_client srv (fun c ->
          Alcotest.(check bool) "Net_client connection" true
            (nodelay (Net_client.fd c))))

(* ---------- admission control ---------- *)

(* Hold an admission slot open until released; used to fill the gate
   deterministically from a helper thread. *)
let hold adm release result =
  Thread.create
    (fun () ->
      match
        Admission.admit adm (fun () ->
            while not (Atomic.get release) do
              Thread.yield ();
              Unix.sleepf 0.001
            done)
      with
      | () -> result := `Done
      | exception e -> result := `Raised e)
    ()

let test_admission_gate_queue_shed () =
  let reg = Metrics.registry () in
  let stats = Net_stats.create reg in
  let adm =
    Admission.create reg
      { Admission.max_concurrent = 1; queue_depth = 1; admission_timeout_ms = 2000;
        per_client_cap = 0 }
  in
  let release = Atomic.make false in
  let ra = ref `Pending and rb = ref `Pending in
  let ta = hold adm release ra in
  await "slot holder admitted" (fun () -> Admission.running adm = 1);
  let tb = hold adm release rb in
  await "second statement queued" (fun () -> Admission.queued adm = 1);
  (* gate full, queue full: the third statement sheds immediately with
     the typed payload *)
  (match Admission.admit adm (fun () -> ()) with
  | () -> Alcotest.fail "over-capacity admit must shed"
  | exception Errors.Overloaded info ->
      Alcotest.(check int) "shed reports queue occupancy" 1 info.Errors.queue_depth;
      Alcotest.(check bool) "retry hint is positive" true
        (info.Errors.retry_after_ms >= 1));
  Atomic.set release true;
  Thread.join ta;
  Thread.join tb;
  Alcotest.(check bool) "slot holder finished" true (!ra = `Done);
  Alcotest.(check bool) "queued statement ran after the slot freed" true
    (!rb = `Done);
  Alcotest.(check int) "two admitted" 2 (Metrics.get stats.Net_stats.admitted);
  Alcotest.(check int) "one queue-full shed" 1 (Metrics.get stats.shed_queue_full);
  Admission.begin_drain adm;
  Alcotest.(check bool) "draining" true (Admission.draining adm);
  (match Admission.admit adm (fun () -> ()) with
  | () -> Alcotest.fail "admit during drain must shed"
  | exception Errors.Overloaded _ -> ());
  Alcotest.(check bool) "idle after drain" true
    (Admission.await_idle adm ~timeout_ms:1000);
  Admission.stop adm;
  Alcotest.(check int) "drain shed counted" 1 (Metrics.get stats.shed_draining)

let test_admission_deadline_shed () =
  let reg = Metrics.registry () in
  let stats = Net_stats.create reg in
  let adm =
    Admission.create reg
      { Admission.max_concurrent = 1; queue_depth = 4; admission_timeout_ms = 30;
        per_client_cap = 0 }
  in
  let release = Atomic.make false in
  let ra = ref `Pending in
  let ta = hold adm release ra in
  await "slot holder admitted" (fun () -> Admission.running adm = 1);
  let t0 = Unix.gettimeofday () in
  (match Admission.admit adm (fun () -> ()) with
  | () -> Alcotest.fail "queued past the deadline must shed"
  | exception Errors.Overloaded _ -> ());
  let waited_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Alcotest.(check bool) "deadline actually elapsed" true (waited_ms >= 25.);
  Alcotest.(check bool) "shed promptly after the deadline" true
    (waited_ms < 2000.);
  Atomic.set release true;
  Thread.join ta;
  Alcotest.(check int) "one deadline shed" 1
    (Metrics.get stats.Net_stats.shed_deadline);
  Admission.begin_drain adm;
  Admission.stop adm

(* ---------- server round trips ---------- *)

let expect_rows msg = function
  | Wire.Rows { count; body } -> (count, body)
  | r ->
      Alcotest.fail
        (Printf.sprintf "%s: expected rows, got %s" msg
           (match r with
           | Wire.Failed { cls; message } -> "failed[" ^ cls ^ "]: " ^ message
           | Wire.Message m -> "message: " ^ m
           | Wire.Overloaded _ -> "overloaded"
           | Wire.Explanation _ -> "explanation"
           | Wire.Goodbye -> "goodbye"
           | Wire.Repl_snapshot _ -> "repl snapshot"
           | Wire.Repl_batch _ -> "repl batch"
           | Wire.Repl_heartbeat _ -> "repl heartbeat"
           | Wire.Rows _ -> assert false))

let expect_failed msg cls = function
  | Wire.Failed { cls = got; message } ->
      Alcotest.(check string) (msg ^ ": error class") cls got;
      message
  | Wire.Rows _ -> Alcotest.fail (msg ^ ": expected a typed failure, got rows")
  | Wire.Message m ->
      Alcotest.fail (msg ^ ": expected a typed failure, got message " ^ m)
  | _ -> Alcotest.fail (msg ^ ": expected a typed failure")

let test_server_round_trip () =
  with_server (server_cfg ()) (fun _db srv _stats ->
      with_client srv (fun c ->
          (match Net_client.query c "create table t (a int, b text)" with
          | Wire.Message _ -> ()
          | _ -> Alcotest.fail "DDL must confirm with a message");
          (match Net_client.query c "insert into t values (1, 'x'), (2, 'y')" with
          | Wire.Message _ -> ()
          | _ -> Alcotest.fail "DML must confirm with a message");
          let count, body =
            expect_rows "select" (Net_client.query c "select a, b from t")
          in
          Alcotest.(check int) "cardinality travels beside the body" 2 count;
          Alcotest.(check bool) "rendered body mentions the data" true
            (String.length body > 0);
          (match Net_client.query c "explain select a from t" with
          | Wire.Explanation e ->
              Alcotest.(check bool) "explanation non-empty" true
                (String.length e > 0)
          | _ -> Alcotest.fail "EXPLAIN must return an explanation frame");
          (* typed failure classes wire clients switch on *)
          ignore
            (expect_failed "unknown table" "name"
               (Net_client.query c "select z from missing"));
          ignore
            (expect_failed "garbage SQL" "parse"
               (Net_client.query c "selec nonsense from"));
          ignore
            (expect_failed "malformed SET value" "type"
               (Net_client.query c "set statement_row_limit = banana!"));
          ignore
            (expect_failed "unknown SET knob is typed" "name"
               (Net_client.query c "set wibble = 3"));
          (* meta commands run outside admission but answer in-band *)
          (match Net_client.meta c "\\cache" with
          | Wire.Message m ->
              Alcotest.(check bool) "\\cache reports" true (String.length m > 0)
          | _ -> Alcotest.fail "\\cache must answer with a message");
          ignore
            (expect_failed "unknown meta-command" "name"
               (Net_client.meta c "\\wat"));
          match Net_client.quit c with
          | Wire.Goodbye -> ()
          | _ -> Alcotest.fail "quit must answer goodbye"))

let test_server_session_isolation () =
  with_server ~tpch:0.1 (server_cfg ()) (fun _db srv _stats ->
      with_client srv (fun c1 ->
          with_client srv (fun c2 ->
              (* SET budgets are per-connection *)
              (match Net_client.query c1 "set statement_row_limit = 1" with
              | Wire.Message _ -> ()
              | _ -> Alcotest.fail "SET must confirm");
              ignore
                (expect_failed "row limit trips on the connection that set it"
                   "row limit exceeded"
                   (Net_client.query c1 "select l_orderkey from lineitem"));
              let count, _ =
                expect_rows "other connection unaffected by the knob"
                  (Net_client.query c2 "select l_orderkey from lineitem")
              in
              Alcotest.(check bool) "full result elsewhere" true (count > 1);
              (* prepared handles are per-connection *)
              (match
                 Net_client.query c1 "prepare p1 as select count(*) as n from orders"
               with
              | Wire.Message _ -> ()
              | _ -> Alcotest.fail "PREPARE must confirm");
              ignore (expect_rows "owner executes" (Net_client.query c1 "execute p1"));
              ignore
                (expect_failed "handle invisible on the other connection" "name"
                   (Net_client.query c2 "execute p1"));
              (* a timeout budget set here times out here *)
              (match Net_client.query c1 "set statement_timeout_ms = 1" with
              | Wire.Message _ -> ()
              | _ -> Alcotest.fail "SET must confirm");
              ignore
                (expect_failed "budget timeout is typed" "timeout"
                   (Net_client.query c1 slow_q));
              (* transactions are per-connection: uncommitted writes stay
                 invisible to the other session *)
              (match Net_client.query c2 "create table iso (a int)" with
              | Wire.Message _ -> ()
              | _ -> Alcotest.fail "DDL must confirm");
              (match Net_client.query c2 "begin" with
              | Wire.Message _ -> ()
              | _ -> Alcotest.fail "BEGIN must confirm");
              (match Net_client.query c2 "insert into iso values (7)" with
              | Wire.Message _ -> ()
              | _ -> Alcotest.fail "txn INSERT must confirm");
              let count, _ =
                expect_rows "uncommitted write invisible"
                  (Net_client.query c1 "select a from iso")
              in
              Alcotest.(check int) "no rows before commit" 0 count;
              (match Net_client.query c2 "commit" with
              | Wire.Message _ -> ()
              | _ -> Alcotest.fail "COMMIT must confirm");
              let count, _ =
                expect_rows "committed write visible"
                  (Net_client.query c1 "select a from iso")
              in
              Alcotest.(check int) "one row after commit" 1 count)))

let test_server_overload_shed () =
  with_server ~tpch:0.2
    (server_cfg ~max_concurrent:1 ~queue_depth:0 ~admission_timeout_ms:10 ())
    (fun db srv stats ->
      let adm = Server.admission srv in
      let busy_resp = ref None in
      let busy =
        Thread.create
          (fun () ->
            with_client srv (fun c ->
                busy_resp := Some (Net_client.query c very_slow_q)))
          ()
      in
      await "busy statement holds the execution slot" (fun () ->
          Admission.running adm = 1);
      with_client srv (fun probe ->
          (* gate full, queue zero: the probe sheds with the typed frame *)
          (match Net_client.query probe "select count(*) as n from orders" with
          | Wire.Overloaded { queue_depth; retry_after_ms; _ } ->
              Alcotest.(check bool) "retry hint positive" true
                (retry_after_ms >= 1);
              Alcotest.(check bool) "queue occupancy reported" true
                (queue_depth >= 0)
          | r ->
              ignore (expect_rows "unexpected frame" r);
              Alcotest.fail "probe above capacity must be shed");
          (* the shed connection itself stays healthy: cancel the hog and
             the same probe connection is served *)
          let cancelled = Engine.cancel_inflight db in
          Alcotest.(check bool) "one in-flight statement cancelled" true
            (cancelled >= 1);
          Thread.join busy;
          (match !busy_resp with
          | Some (Wire.Failed { cls; _ }) ->
              Alcotest.(check string) "hog surfaced the typed cancellation"
                "cancelled" cls
          | Some _ -> Alcotest.fail "hog must fail with the cancellation"
          | None -> Alcotest.fail "hog never answered");
          await "slot released" (fun () -> Admission.running adm = 0);
          let count, _ =
            expect_rows "below capacity the probe is admitted"
              (Net_client.query probe "select count(*) as n from orders")
          in
          Alcotest.(check int) "probe result" 1 count);
      Alcotest.(check bool) "sheds counted" true
        (List.exists
           (fun c -> Metrics.get c >= 1)
           [ stats.Net_stats.shed_queue_full; stats.shed_deadline; stats.shed_quota ]);
      Alcotest.(check bool) "admissions counted" true
        (Metrics.get stats.Net_stats.admitted >= 2))

let test_server_connection_churn () =
  with_server (server_cfg ()) (fun db srv stats ->
      (match Engine.exec db "create table churn (a int)" with
      | Engine.Message _ -> ()
      | _ -> Alcotest.fail "setup DDL failed");
      let rounds = 40 in
      for i = 1 to rounds do
        let c = Net_client.connect ~port:(Server.port srv) () in
        (match
           Net_client.query c "prepare ph as select a from churn"
         with
        | Wire.Message _ -> ()
        | _ -> Alcotest.fail "churn PREPARE failed");
        (match Net_client.query c "begin" with
        | Wire.Message _ -> ()
        | _ -> Alcotest.fail "churn BEGIN failed");
        (match
           Net_client.query c (Printf.sprintf "insert into churn values (%d)" i)
         with
        | Wire.Message _ -> ()
        | _ -> Alcotest.fail "churn INSERT failed");
        (* half the connections quit politely, half vanish mid-session
           with a transaction open and a handle live *)
        if i mod 2 = 0 then ignore (Net_client.quit c) else Net_client.close c
      done;
      await "every churned connection reaped" (fun () ->
          Metrics.get stats.Net_stats.active = 0);
      Support.check_conservation "churned connections and transactions balance" db;
      Alcotest.(check int) "abandoned transactions rolled back" 0
        (Metrics.read (Engine.metrics db) "gapply_txn_open");
      Alcotest.(check bool) "all connections accounted" true
        (Metrics.get stats.accepted >= rounds);
      Alcotest.(check int) "no in-flight statements leak" 0
        (Engine.inflight_count db);
      (* abandoned transactions rolled back with their sessions: none of
         the uncommitted inserts is visible, and handles died too *)
      with_client srv (fun c ->
          let count, _ =
            expect_rows "post-churn query"
              (Net_client.query c "select a from churn")
          in
          Alcotest.(check int) "abandoned txns left no rows" 0 count;
          ignore
            (expect_failed "prepared handles died with their sessions" "name"
               (Net_client.query c "execute ph"))))

(* ---------- live-connection chaos ---------- *)

let frame tag payload =
  let n = String.length payload in
  let b = Bytes.create (5 + n) in
  Bytes.set b 0 tag;
  Bytes.set_int32_le b 1 (Int32.of_int n);
  Bytes.blit_string payload 0 b 5 n;
  Bytes.to_string b

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* Tear a connection mid-frame: promise 64 payload bytes, deliver 3,
   close.  The server must type it as a protocol error and move on. *)
let tear_mid_frame port =
  let fd = raw_connect port in
  let junk = String.sub (frame 'Q' (String.make 64 'x')) 0 8 in
  ignore (Unix.write_substring fd junk 0 (String.length junk));
  Unix.close fd

(* An unknown tag gets a typed protocol failure back, then the server
   closes the connection. *)
let poke_unknown_tag port =
  let fd = raw_connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let f = frame 'Z' "" in
      ignore (Unix.write_substring fd f 0 (String.length f));
      match Wire.read_response fd with
      | Some (Wire.Failed { cls; _ }) ->
          Alcotest.(check string) "unknown tag is a protocol failure" "protocol"
            cls
      | Some _ -> Alcotest.fail "unknown tag: expected a typed failure"
      | None -> Alcotest.fail "unknown tag: server closed without answering")

let test_server_chaos_sweep () =
  let seeds = sweep_width 24 in
  with_server ~tpch:0.2 (server_cfg ()) (fun _db srv stats ->
      let queries =
        List.map (fun (_, q, _) -> q) Workloads.figure8_queries
      in
      let nq = List.length queries in
      with_client srv (fun c ->
          (* clean references; every recovery check below compares
             against these rendered bodies *)
          let references =
            List.map
              (fun q -> snd (expect_rows "reference" (Net_client.query c q)))
              queries
          in
          let fired = ref 0 and survived = ref 0 and torn = ref 0 in
          for seed = 1 to seeds do
            let q = List.nth queries (seed mod nq) in
            let reference = List.nth references (seed mod nq) in
            Fault.arm (Fault.plan_of_seed seed);
            (match Net_client.query c q with
            | Wire.Rows { body; _ } ->
                incr survived;
                Alcotest.(check string)
                  (Printf.sprintf "seed %d: surviving run is correct" seed)
                  reference body
            | Wire.Failed { cls; _ } ->
                incr fired;
                Alcotest.(check string)
                  (Printf.sprintf "seed %d: failure is the injected fault" seed)
                  "injected fault" cls
            | _ ->
                Alcotest.fail
                  (Printf.sprintf "seed %d: neither rows nor typed fault" seed));
            Fault.disarm ();
            (* the connection survives the fault: an immediate clean
               re-run on the same session is reference-identical *)
            let _, body =
              expect_rows
                (Printf.sprintf "seed %d: clean re-run" seed)
                (Net_client.query c q)
            in
            Alcotest.(check string)
              (Printf.sprintf "seed %d: post-fault run is correct" seed)
              reference body;
            (* interleave malformed peers so protocol chaos lands while
               the engine is hot *)
            if seed mod 8 = 3 then begin
              tear_mid_frame (Server.port srv);
              incr torn
            end;
            if seed mod 8 = 7 then poke_unknown_tag (Server.port srv)
          done;
          Alcotest.(check bool) "sweep injected at least one fault" true
            (!fired + !survived = seeds);
          await "torn connections typed and reaped" (fun () ->
              Metrics.get stats.Net_stats.protocol_errors >= !torn);
          (* the server is still fully live after the sweep *)
          let q0 = List.nth queries 0 and ref0 = List.nth references 0 in
          let _, body = expect_rows "post-sweep" (Net_client.query c q0) in
          Alcotest.(check string) "post-sweep run is correct" ref0 body))

(* ---------- graceful drain under load ---------- *)

let test_server_drain_under_load () =
  let dir = tmpdir () in
  Fault.disarm ();
  let db = Engine.create ~data_dir:dir ~durability:Store.Strict () in
  Engine.load_tpch db ~msf:0.2;
  let srv = Server.start (server_cfg ()) db in
  let stats = Net_stats.create (Engine.metrics db) in
  let port = Server.port srv in
  (* durable write before the drain; it must survive recovery *)
  with_client srv (fun c ->
      (match Net_client.query c "create table d (a int)" with
      | Wire.Message _ -> ()
      | _ -> Alcotest.fail "DDL failed");
      match Net_client.query c "insert into d values (42)" with
      | Wire.Message _ -> ()
      | _ -> Alcotest.fail "INSERT failed");
  (* a statement in flight and an idle reader, both alive at drain time *)
  let busy_outcome = ref `Pending in
  let busy =
    Thread.create
      (fun () ->
        let c = Net_client.connect ~port () in
        (match Net_client.query c very_slow_q with
        | Wire.Failed { cls; _ } -> busy_outcome := `Failed cls
        | Wire.Rows _ -> busy_outcome := `Rows
        | _ -> busy_outcome := `Other
        | exception End_of_file -> busy_outcome := `Eof
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            busy_outcome := `Eof);
        Net_client.close c)
      ()
  in
  let idle = Net_client.connect ~port () in
  await "busy statement admitted" (fun () ->
      Admission.running (Server.admission srv) = 1);
  Server.stop ~drain_timeout_ms:5000 srv;
  Thread.join busy;
  (* the in-flight statement surfaced a typed cancellation (or at worst
     a clean close) — never a hang *)
  (match !busy_outcome with
  | `Failed cls ->
      Alcotest.(check string) "in-flight statement cancelled" "cancelled" cls
  | `Eof -> ()
  | `Rows -> Alcotest.fail "slow statement finished before the drain"
  | `Pending | `Other -> Alcotest.fail "in-flight statement not typed");
  Alcotest.(check bool) "drain cancellation counted" true
    (Metrics.get stats.Net_stats.drain_cancelled >= 1);
  (* the idle connection was woken and closed, not leaked *)
  (match Net_client.query idle "select 1 + 1 as two" with
  | Wire.Goodbye -> ()
  | _ -> Alcotest.fail "idle connection must be closed by the drain"
  | exception End_of_file -> ()
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  Net_client.close idle;
  (* nothing listens any more *)
  (match Net_client.connect ~port () with
  | c -> (
      (* a lingering accept queue entry may connect; it must see EOF *)
      match Net_client.query c "select 1 + 1 as two" with
      | _ -> Alcotest.fail "server still serving after stop"
      | exception End_of_file -> Net_client.close c
      | exception Unix.Unix_error _ -> Net_client.close c)
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ());
  Engine.close db;
  (* the WAL recovers: the committed write is there, the cancelled
     statement left nothing behind *)
  let db2 = Engine.create ~data_dir:dir () in
  (match Engine.exec db2 "select a from d" with
  | Engine.Rows rel ->
      Alcotest.(check int) "durable row recovered" 1 (Relation.cardinality rel)
  | _ -> Alcotest.fail "recovery lost the committed write");
  Engine.close db2

(* ---------- idle timeout and observability ---------- *)

let test_server_idle_timeout () =
  with_server (server_cfg ~idle_timeout_ms:80 ()) (fun db srv stats ->
      ignore (Engine.exec db "create table ping (a int)");
      ignore (Engine.exec db "insert into ping values (1)");
      let c = Net_client.connect ~port:(Server.port srv) () in
      Unix.sleepf 0.4;
      (match Net_client.query c "select a from ping" with
      | Wire.Goodbye -> ()
      | _ -> Alcotest.fail "idle connection must have been reaped"
      | exception End_of_file -> ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      Net_client.close c;
      await "idle timeout counted" (fun () ->
          Metrics.get stats.Net_stats.idle_timeouts >= 1);
      (* a fresh, active connection is unaffected *)
      with_client srv (fun c2 ->
          ignore
            (expect_rows "active connection served"
               (Net_client.query c2 "select a from ping"))))

let http_get port path =
  let fd = raw_connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ();
      Buffer.contents buf)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The /metrics body as Prometheus text: every sample is
   [name value] or [name{label="v"} value]; each family has exactly one
   HELP and one TYPE line, both before its samples; no series repeats;
   and every family the engine registered is exported. *)
let check_prometheus db response =
  let body =
    match String.index_opt response '#' with
    | Some i -> String.sub response i (String.length response - i)
    | None -> Alcotest.fail "no metric families in /metrics"
  in
  let help = Hashtbl.create 64 and typ = Hashtbl.create 64 in
  let seen = Hashtbl.create 128 in
  let bump h k = Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)) in
  let sample key value =
    let name =
      match String.index_opt key '{' with
      | None -> key
      | Some i ->
          let lbl = String.sub key i (String.length key - i) in
          let n = String.length lbl in
          (match String.index_opt lbl '=' with
          | Some j when j > 1 && n > j + 3 && lbl.[j + 1] = '"' && String.sub lbl (n - 2) 2 = "\"}"
                        && not (String.contains (String.sub lbl (j + 2) (n - j - 4)) '"') -> ()
          | _ -> Alcotest.failf "malformed label set %S" lbl);
          String.sub key 0 i
    in
    Alcotest.(check bool) (key ^ " value is a number") true (float_of_string_opt value <> None);
    Alcotest.(check bool) (name ^ " declared before its samples") true
      (Hashtbl.mem help name && Hashtbl.mem typ name);
    Alcotest.(check bool) (key ^ " appears once") false (Hashtbl.mem seen key);
    Hashtbl.add seen key ()
  in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | "#" :: "HELP" :: name :: _ :: _ -> bump help name
      | [ "#"; "TYPE"; name; ("counter" | "gauge") ] -> bump typ name
      | [ key; value ] -> sample key value
      | _ -> Alcotest.failf "malformed /metrics line %S" line)
    (List.filter (( <> ) "") (String.split_on_char '\n' body));
  Hashtbl.iter (fun n c -> Alcotest.(check int) (n ^ ": one HELP") 1 c) help;
  Hashtbl.iter (fun n c -> Alcotest.(check int) (n ^ ": one TYPE") 1 c) typ;
  let names = Metrics.names (Engine.metrics db) in
  List.iter (fun n -> Alcotest.(check bool) (n ^ " exported") true (Hashtbl.mem help n)) names;
  List.iter
    (fun prefix ->
      Alcotest.(check bool) (prefix ^ "* registered") true
        (List.exists (starts_with ~prefix) names))
    [
      "gapply_plan_cache_"; "gapply_governor_"; "gapply_txn_"; "gapply_wal_";
      "gapply_dict_"; "gapply_connections_"; "gapply_statements_";
      "gapply_admission_"; "gapply_repl_";
    ];
  (* the open-loop benchmark scrapes this gauge as a bare two-token line *)
  Alcotest.(check bool) "EWMA gauge is an unlabelled name-value line" true
    (Hashtbl.mem seen "gapply_admission_ewma_service_ms")

let test_server_health_and_metrics () =
  with_server (server_cfg ~http:0 ()) (fun db srv _stats ->
      ignore (Engine.exec db "create table ping (a int)");
      ignore (Engine.exec db "insert into ping values (1)");
      let hp =
        match Server.http_port srv with
        | Some p -> p
        | None -> Alcotest.fail "http listener not started"
      in
      with_client srv (fun c ->
          ignore (expect_rows "warm-up" (Net_client.query c "select a from ping")));
      let health = http_get hp "/health" in
      Alcotest.(check bool) "/health is 200" true (contains health "200");
      Alcotest.(check bool) "/health body ok" true (contains health "ok");
      check_prometheus db (http_get hp "/metrics");
      let missing = http_get hp "/nope" in
      Alcotest.(check bool) "unknown path is 404" true (contains missing "404"))

let test_server_oversized_reply () =
  with_server (server_cfg ()) (fun _db srv _stats ->
      with_client srv (fun c ->
          let ack sql =
            match Net_client.query c sql with
            | Wire.Message _ -> ()
            | _ -> Alcotest.fail ("expected an acknowledgement: " ^ String.sub sql 0 20)
          in
          ack "create table big (s text)";
          (* one 1 MiB cell pads its whole column: 71 rows render to
             about 71 MiB, past the 64 MiB frame limit *)
          ack (Printf.sprintf "insert into big values ('%s')" (String.make (1 lsl 20) 'x'));
          ack
            ("insert into big values "
            ^ String.concat ", " (List.init 70 (fun _ -> "('y')")));
          let message =
            expect_failed "oversized reply" "exec"
              (Net_client.query c "select s from big")
          in
          Alcotest.(check bool) "message names the limit" true
            (contains message (string_of_int (Wire.max_frame - 4)));
          let count, _ =
            expect_rows "the connection still serves"
              (Net_client.query c "select count(*) as n from big")
          in
          Alcotest.(check int) "one row" 1 count))

let suite =
  [
    Alcotest.test_case "wire: codec round-trips every frame shape" `Quick
      test_codec_round_trip;
    Alcotest.test_case "wire: framed io round-trips; torn frames are typed"
      `Quick test_framed_io_round_trip;
    Alcotest.test_case "wire: an oversized frame is refused unwritten" `Quick
      test_oversized_frame_refused;
    Alcotest.test_case "wire: stream sockets set TCP_NODELAY" `Quick
      test_stream_sockets_nodelay;
    Alcotest.test_case "server: an oversized reply fails typed, connection open"
      `Quick test_server_oversized_reply;
    Alcotest.test_case "admission: gate and bounded queue shed beyond capacity"
      `Quick test_admission_gate_queue_shed;
    Alcotest.test_case "admission: queue deadline sheds promptly" `Quick
      test_admission_deadline_shed;
    Alcotest.test_case "server: round-trip rows, meta, typed error classes"
      `Quick test_server_round_trip;
    Alcotest.test_case
      "server: SET, PREPARE and transactions are per-connection" `Quick
      test_server_session_isolation;
    Alcotest.test_case "server: overload sheds typed, cancel frees the gate"
      `Quick test_server_overload_shed;
    Alcotest.test_case "server: connection churn leaks nothing" `Quick
      test_server_connection_churn;
    Alcotest.test_case
      "server: seeded chaos mid-statement never hangs a connection" `Quick
      test_server_chaos_sweep;
    Alcotest.test_case "server: graceful drain under load, WAL recovers" `Quick
      test_server_drain_under_load;
    Alcotest.test_case "server: idle connections are reaped" `Quick
      test_server_idle_timeout;
    Alcotest.test_case "server: /health and /metrics respond" `Quick
      test_server_health_and_metrics;
  ]
