(* TCP front end over the embedded engine.

   Thread-per-connection on top of systhreads: [acceptors] threads
   block in accept and hand each connection its own thread, whose only
   jobs are framing and session state — statement execution is bounded
   by the admission controller, not by connection count, so ten
   thousand idle connections cost ten thousand blocked threads and no
   engine work.  (OCaml systhreads share one runtime lock, but
   connection threads spend their lives blocked in [read]/[write],
   which releases it; the engine's own domain pool provides the actual
   parallelism.)

   Each connection owns an [Engine.session]: its SET knobs, prepared
   handles and open transaction are invisible to its neighbors and die
   with it.

   Graceful drain ([stop]): close the listeners, shed everything queued
   or newly arriving, flip the cancellation token of every in-flight
   statement (the engine runs always-governed under a server precisely
   so that token exists), wait for them to surface their typed
   [cancelled] responses, wake readers blocked on idle connections with
   [shutdown], join every thread, flush the WAL.  Every live connection
   observes either a typed response or a clean EOF — never a hang. *)

type config = {
  host : string;
  port : int;                   (* 0 = ephemeral *)
  acceptors : int;
  max_concurrent : int;
  queue_depth : int;
  admission_timeout_ms : int;
  per_client_cap : int;         (* 0 = no per-client quota *)
  idle_timeout_ms : int;        (* 0 = no idle timeout *)
  http_port : int option;       (* health/metrics listener; 0 = ephemeral *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    acceptors = 2;
    max_concurrent = 4;
    queue_depth = 16;
    admission_timeout_ms = 100;
    per_client_cap = 0;
    idle_timeout_ms = 0;
    http_port = None;
  }

type t = {
  db : Engine.t;
  cfg : config;
  adm : Admission.t;
  stats : Net_stats.t;
  repl : Repl.hub;
  lfd : Unix.file_descr;
  port : int;
  http : (Unix.file_descr * int) option;
  mu : Mutex.t;
  conns : (int, Thread.t * Unix.file_descr) Hashtbl.t;
  mutable conn_seq : int;
  mutable acceptor_threads : Thread.t list;
  mutable http_thread : Thread.t option;
  mutable stopping : bool;
}

(* ---------- outcome -> wire ---------- *)

(* The stable error-class strings wire clients switch on: the engine's
   classes, and the wire's own protocol errors. *)
let error_class = function
  | Wire.Protocol_error _ -> "protocol"
  | e -> Errors.error_class e

let failed_of_exn e =
  Wire.Failed { cls = error_class e; message = Errors.to_string e }

let response_of_outcome (o : Engine.outcome) : Wire.response =
  match o with
  | Engine.Rows rel -> (
      (* the table must fit one frame beside its u32 row count; the
         renderer refuses a larger one before allocating it *)
      match Relation.to_string ~max_bytes:(Wire.max_frame - 4) rel with
      | body -> Wire.Rows { count = Relation.cardinality rel; body }
      | exception (Errors.Exec_error _ as e) -> failed_of_exn e)
  | Engine.Message m -> Wire.Message m
  | Engine.Explanation e -> Wire.Explanation e
  | Engine.Failed e -> failed_of_exn e

(* ---------- connection handling ---------- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec send_quietly fd resp =
  (* the peer may already be gone (EPIPE, reset); its response is moot *)
  try Wire.write_response fd resp with
  | Wire.Frame_too_large size ->
      (* refused before a byte went out: the connection is intact *)
      send_quietly fd
        (Wire.Failed
           {
             cls = "exec";
             message =
               Printf.sprintf "reply of %d bytes exceeds the %d-byte frame limit"
                 size Wire.max_frame;
           })
  | Unix.Unix_error _ | Wire.Protocol_error _ -> ()

let handle_query t sess ?client sql =
  match
    Admission.admit ?client t.adm (fun () -> Engine.exec_session sess sql)
  with
  | outcome -> response_of_outcome outcome
  | exception Errors.Overloaded o ->
      Wire.Overloaded
        {
          queue_depth = o.Errors.queue_depth;
          retry_after_ms = o.Errors.retry_after_ms;
          message = Errors.overload_to_string o;
        }
  | exception e when Errors.is_engine_error e -> failed_of_exn e

let handle_meta t sess cmd = ignore t; response_of_outcome (Meta.run sess cmd)

let repl_status_body t =
  "repl: " ^ Metrics.line (Engine.metrics t.db) [ "gapply_repl_" ]

let connection_loop t fd =
  let sess = Engine.new_session t.db in
  let client = ref None in
  if t.cfg.idle_timeout_ms > 0 then
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO
      (float_of_int t.cfg.idle_timeout_ms /. 1000.);
  (* a peer that stops reading must not wedge its connection thread
     forever (drain joins every thread); a stalled write fails with
     EAGAIN and the response is abandoned *)
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
  Fun.protect ~finally:(fun () -> Engine.close_session sess) @@ fun () ->
  let quit = ref false in
  while not !quit do
    match Wire.read_request fd with
    | None -> quit := true
    | Some Wire.Quit | Some (Wire.Meta ("\\q" | "\\quit")) ->
        send_quietly fd Wire.Goodbye;
        quit := true
    | Some (Wire.Auth token) ->
        (* the admission-quota identity for the rest of the connection *)
        client := Some token;
        send_quietly fd (Wire.Message "authenticated")
    | Some (Wire.Repl_subscribe { lineage; epoch; offset }) ->
        (* the connection stops speaking request/response and becomes a
           one-way replication stream until drain or disconnect *)
        Repl.serve t.repl fd
          ~stopping:(fun () -> Mutex.protect t.mu (fun () -> t.stopping))
          ~lineage ~epoch ~offset;
        quit := true
    | Some (Wire.Meta "\\repl") ->
        send_quietly fd (Wire.Message (repl_status_body t))
    | Some (Wire.Meta cmd) -> send_quietly fd (handle_meta t sess cmd)
    | Some (Wire.Query sql) ->
        send_quietly fd (handle_query t sess ?client:!client sql)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (* idle past the read timeout: tell the client and reap *)
        Metrics.incr t.stats.idle_timeouts;
        send_quietly fd Wire.Goodbye;
        quit := true
    | exception Wire.Protocol_error m ->
        (* a confused client gets one typed frame, then the close *)
        Metrics.incr t.stats.protocol_errors;
        send_quietly fd (Wire.Failed { cls = "protocol"; message = m });
        quit := true
    | exception Unix.Unix_error _ -> quit := true
  done

let handle_connection t id fd =
  Metrics.incr t.stats.accepted;
  Metrics.incr t.stats.active;
  Fun.protect
    ~finally:(fun () ->
      close_quietly fd;
      Mutex.protect t.mu (fun () -> Hashtbl.remove t.conns id);
      Metrics.incr t.stats.closed;
      Metrics.decr t.stats.active)
    (fun () ->
      try connection_loop t fd
      with _ ->
        (* a connection thread must never take the server down *)
        ())

let accept_loop t =
  let continue_ = ref true in
  while !continue_ do
    match Wire.accept t.lfd with
    | fd, _addr ->
        if Mutex.protect t.mu (fun () -> t.stopping) then begin
          close_quietly fd
        end
        else begin
          let id = Mutex.protect t.mu (fun () ->
              let id = t.conn_seq in
              t.conn_seq <- id + 1;
              id)
          in
          let th = Thread.create (fun () -> handle_connection t id fd) () in
          Mutex.protect t.mu (fun () -> Hashtbl.replace t.conns id (th, fd))
        end
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        (* listener closed: drain in progress *)
        continue_ := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
        (* transient accept failure (ECONNABORTED, EMFILE...) *)
        if Mutex.protect t.mu (fun () -> t.stopping) then continue_ := false
        else Thread.delay 0.01
  done

(* ---------- health / metrics listener ---------- *)

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

(* One-shot HTTP/1.0: read the request head (bounded), answer, close.
   Good enough for a scrape target and a load-balancer health probe;
   anything larger belongs behind a real proxy. *)
let handle_http t fd =
  Fun.protect ~finally:(fun () -> close_quietly fd) (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
      let buf = Bytes.create 4096 in
      let len = ref 0 in
      let head_done () =
        let s = Bytes.sub_string buf 0 !len in
        let has sub s =
          let n = String.length sub and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        has "\r\n\r\n" s || has "\n\n" s
      in
      (try
         while (not (head_done ())) && !len < Bytes.length buf do
           match Unix.read fd buf !len (Bytes.length buf - !len) with
           | 0 -> raise Exit
           | n -> len := !len + n
         done
       with
      | Exit | Unix.Unix_error _ -> ());
      let head = Bytes.sub_string buf 0 !len in
      let path =
        match String.split_on_char ' ' head with
        | _meth :: path :: _ -> path
        | _ -> ""
      in
      let resp =
        match path with
        | "/health" ->
            if Admission.draining t.adm then
              http_response ~status:"503 Service Unavailable"
                ~content_type:"text/plain" "draining\n"
            else
              http_response ~status:"200 OK" ~content_type:"text/plain" "ok\n"
        | "/metrics" ->
            http_response ~status:"200 OK"
              ~content_type:"text/plain; version=0.0.4"
              (Metrics.prometheus (Engine.metrics t.db))
        | _ ->
            http_response ~status:"404 Not Found" ~content_type:"text/plain"
              "not found\n"
      in
      try Wire.write_all fd resp with Unix.Unix_error _ -> ())

let http_loop t lfd =
  let continue_ = ref true in
  while !continue_ do
    match Unix.accept ~cloexec:true lfd with
    | fd, _ -> handle_http t fd
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        continue_ := false
    | exception Unix.Unix_error _ -> if
        Mutex.protect t.mu (fun () -> t.stopping) then continue_ := false
  done

(* ---------- lifecycle ---------- *)

let listen_on host port =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try Unix.bind fd addr
   with e ->
     close_quietly fd;
     raise e);
  Unix.listen fd 128;
  let bound =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (fd, bound)

let start cfg db =
  let stats = Net_stats.create (Engine.metrics db) in
  let adm =
    Admission.create (Engine.metrics db)
      {
        Admission.max_concurrent = cfg.max_concurrent;
        queue_depth = cfg.queue_depth;
        admission_timeout_ms = cfg.admission_timeout_ms;
        per_client_cap = cfg.per_client_cap;
      }
  in
  let repl = Repl.create_hub db in
  (* every statement must carry a cancellation token, or drain could
     not abort in-flight work with unlimited budgets *)
  Engine.set_always_governed db true;
  let lfd, port = listen_on cfg.host cfg.port in
  let http =
    match cfg.http_port with
    | None -> None
    | Some p -> Some (listen_on cfg.host p)
  in
  let t =
    {
      db;
      cfg;
      adm;
      stats;
      repl;
      lfd;
      port;
      http;
      mu = Mutex.create ();
      conns = Hashtbl.create 64;
      conn_seq = 0;
      acceptor_threads = [];
      http_thread = None;
      stopping = false;
    }
  in
  t.acceptor_threads <-
    List.init (max 1 cfg.acceptors) (fun _ -> Thread.create accept_loop t);
  (match http with
  | Some (hfd, _) -> t.http_thread <- Some (Thread.create (http_loop t) hfd)
  | None -> ());
  t

let port t = t.port
let http_port t = match t.http with Some (_, p) -> Some p | None -> None
let admission t = t.adm

let stop ?(drain_timeout_ms = 5000) t =
  let already = Mutex.protect t.mu (fun () ->
      let s = t.stopping in
      t.stopping <- true;
      s)
  in
  if not already then begin
    (* 1. no new connections, no new admissions.  Closing a listening
       fd does not wake threads already blocked in accept(2) on Linux;
       shutdown does — they fail with EINVAL and exit their loops. *)
    let kill_listener fd =
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      close_quietly fd
    in
    kill_listener t.lfd;
    (match t.http with Some (hfd, _) -> kill_listener hfd | None -> ());
    Admission.begin_drain t.adm;
    (* 2. abort in-flight statements: each surfaces a typed [cancelled]
       response on its own connection before that connection closes *)
    let cancelled = Engine.cancel_inflight t.db in
    Metrics.add t.stats.drain_cancelled cancelled;
    ignore (Admission.await_idle t.adm ~timeout_ms:drain_timeout_ms);
    (* 3. wake readers blocked on idle connections: they see EOF and
       close cleanly.  Loop: a connection accepted in the race window
       between the stopping flag and the listener close still registers
       itself, so re-snapshot until the registry is empty. *)
    let rec reap rounds =
      let live = Mutex.protect t.mu (fun () ->
          Hashtbl.fold (fun _ (th, fd) acc -> (th, fd) :: acc) t.conns [])
      in
      if live <> [] && rounds > 0 then begin
        List.iter
          (fun (_, fd) ->
            try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ())
          live;
        List.iter (fun (th, _) -> Thread.join th) live;
        reap (rounds - 1)
      end
    in
    reap 8;
    List.iter Thread.join t.acceptor_threads;
    (match t.http_thread with Some th -> Thread.join th | None -> ());
    Admission.stop t.adm;
    (* 4. nothing can write anymore: make the log durable *)
    Engine.flush_wal t.db
  end
