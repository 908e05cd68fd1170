(* Network server over the engine: the wire protocol on --listen, an
   optional /health + /metrics HTTP listener, admission control in
   front of statement execution, and a graceful drain on SIGTERM /
   SIGINT.

   Usage:
     dune exec bin/gapply_server.exe -- \
       [--listen HOST:PORT] [--http-port PORT] [--acceptors N]
       [--max-concurrent N] [--queue-depth N] [--admission-timeout-ms MS]
       [--per-client-cap N] [--idle-timeout-ms MS] [--drain-timeout-ms MS]
       [--replica-of HOST:PORT] [--tpch MSF] [--data-dir DIR]
       [--durability MODE] [--timeout MS] [--row-limit N]
       [--mem-limit BYTES] [--parallelism N]

   The bound port is announced on stdout as "listening on PORT" (an
   ephemeral --listen HOST:0 resolves here — the CI smoke test and the
   bench driver parse this line).

   With --replica-of the node serves reads while continuously applying
   the primary's WAL stream; writes are refused with a typed read-only
   redirect naming the primary.  SIGUSR1 promotes it in place: the
   applier stops at its durable mark and the engine starts accepting
   writes. *)

open Cmdliner

let parse_listen s =
  match String.rindex_opt s ':' with
  | None -> (
      match int_of_string_opt s with
      | Some p when p >= 0 -> Some ("127.0.0.1", p)
      | _ -> None)
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 -> Some ((if host = "" then "127.0.0.1" else host), p)
      | _ -> None)

let main listen http_port acceptors max_concurrent queue_depth
    admission_timeout_ms per_client_cap idle_timeout_ms drain_timeout_ms
    replica_of tpch_msf data_dir durability timeout_ms row_limit mem_limit
    parallelism =
  let host, port =
    match parse_listen listen with
    | Some hp -> hp
    | None ->
        Format.eprintf "bad --listen %s (HOST:PORT or PORT)@." listen;
        exit 2
  in
  let replica_target =
    match replica_of with
    | None -> None
    | Some s -> (
        match parse_listen s with
        | Some hp -> Some hp
        | None ->
            Format.eprintf "bad --replica-of %s (HOST:PORT)@." s;
            exit 2)
  in
  if replica_target <> None && data_dir = None then begin
    Format.eprintf "--replica-of requires --data-dir@.";
    exit 2
  end;
  if replica_target <> None && tpch_msf <> None then begin
    Format.eprintf "--tpch conflicts with --replica-of (a replica only \
                    writes what the primary ships)@.";
    exit 2
  end;
  let durability =
    match durability with
    | None -> None
    | Some s -> (
        match Store.durability_of_string s with
        | Some d -> Some d
        | None ->
            Format.eprintf "unknown durability mode %s (off|lazy|strict)@." s;
            exit 2)
  in
  if max_concurrent < 1 then begin
    Format.eprintf "--max-concurrent must be >= 1@.";
    exit 2
  end;
  if queue_depth < 0 then begin
    Format.eprintf "--queue-depth must be >= 0@.";
    exit 2
  end;
  (* Every OCaml-level handler needs a thread executing OCaml code to
     run, and a quiet server has all of its threads parked in blocking
     syscalls — a Sys.Signal_handle would sit undelivered.  So: block
     the shutdown signals process-wide before any thread is spawned
     (children inherit the mask) and receive them synchronously with
     Thread.wait_signal below. *)
  ignore
    (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint; Sys.sigusr1 ]);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let db =
    try
      Engine.create ~parallelism ?timeout_ms ?row_limit
        ?mem_limit ?data_dir ?durability ()
    with Errors.Recovery_error _ as e ->
      Format.eprintf "recovery failed: %s@." (Errors.to_string e);
      exit 1
  in
  (match Engine.recovery_outcome db with
  | Some o
    when o.Recovery.snapshot_loaded || o.Recovery.replayed > 0
         || o.Recovery.quarantined <> None ->
      Format.printf "%s@." (Recovery.outcome_to_string o)
  | _ -> ());
  (match tpch_msf with
  | Some msf ->
      Engine.load_tpch db ~msf;
      Format.printf "loaded TPC-H micro data at msf %g@." msf
  | None -> ());
  (* One stats instance shared by the applier and the server's hub, so
     \repl and /metrics on a replica node show the apply counters. *)
  let repl_stats = Repl_stats.create () in
  let replica =
    ref
      (match replica_target with
      | None -> None
      | Some (rhost, rport) ->
          let r =
            Repl.start_replica ~stats:repl_stats ~host:rhost ~port:rport db
          in
          Format.printf "replicating from %s:%d (reads served here, \
                         writes redirected)@."
            rhost rport;
          Some r)
  in
  let cfg =
    {
      Server.host;
      port;
      acceptors;
      max_concurrent;
      queue_depth;
      admission_timeout_ms;
      per_client_cap;
      idle_timeout_ms;
      http_port;
    }
  in
  let srv =
    try Server.start ~repl_stats cfg db
    with Unix.Unix_error (e, _, _) ->
      Format.eprintf "cannot listen on %s:%d: %s@." host port
        (Unix.error_message e);
      exit 1
  in
  Format.printf "listening on %d@." (Server.port srv);
  (match Server.http_port srv with
  | Some p -> Format.printf "metrics on %d@." p
  | None -> ());
  Format.print_flush ();
  (* SIGUSR1 promotes a replica in place and keeps serving; SIGTERM /
     SIGINT drain and exit. *)
  let rec wait_loop () =
    let signal =
      Thread.wait_signal [ Sys.sigterm; Sys.sigint; Sys.sigusr1 ]
    in
    if signal = Sys.sigusr1 then begin
      (match !replica with
      | Some r ->
          Repl.promote r;
          replica := None;
          Format.printf "promoted: now accepting writes as a primary@.";
          Format.print_flush ()
      | None -> ());
      wait_loop ()
    end
  in
  wait_loop ();
  Format.printf "draining...@.";
  (match !replica with
  | Some r ->
      Format.printf "replica %s@." (Repl.status r);
      Repl.stop_replica r
  | None -> ());
  Server.stop ~drain_timeout_ms srv;
  Engine.close db;
  Format.printf "%a@." Net_stats.pp (Net_stats.snapshot (Server.stats srv));
  Format.printf "bye.@."

let listen_arg =
  Arg.(value & opt string "127.0.0.1:0"
       & info [ "listen" ] ~docv:"HOST:PORT"
           ~doc:"Address to serve the wire protocol on; port 0 picks an \
                 ephemeral port, announced on stdout as \"listening on \
                 PORT\".")

let http_port_arg =
  Arg.(value & opt (some int) None
       & info [ "http-port" ] ~docv:"PORT"
           ~doc:"Serve GET /health and GET /metrics (Prometheus text \
                 format) on this port (0 = ephemeral).  Off by default.")

let acceptors_arg =
  Arg.(value & opt int 2
       & info [ "acceptors" ] ~docv:"N"
           ~doc:"Threads blocking in accept(2).")

let max_concurrent_arg =
  Arg.(value & opt int 4
       & info [ "max-concurrent" ] ~docv:"N"
           ~doc:"Statements executing at once; further statements queue \
                 and then shed.")

let queue_depth_arg =
  Arg.(value & opt int 16
       & info [ "queue-depth" ] ~docv:"N"
           ~doc:"Bounded admission queue behind the concurrency gate; a \
                 statement arriving when the queue is full is shed \
                 immediately with a typed overloaded response.")

let admission_timeout_arg =
  Arg.(value & opt int 100
       & info [ "admission-timeout-ms" ] ~docv:"MS"
           ~doc:"Maximum time a statement may wait in the admission \
                 queue before being shed.")

let per_client_cap_arg =
  Arg.(value & opt int 0
       & info [ "per-client-cap" ] ~docv:"N"
           ~doc:"Maximum admission slots one authenticated client may \
                 hold at once (0 = no quota).  Over-cap statements \
                 queue and are shed with a typed quota reason at the \
                 admission deadline.")

let replica_of_arg =
  Arg.(value & opt (some string) None
       & info [ "replica-of" ] ~docv:"HOST:PORT"
           ~doc:"Run as a read-serving replica of the given primary: \
                 continuously apply its WAL stream, refuse writes with \
                 a typed redirect, promote on SIGUSR1.  Requires \
                 --data-dir.")

let idle_timeout_arg =
  Arg.(value & opt int 0
       & info [ "idle-timeout-ms" ] ~docv:"MS"
           ~doc:"Close connections silent for this long (0 = never).")

let drain_timeout_arg =
  Arg.(value & opt int 5000
       & info [ "drain-timeout-ms" ] ~docv:"MS"
           ~doc:"On SIGTERM/SIGINT: bound on waiting for in-flight \
                 statements to surface their cancelled responses.")

let tpch_arg =
  Arg.(value & opt (some float) None
       & info [ "tpch" ] ~docv:"MSF"
           ~doc:"Load TPC-H style data at the given micro scale factor \
                 before serving.")

let data_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "data-dir" ] ~docv:"DIR"
           ~doc:"Durable database directory (recovered on startup, WAL \
                 from then on; flushed during drain).")

let durability_arg =
  Arg.(value & opt (some string) None
       & info [ "durability" ] ~docv:"MODE"
           ~doc:"WAL sync policy with --data-dir: off, lazy, or strict.")

let timeout_arg =
  Arg.(value & opt (some int) None
       & info [ "timeout" ] ~docv:"MS"
           ~doc:"Default per-statement wall-clock budget; connections \
                 can override their own with SET statement_timeout_ms.")

let row_limit_arg =
  Arg.(value & opt (some int) None
       & info [ "row-limit" ] ~docv:"N"
           ~doc:"Default per-statement output-row budget.")

let mem_limit_arg =
  Arg.(value & opt (some int) None
       & info [ "mem-limit" ] ~docv:"BYTES"
           ~doc:"Default per-statement materialization budget.")

let parallelism_arg =
  Arg.(value & opt int 1
       & info [ "parallelism" ] ~docv:"N"
           ~doc:"Engine domains for partitioned execution (0 = one per \
                 core).")

let cmd =
  let doc = "network server for the GApply engine (wire protocol + \
             admission control)" in
  Cmd.v
    (Cmd.info "gapply_server" ~doc)
    Term.(const main $ listen_arg $ http_port_arg $ acceptors_arg
          $ max_concurrent_arg $ queue_depth_arg $ admission_timeout_arg
          $ per_client_cap_arg $ idle_timeout_arg $ drain_timeout_arg
          $ replica_of_arg $ tpch_arg $ data_dir_arg
          $ durability_arg $ timeout_arg $ row_limit_arg $ mem_limit_arg
          $ parallelism_arg)

let () = exit (Cmd.eval cmd)
