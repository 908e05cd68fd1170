(* An interactive SQL shell over the engine.

   Usage:
     dune exec bin/gapply_cli.exe -- [--tpch MSF] [--partition sort|hash]
                                     [--no-optimize] [--parallelism N]
                                     [-f script.sql]

   Meta-commands inside the shell:
     \q            quit
     \tables       list tables
     \stats TABLE  show table statistics
     \timing       toggle per-query timing
     \analyze      toggle EXPLAIN ANALYZE instrumentation on queries
     \cache        show plan-cache counters and occupancy
     \governor     show resource-governor counters
     \dict         show string-dictionary statistics
     \timeout MS   per-statement wall-clock budget (off = unlimited)
     \rowlimit N   per-statement output-row budget (off = unlimited)
     \memlimit B   per-statement materialization budget, bytes
     \wal          show durability counters (WAL/snapshot/recovery)
     \txn          show transaction counters and the commit timestamp
     \checkpoint   cut a snapshot and reset the WAL (needs --data-dir)
     explain Q     show plans and the rules that fired

   BEGIN / COMMIT / ROLLBACK are plain SQL statements; the prompt shows
   a '*' while a transaction is open.

   --sessions N runs the concurrent workload driver (N sessions over
   the Q1-Q4 trace, --iterations repeats each) instead of the REPL.  *)

open Cmdliner

let print_outcome timing elapsed = function
  | Engine.Rows rel -> (
      Format.print_string (Relation.to_string rel);
      if timing then Format.printf "(%.1f ms)@." (1000. *. elapsed))
  | Engine.Message m -> Format.printf "%s@." m
  | Engine.Explanation text -> Format.printf "%s" text
  | Engine.Failed e -> Format.printf "error: %s@." (Errors.to_string e)

(* With --analyze / \analyze on, plain SELECTs run under per-operator
   instrumentation: rows first, then the EXPLAIN ANALYZE report. *)
let is_plain_select src =
  match Sql_parser.parse_statement src with
  | Sql_ast.Stmt_select _ -> true
  | _ -> false
  | exception e when Errors.is_engine_error e -> false

let run_statement db ~timing ~analyze src =
  try
    let t0 = Unix.gettimeofday () in
    if analyze && is_plain_select src then begin
      let rel, report = Engine.analyze db src in
      Format.print_string (Relation.to_string rel);
      Format.printf "%s" report;
      if timing then
        Format.printf "(%.1f ms)@." (1000. *. (Unix.gettimeofday () -. t0))
    end
    else
      let outcome = Engine.exec db src in
      print_outcome timing (Unix.gettimeofday () -. t0) outcome
  with e when Errors.is_engine_error e ->
    Format.printf "error: %s@." (Errors.to_string e)

(* REPL-local toggles (\q, \timing, \analyze) stay here; everything
   else goes through the shared Meta dispatcher (also used by the
   network server), so both front ends agree on commands, knob scoping
   and typed unknown-command failures. *)
let run_meta db ~timing ~analyze cmd =
  match String.split_on_char ' ' (String.trim cmd) with
  | [ "\\q" ] | [ "\\quit" ] -> raise Exit
  | [ "\\timing" ] ->
      timing := not !timing;
      Format.printf "timing %s@." (if !timing then "on" else "off")
  | [ "\\analyze" ] ->
      analyze := not !analyze;
      Format.printf "analyze %s@." (if !analyze then "on" else "off")
  | _ -> (
      match Meta.run (Engine.session db) cmd with
      | Engine.Message m ->
          Format.printf "%s" m;
          if m = "" || m.[String.length m - 1] <> '\n' then
            Format.printf "@."
      | outcome -> print_outcome false 0. outcome)

let repl db ~analyze =
  let timing = ref false in
  let analyze = ref analyze in
  Format.printf
    "gapply engine — SQL with the SIGMOD 2003 GApply extension.@.Type \
     \\q to quit, \\tables to list tables.@.";
  let buf = Buffer.create 256 in
  try
    while true do
      print_string
        (if Buffer.length buf > 0 then "   ...> "
         else if Engine.in_transaction (Engine.session db) then "gapply*> "
         else "gapply> ");
      flush stdout;
      match input_line stdin with
      | exception End_of_file -> raise Exit
      | line ->
          let trimmed = String.trim line in
          if Buffer.length buf = 0 && String.length trimmed > 0
             && trimmed.[0] = '\\'
          then run_meta db ~timing ~analyze trimmed
          else begin
            Buffer.add_string buf line;
            Buffer.add_char buf '\n';
            if String.length trimmed > 0
               && trimmed.[String.length trimmed - 1] = ';'
            then begin
              let src = Buffer.contents buf in
              Buffer.clear buf;
              run_statement db ~timing:!timing ~analyze:!analyze src
            end
          end
    done
  with Exit -> Format.printf "bye.@."

(* --sessions: drive N concurrent sessions over the Q1-Q4 GApply trace
   (each repeated --iterations times) and print the throughput report. *)
let run_sessions db ~sessions ~iterations =
  let queries =
    List.map (fun (_, gapply, _) -> gapply) Workloads.figure8_queries
  in
  let script _ =
    List.concat (List.init iterations (fun _ -> queries))
  in
  let report = Session.run db ~sessions ~script in
  Format.printf "%a@." Session.pp_report report

let main tpch_msf partition no_optimize parallelism analyze
    sessions iterations timeout_ms row_limit mem_limit fault data_dir
    durability wal_dump script =
  (* --wal-dump is a standalone debugging mode: render the records and
     leave without touching the database *)
  (match wal_dump with
  | None -> ()
  | Some path ->
      let path =
        if (try Sys.is_directory path with Sys_error _ -> false) then
          Recovery.wal_path path
        else path
      in
      if not (Sys.file_exists path) then begin
        Format.eprintf "--wal-dump: no such file %s@." path;
        exit 2
      end;
      Wal.dump Format.std_formatter path;
      exit 0);
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
  let partition =
    match partition with
    | "sort" -> Compile.Sort_partition
    | "hash" -> Compile.Hash_partition
    | other ->
        Format.eprintf "unknown partition strategy %s (sort|hash)@." other;
        exit 2
  in
  if parallelism < 0 then begin
    Format.eprintf "--parallelism must be >= 0 (0 = auto)@.";
    exit 2
  end;
  (match fault with
  | None -> ()
  | Some spec -> (
      match Fault.parse_spec spec with
      | Some plan -> Fault.arm plan
      | None ->
          Format.eprintf
            "bad --fault spec %s (seed:<n> | <site>:<n>[:delay=<ns>])@." spec;
          exit 2));
  let db =
    try
      Engine.create ~partition ~optimize:(not no_optimize) ~parallelism
        ?timeout_ms ?row_limit ?mem_limit ?data_dir
        ?durability ()
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
  if sessions > 0 then begin
    if tpch_msf = None then Engine.load_tpch db ~msf:0.2;
    run_sessions db ~sessions ~iterations:(max 1 iterations);
    Engine.close db;
    exit 0
  end;
  (match script with
  | Some path ->
      let ic = open_in path in
      let n = in_channel_length ic in
      let src = really_input_string ic n in
      close_in ic;
      if analyze then
        List.iter
          (function
            | Ok stmt ->
                run_statement db ~timing:false ~analyze:true
                  (Sql_ast.statement_to_string stmt)
            | Error e -> print_outcome false 0. (Engine.Failed e))
          (Sql_parser.parse_script src)
      else List.iter (print_outcome false 0.) (Engine.exec_script db src)
  | None -> repl db ~analyze);
  Engine.close db

let tpch_arg =
  Arg.(value & opt (some float) None
       & info [ "tpch" ] ~docv:"MSF"
           ~doc:"Load TPC-H style data at the given micro scale factor.")

let partition_arg =
  Arg.(value & opt string "hash"
       & info [ "partition" ] ~docv:"STRATEGY"
           ~doc:"GApply partitioning strategy: sort or hash.")

let no_optimize_arg =
  Arg.(value & flag
       & info [ "no-optimize" ] ~doc:"Disable the rule-based optimizer.")

let parallelism_arg =
  Arg.(value & opt int 1
       & info [ "parallelism" ] ~docv:"N"
           ~doc:"Domains used by the GApply/Group-by partition and \
                 execution phases (1 = sequential, 0 = one per core).")

let analyze_arg =
  Arg.(value & flag
       & info [ "analyze" ]
           ~doc:"Run every SELECT under per-operator instrumentation and \
                 print its EXPLAIN ANALYZE report after the rows.")

let sessions_arg =
  Arg.(value & opt int 0
       & info [ "sessions" ] ~docv:"N"
           ~doc:"Run N concurrent sessions over the Q1-Q4 workload trace \
                 against the shared plan cache and print the throughput \
                 report (loads TPC-H data at msf 0.2 unless --tpch is \
                 given), then exit.")

let iterations_arg =
  Arg.(value & opt int 5
       & info [ "iterations" ] ~docv:"M"
           ~doc:"With --sessions: repeat the Q1-Q4 trace M times per \
                 session.")

let timeout_arg =
  Arg.(value & opt (some int) None
       & info [ "timeout" ] ~docv:"MS"
           ~doc:"Per-statement wall-clock budget in milliseconds; a \
                 statement over budget aborts with a typed timeout error.")

let row_limit_arg =
  Arg.(value & opt (some int) None
       & info [ "row-limit" ] ~docv:"N"
           ~doc:"Per-statement output-row budget.")

let mem_limit_arg =
  Arg.(value & opt (some int) None
       & info [ "mem-limit" ] ~docv:"BYTES"
           ~doc:"Per-statement materialization budget in bytes; a \
                 hash-partitioned statement over budget is retried once \
                 with sort partitioning at parallelism 1.")

let fault_arg =
  Arg.(value & opt (some string) None
       & info [ "fault" ] ~docv:"SPEC"
           ~doc:"Arm the deterministic fault-injection harness: seed:<n> \
                 or <site>:<n>[:delay=<ns>] with site one of alloc, open, \
                 next, close (same syntax as \\$(b,GAPPLY_FAULT)).")

let data_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "data-dir" ] ~docv:"DIR"
           ~doc:"Durable database directory: recovered on startup \
                 (snapshot + WAL replay), every committed DDL/DML logged \
                 from then on.  Created if missing.")

let durability_arg =
  Arg.(value & opt (some string) None
       & info [ "durability" ] ~docv:"MODE"
           ~doc:"WAL sync policy with --data-dir: off (no logging), lazy \
                 (group-commit fsync), or strict (fsync before every \
                 acknowledgement; the default).")

let wal_dump_arg =
  Arg.(value & opt (some string) None
       & info [ "wal-dump" ] ~docv:"PATH"
           ~doc:"Pretty-print the WAL at PATH (a wal.log file or a data \
                 directory) with per-record offsets and checksum status, \
                 then exit.  Tolerant of torn or corrupt logs.")

let script_arg =
  Arg.(value & opt (some file) None
       & info [ "f"; "file" ] ~docv:"SCRIPT"
           ~doc:"Execute a ';'-separated SQL script instead of the REPL.")

let cmd =
  let doc = "SQL shell for the GApply engine (SIGMOD 2003 reproduction)" in
  Cmd.v
    (Cmd.info "gapply_cli" ~doc)
    Term.(const main $ tpch_arg $ partition_arg $ no_optimize_arg
          $ parallelism_arg $ analyze_arg $ sessions_arg
          $ iterations_arg $ timeout_arg $ row_limit_arg $ mem_limit_arg
          $ fault_arg $ data_dir_arg $ durability_arg $ wal_dump_arg
          $ script_arg)

let () = exit (Cmd.eval cmd)
