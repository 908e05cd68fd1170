(* Repository benchmark: four named workloads over the engine's public
   surfaces -- the embedded publishing API and the gapply_server binary
   over loopback.

   Usage:
     dune exec perf/main.exe -- [--workload W]... [--seed N] [--seconds S]
       [--trace 0|1] [--trace-out FILE] [--setups N] [--json FILE]

   Workloads: publish, publish_deep, serve, ingest (default: all).
   Each run checks every output, then prints one line per metric as
   "workload metric value unit" and, last, one JSON record per
   workload.  With --trace 1 the workload also runs a traced window
   and the record carries the per-layer metrics instead of the
   end-to-end ones; --trace-out writes the spans as Chrome trace-event
   JSON.  perf/run.py wraps this for BENCHMARK.json; perf/README.md
   describes the workloads and metrics. *)

let workloads =
  [
    ("publish", Embedded.publish);
    ("publish_deep", Embedded.publish_deep);
    ("serve", Served.serve);
    ("ingest", Served.ingest);
  ]

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_metrics ms =
  "{"
  ^ String.concat ","
      (List.map
         (fun (m : Workload.metric) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name
             (json_float m.value) m.unit)
         ms)
  ^ "}"

let report ~name ~(cfg : Workload.cfg) (r : Workload.result) =
  let correct = r.failed = 0 && r.check_failures = [] in
  if cfg.trace then
    Workload.layer r "error_rate" "ratio"
      (float_of_int r.failed /. float_of_int (Int.max 1 r.attempted));
  let line (m : Workload.metric) =
    let n =
      match List.assoc_opt m.name r.samples with
      | Some n -> Printf.sprintf "  (n=%d)" n
      | None -> ""
    in
    let raw =
      if Float.is_nan m.raw then "" else Printf.sprintf "  (raw %s)" (json_float m.raw)
    in
    Printf.printf "%s %s %s %s%s%s\n" name m.name (json_float m.value) m.unit raw n
  in
  List.iter line r.metrics;
  List.iter line r.layers;
  let ms = if cfg.trace then r.layers else r.metrics in
  Printf.sprintf
    "{\"workload\":%S,\"seed\":%d,\"seconds\":%s,\"trace\":%d,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s,\"raw\":%s}"
    name cfg.seed (json_float cfg.seconds)
    (if cfg.trace then 1 else 0)
    correct r.attempted r.failed (json_metrics ms)
    (json_metrics
       (List.filter_map
          (fun (m : Workload.metric) ->
            if Float.is_nan m.raw then None else Some { m with value = m.raw })
          ms))

let () =
  let names = ref [] and seed = ref 1 and seconds = ref 15. in
  let trace = ref 0 and trace_out = ref "" and setups = ref 5 in
  let json = ref "" in
  let spec =
    [
      ("--workload", Arg.String (fun w -> names := !names @ [ w ]),
       "W  run workload W (repeatable; default all)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  timed window length (default 15)");
      ("--trace", Arg.Set_int trace, "0|1  also run a traced window");
      ("--trace-out", Arg.Set_string trace_out, "FILE  Chrome trace-event JSON");
      ("--setups", Arg.Set_int setups, "N  set-ups per run (default 5)");
      ("--json", Arg.Set_string json, "FILE  append one JSON record per workload");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf/main.exe [options]";
  let names = if !names = [] then List.map fst workloads else !names in
  List.iter
    (fun n ->
      if not (List.mem_assoc n workloads) then begin
        Printf.eprintf "unknown workload %s\n" n;
        exit 2
      end)
    names;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  if !setups < 1 || not (!seconds > 0.) then begin
    prerr_endline "--setups must be >= 1 and --seconds > 0";
    exit 2
  end;
  let cfg =
    { Workload.seed = !seed; seconds = !seconds; setups = !setups; trace = !trace = 1 }
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let interrupted _ = raise Exit in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupted);
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupted);
  let chrome =
    if cfg.trace && !trace_out <> "" then begin
      let oc = open_out !trace_out in
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      Some (oc, ref true)
    end
    else None
  in
  let records =
    Fun.protect
      ~finally:(fun () ->
        Child.kill_all ();
        Child.remove_work ())
      (fun () ->
        List.map
          (fun name ->
            let r = Workload.result () in
            (List.assoc name workloads) r cfg;
            Child.kill_all ();
            (match chrome with
            | Some (oc, first) when r.spans <> [] ->
                if not !first then output_string oc ",\n";
                first := false;
                Trace.write_chrome oc ~workload:name r.spans
            | _ -> ());
            let record = report ~name ~cfg r in
            flush stdout;
            record)
          names)
  in
  (match chrome with
  | Some (oc, _) ->
      output_string oc "\n]}\n";
      close_out oc
  | None -> ());
  if !json <> "" then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 !json in
    List.iter (fun l -> output_string oc (l ^ "\n")) records;
    close_out oc
  end;
  List.iter print_endline records
