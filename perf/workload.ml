(* What every workload shares: its settings, its result, output checks,
   and the end-to-end figures of a closed-loop window. *)

type cfg = {
  seed : int;
  seconds : float;  (** length of each timed window *)
  setups : int;  (** set-ups per run; setup_s is their median *)
  trace : bool;  (** also run a traced window and report per-layer metrics *)
}

(** Untimed warm-up before the first timed window: 3 s, shortened for
    short smoke windows. *)
let warmup cfg = Float.min 3. (Float.max 0.2 (cfg.seconds /. 5.))

type metric = {
  name : string;
  value : float;
  unit : string;
  raw : float;  (** before calibration scaling; nan when not a time *)
}

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable check_failures : string list;
  mutable metrics : metric list;  (** end-to-end *)
  mutable layers : metric list;  (** per-layer; only in traced runs *)
  mutable spans : Trace.span list;
  mutable samples : (string * int) list;  (** sample count per percentile *)
}

let result () =
  {
    attempted = 0;
    failed = 0;
    check_failures = [];
    metrics = [];
    layers = [];
    spans = [];
    samples = [];
  }

let check r what ok =
  if not ok then begin
    r.check_failures <- what :: r.check_failures;
    Printf.eprintf "check failed: %s\n%!" what
  end

let metric r ?(raw = Float.nan) name unit value =
  r.metrics <- r.metrics @ [ { name; value; unit; raw } ]

let layer r ?(raw = Float.nan) name unit value =
  r.layers <- r.layers @ [ { name; value; unit; raw } ]

(** Calibration factor of the run's first timed window; per-layer times
    are scaled by it (see Stats.reference_ns). *)
let run_factor = ref 1.

let layer_ms r name raw = layer r ~raw name "ms" (raw *. !run_factor)

(** Run [setup] [cfg.setups] times, timing each and scaling each time by
    a calibration burst taken just before it; return the last state.
    Each earlier state is released and the heap compacted, untimed,
    before the next set-up, so peak memory reflects one state and every
    window starts from the same heap shape. *)
let timed_setups r cfg setup =
  let times = ref [] and raws = ref [] and last = ref None in
  for _ = 1 to cfg.setups do
    (match !last with
    | Some (_, release) ->
        release ();
        last := None;
        Gc.compact ()
    | None -> ());
    let f = Stats.burst_factor () in
    let t0 = Metrics.now_ns () in
    let st = setup () in
    let raw = float_of_int (Metrics.now_ns () - t0) /. 1e9 in
    raws := raw :: !raws;
    times := (raw *. f) :: !times;
    last := Some st
  done;
  metric r ~raw:(Stats.median !raws) "setup_s" "s" (Stats.median !times);
  Gc.compact ();
  match !last with Some (st, _) -> st | None -> invalid_arg "setups < 1"

let first_error = ref true

let on_error e =
  if !first_error then begin
    first_error := false;
    Printf.eprintf "operation failed: %s\n%!" (Printexc.to_string e)
  end

(** Count a window's operations and failures into the result. *)
let account r (w : Stats.window) =
  r.attempted <- r.attempted + Stats.attempted w;
  r.failed <- r.failed + w.Stats.failed

(** ops_per_s, p50_ms and p99_ms of the run's main window, with sample
    counts; also fixes the run's calibration factor. *)
let latency_metrics r (w : Stats.window) =
  run_factor := Stats.factor w;
  let lat = Stats.sorted (Stats.lat_ms w) in
  let raw = Stats.sorted (Stats.lat_ms ~raw:true w) in
  metric r ~raw:(Stats.ops_per_s ~raw:true w) "ops_per_s" "1/s" (Stats.ops_per_s w);
  metric r ~raw:(Stats.rank raw 50.) "p50_ms" "ms" (Stats.rank lat 50.);
  metric r ~raw:(Stats.rank raw 99.) "p99_ms" "ms" (Stats.rank lat 99.);
  r.samples <- [ ("p50_ms", Array.length lat); ("p99_ms", Array.length lat) ];
  layer r "calibration.kernel_ms" "ms"
    (Stats.ms_of_ns Stats.reference_ns /. !run_factor)

(** CPU time per operation, scaled like the window's latencies. *)
let cpu_metric r ?ops (w : Stats.window) ~cpu_s =
  let ops = match ops with Some n -> n | None -> Stats.attempted w in
  let raw = 1000. *. cpu_s /. float_of_int ops in
  metric r ~raw "cpu_ms_per_op" "ms" (raw *. Stats.busy_factor w)

let own_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(** Per-layer figures of a set of spans: each layer's median self time
    per op, plus the unaccounted share (the root span's own time). *)
let span_layers r spans ~names =
  let table = Trace.layer_table spans in
  List.iter
    (fun (span, metric_name) ->
      match List.find_opt (fun row -> row.Trace.layer = span) table with
      | Some row -> layer_ms r metric_name row.Trace.median_self_ms
      | None -> ())
    names;
  match List.find_opt (fun row -> row.Trace.layer = "op") table with
  | Some row -> layer r "trace.unaccounted_share" "ratio" row.Trace.share
  | None -> ()

let print_layer_table ~label spans =
  Printf.printf "%-12s %-22s %14s %8s\n" "spans" "layer" "self ms/op p50"
    "share";
  List.iter
    (fun row ->
      Printf.printf "%-12s %-22s %14.4f %7.1f%%\n" label
        (if row.Trace.layer = "op" then "(unaccounted)" else row.Trace.layer)
        row.Trace.median_self_ms (100. *. row.Trace.share))
    (Trace.layer_table spans)

(** Traced versus untraced p50 (both calibrated). *)
let tracing_overhead r ~untraced ~traced =
  let p50 w = Stats.percentile (Stats.lat_ms w) 50. in
  let pct = 100. *. ((p50 traced /. p50 untraced) -. 1.) in
  Printf.printf
    "tracing overhead: traced p50 %.4f ms vs untraced p50 %.4f ms (%+.2f%%)\n"
    (p50 traced) (p50 untraced) pct;
  layer r "trace.overhead_pct" "%" pct

(** Run [f] with tracing on and return its value plus the spans. *)
let traced f =
  Trace.reset ();
  Trace.on := true;
  let v = Fun.protect ~finally:(fun () -> Trace.on := false) f in
  (v, Trace.recorded ())
