(* Order statistics and load-loop bookkeeping shared by the workloads. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(** Nearest-rank percentile ([p] in 0..100) of a sorted array; nan when
    empty. *)
let rank a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(Int.max 0 (Int.min (n - 1) (r - 1)))

let percentile xs p = rank (sorted xs) p
let median xs = percentile xs 50.
let ms_of_ns ns = float_of_int ns /. 1e6

(** A growable int vector (OCaml 5.1 has no Dynarray). *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
  let to_list v = Array.to_list (to_array v)
end

(* ---------- host-speed calibration ----------

   On a shared two-vCPU VM the CPU speed drifts by tens of percent
   within seconds and over minutes (noisy neighbours), which moves every
   timing far more than the changes the benchmark must resolve.  So a
   fixed calibration kernel -- OCaml code of the benchmark's own that
   allocates and hashes like the engine and never calls it -- runs after
   every operation of a timed window, outside the operation's timing.
   Each operation's time is rescaled to a reference host on which the
   kernel takes [reference_ns]:
     scaled = raw * reference_ns / (median kernel time of the 21
                                    operations around it)
   perf/README.md (Noise) gives the measured effect.  Raw values are
   printed next to the scaled ones. *)

let reference_ns = 200_000

let kernel () =
  let t0 = Metrics.now_ns () in
  let b = Buffer.create 4096 in
  let h = Hashtbl.create 64 in
  for i = 0 to 500 do
    let s = string_of_int (i * 7919) in
    Buffer.add_string b s;
    Hashtbl.replace h s i
  done;
  let a = Array.init 500 (fun i -> i * 7919 mod 10007) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (Buffer.length b + Hashtbl.length h + a.(0)));
  Metrics.now_ns () - t0

(** Median of a non-empty int array, as a float. *)
let median_ns a =
  let a = Array.copy a in
  Array.sort compare a;
  float_of_int a.((Array.length a - 1) / 2)

(** Scale factor for a time measured now: reference over the median of
    [n] kernel runs. *)
let burst_factor ?(n = 21) () =
  float_of_int reference_ns /. median_ns (Array.init n (fun _ -> kernel ()))

(** One timed window of a closed loop.  Per operation: its latency, its
    busy time (latency plus output check), its completion time, and the
    calibration kernel's time right after it.  Failures count as
    infinitely slow. *)
type window = {
  start_ns : int;
  stop_ns : int;
  lat_ns : int array;
  busy_ns : int array;
  done_ns : int array;
  kern_ns : int array;
  failed : int;
}

let attempted w = Array.length w.done_ns

(** CPU seconds the window spent in the calibration kernel. *)
let kernel_s w = float_of_int (Array.fold_left ( + ) 0 w.kern_ns) /. 1e9

(** Per-operation calibration factors (rolling median of 21 kernels). *)
let factors w =
  let n = Array.length w.kern_ns in
  Array.init n (fun i ->
      let lo = Int.max 0 (i - 10) and hi = Int.min (n - 1) (i + 10) in
      float_of_int reference_ns /. median_ns (Array.sub w.kern_ns lo (hi - lo + 1)))

(** The window's overall calibration factor. *)
let factor w =
  if Array.length w.kern_ns = 0 then 1.
  else float_of_int reference_ns /. median_ns w.kern_ns

(** The per-operation factors averaged with each operation's busy time
    as its weight: the factor for a total, such as CPU time, that
    accrued while the operations ran. *)
let busy_factor w =
  let f = factors w in
  let num = ref 0. and den = ref 0. in
  Array.iteri
    (fun i b ->
      num := !num +. (float_of_int b *. f.(i));
      den := !den +. float_of_int b)
    w.busy_ns;
  if !den = 0. then 1. else !num /. !den

(** Latencies in ms, scaled to the reference host unless [raw]. *)
let lat_ms ?(raw = false) w =
  let f = factors w in
  Array.to_list
    (Array.mapi
       (fun i ns ->
         if ns = max_int then Float.infinity
         else ms_of_ns ns *. if raw then 1. else f.(i))
       w.lat_ns)

(** Throughput robust to host steal time: the median, over 5 equal
    sub-windows, of the operations completed per second of the loop's
    own busy time (calibration excluded), scaled unless [raw]. *)
let ops_per_s ?(raw = false) w =
  let parts = 5 in
  let f = factors w in
  let span = Int.max 1 (w.stop_ns - w.start_ns) in
  let count = Array.make parts 0 and busy = Array.make parts 0. in
  Array.iteri
    (fun i t ->
      let p = Int.min (parts - 1) (parts * (t - w.start_ns) / span) in
      count.(p) <- count.(p) + 1;
      busy.(p) <- busy.(p) +. (float_of_int w.busy_ns.(i) *. if raw then 1. else f.(i)))
    w.done_ns;
  median
    (List.init parts (fun p ->
         if busy.(p) = 0. then 0. else float_of_int count.(p) /. (busy.(p) /. 1e9)))

(** Closed loop: run [work] back to back for [seconds], timing only
    [work]; [check] then validates its output outside the timed part,
    and one calibration kernel runs.  An exception counts as a failed
    operation. *)
let closed_loop ~seconds ~on_error ~work ~check =
  let start = Metrics.now_ns () in
  let stop = start + int_of_float (seconds *. 1e9) in
  let lat = Vec.create () and busy = Vec.create () in
  let fin = Vec.create () and kern = Vec.create () in
  let failed = ref 0 in
  let i = ref 0 in
  while Metrics.now_ns () < stop do
    let t0 = Metrics.now_ns () in
    let t1, ok =
      match work !i with
      | v ->
          let t1 = Metrics.now_ns () in
          (t1, try check !i v with e -> on_error e; false)
      | exception e ->
          on_error e;
          (Metrics.now_ns (), false)
    in
    if not ok then incr failed;
    Vec.push lat (if ok then t1 - t0 else max_int);
    Vec.push fin t1;
    Vec.push busy (Metrics.now_ns () - t0);
    Vec.push kern (kernel ());
    incr i
  done;
  {
    start_ns = start;
    stop_ns = Metrics.now_ns ();
    lat_ns = Vec.to_array lat;
    busy_ns = Vec.to_array busy;
    done_ns = Vec.to_array fin;
    kern_ns = Vec.to_array kern;
    failed = !failed;
  }

let run_for ~seconds op =
  let stop = Metrics.now_ns () + int_of_float (seconds *. 1e9) in
  let i = ref 0 in
  while Metrics.now_ns () < stop do
    ignore (op !i);
    incr i
  done

(** Sleep until the monotonic clock reaches [t_ns]. *)
let sleep_until t_ns =
  let rec go () =
    let now = Metrics.now_ns () in
    if now < t_ns then begin
      Thread.delay (Float.min 0.05 (float_of_int (t_ns - now) /. 1e9));
      go ()
    end
  in
  go ()
