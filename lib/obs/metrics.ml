(* Atomic counters, accumulating timers, a monotonic clock, and the
   registry every engine subsystem publishes its counters through.

   Counters and timers are plain [int Atomic.t]: fetch-and-add is a
   single hardware RMW, cheap enough to sit on the per-tuple path of an
   instrumented cursor, and safe under the domain pool.  Registration
   resolves a name to such a handle once; updates never touch the
   registry again. *)

type counter = int Atomic.t

let counter () = Atomic.make 0
let incr c = ignore (Atomic.fetch_and_add c 1)
let add c n = ignore (Atomic.fetch_and_add c n)
let get = Atomic.get
let reset c = Atomic.set c 0
let set = Atomic.set
let decr c = ignore (Atomic.fetch_and_add c (-1))

let rec raise_to c n =
  let cur = Atomic.get c in
  if n > cur && not (Atomic.compare_and_set c cur n) then raise_to c n

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type timer = int Atomic.t

let timer () = Atomic.make 0
let add_span t ns = if ns > 0 then ignore (Atomic.fetch_and_add t ns)
let elapsed_ns = Atomic.get
let reset_timer t = Atomic.set t 0

let time t f =
  let t0 = now_ns () in
  Fun.protect ~finally:(fun () -> add_span t (now_ns () - t0)) f

(* ---------- the registry ---------- *)

type kind = Counter | Gauge

type reader = Handle of counter | Int of (unit -> int) | Float of (unit -> float)

type family = {
  name : string;
  help : string;
  kind : kind;
  label : string option;  (* the one label's name *)
  mutable series : (string * reader) list;
      (* label value ("" when unlabelled) -> reader, registration order *)
}

type registry = { mu : Mutex.t; mutable families : family list (* reversed *) }

let registry () = { mu = Mutex.create (); families = [] }

(* Find or create the family, then find or add the series; [update]
   decides what an existing series becomes (handles are kept, derived
   readers are replaced by the newest owner). *)
let register reg ~kind ~help ?label name (fresh : reader) ~update =
  let lname, lvalue =
    match label with Some (l, v) -> (Some l, v) | None -> (None, "")
  in
  Mutex.protect reg.mu (fun () ->
      let fam =
        match List.find_opt (fun f -> f.name = name) reg.families with
        | Some f when f.kind = kind && f.label = lname -> f
        | Some _ -> invalid_arg ("Metrics: conflicting registration of " ^ name)
        | None ->
            let f = { name; help; kind; label = lname; series = [] } in
            reg.families <- f :: reg.families;
            f
      in
      match List.assoc_opt lvalue fam.series with
      | Some old ->
          let r = update old in
          if r != old then
            fam.series <-
              List.map (fun (v, x) -> if v = lvalue then (v, r) else (v, x)) fam.series;
          r
      | None ->
          fam.series <- fam.series @ [ (lvalue, fresh) ];
          fresh)

let handle reg ~kind ?label ~help name =
  match register reg ~kind ~help ?label name (Handle (counter ())) ~update:Fun.id with
  | Handle c -> c
  | Int _ | Float _ -> invalid_arg ("Metrics: " ^ name ^ " is a derived gauge")

let counter_in reg ?label ~help name = handle reg ~kind:Counter ?label ~help name
let gauge_in reg ?label ~help name = handle reg ~kind:Gauge ?label ~help name

let derived reg ~help name f =
  ignore (register reg ~kind:Gauge ~help name (Int f) ~update:(fun _ -> Int f))

let derived_float reg ~help name f =
  ignore (register reg ~kind:Gauge ~help name (Float f) ~update:(fun _ -> Float f))

let families reg = Mutex.protect reg.mu (fun () -> List.rev reg.families)
let names reg = List.map (fun f -> f.name) (families reg)

let series_of reg =
  List.concat_map
    (fun f -> List.map (fun (v, r) -> (f, v, r)) (Mutex.protect reg.mu (fun () -> f.series)))
    (families reg)

let read_int = function
  | Handle c -> Atomic.get c
  | Int f -> f ()
  | Float f -> int_of_float (f ())

let read reg ?(label = "") name =
  match List.find_opt (fun (f, v, _) -> f.name = name && v = label) (series_of reg) with
  | Some (_, _, r) -> read_int r
  | None -> invalid_arg ("Metrics.read: no series " ^ name)

(* ---------- rendering ---------- *)

let prometheus reg =
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
      Printf.bprintf b "# HELP %s %s\n# TYPE %s %s\n" f.name f.help f.name
        (match f.kind with Counter -> "counter" | Gauge -> "gauge");
      List.iter
        (fun (v, r) ->
          Buffer.add_string b f.name;
          (match f.label with
          | Some l -> Printf.bprintf b "{%s=\"%s\"}" l v
          | None -> ());
          (match r with
          | Float g -> Printf.bprintf b " %.3f\n" (g ())
          | r -> Printf.bprintf b " %d\n" (read_int r)))
        (Mutex.protect reg.mu (fun () -> f.series)))
    (families reg);
  Buffer.contents b

let chop_suffix s suffix =
  let n = String.length s and m = String.length suffix in
  if n > m && String.sub s (n - m) m = suffix then Some (String.sub s 0 (n - m))
  else None

let strip_prefix prefixes name =
  List.find_map
    (fun p ->
      let n = String.length p in
      if String.length name > n && String.sub name 0 n = p then
        Some (String.sub name n (String.length name - n))
      else None)
    prefixes

(* The one-line report form: [key=value] per series, the key being the
   family name without its prefix and [_total], a labelled series
   appending [_<label value>]; byte and nanosecond families drop their
   unit suffix and print at a human scale. *)
let line reg prefixes =
  series_of reg
  |> List.filter_map (fun (f, v, r) ->
         match strip_prefix prefixes f.name with
         | None -> None
         | Some stem ->
             let stem = Option.value (chop_suffix stem "_total") ~default:stem in
             let key, value =
               match (r, chop_suffix stem "_bytes", chop_suffix stem "_ns") with
               | Float g, _, _ -> (stem, Printf.sprintf "%.3f" (g ()))
               | r, _, _ when stem = "bytes" -> (stem, Pretty.bytes (read_int r))
               | r, Some k, _ -> (k, Pretty.bytes (read_int r))
               | r, None, Some k -> (k, Pretty.duration_ns (read_int r))
               | r, None, None -> (stem, string_of_int (read_int r))
             in
             let key = if f.label = None then key else key ^ "_" ^ v in
             Some (key ^ "=" ^ value))
  |> String.concat " "
