(* Chaos suite: deterministic fault-injection sweeps.

   For every seed, [Fault.plan_of_seed] derives a (site, nth, action)
   plan — raise or busy-delay at the nth Alloc/Open/Next/Close event —
   the harness arms it, runs one workload query, and then proves the
   engine recovered completely:

   - the injected run either completes normally (the site was never
     reached, or the action was a delay) or fails with the typed
     [Injected_fault] error — never anything else, and never a crash;
   - an immediate clean re-run of Q1-Q4 is reference-identical;
   - the plan cache is conserved: every post-warm-up lookup of the sweep
     is a hit (an aborted execution never poisons or evicts an entry,
     so misses stay frozen), and hits + misses always equals the number
     of executions issued;
   - the governor's [injected_faults] counter matches the observed
     failures exactly.

   The sweep width defaults to 120 seeds and can be widened from the
   environment (GAPPLY_CHAOS_SEEDS=500 in the CI fault-injection job).
   A second, smaller sweep runs at parallelism 4 so faults also fire on
   pool domains mid-GApply. *)

let check_rel = Alcotest.testable Relation.pp Relation.equal_as_list

let sweep_width default =
  match Sys.getenv_opt "GAPPLY_CHAOS_SEEDS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let queries =
  List.map (fun (name, gapply, _) -> (name, gapply)) Workloads.figure8_queries

let misses db = Metrics.read (Engine.metrics db) "gapply_plan_cache_misses_total"

(* conservation assertions only hold when the cache is live, not when
   CI replays the suite with GAPPLY_PLAN_CACHE=off *)
let cache_on =
  match Sys.getenv_opt "GAPPLY_PLAN_CACHE" with
  | Some ("off" | "0" | "false" | "no") -> false
  | _ -> true

let run_sweep ~parallelism ~seeds () =
  Fault.disarm ();
  let db = Engine.create ~parallelism () in
  Engine.load_tpch db ~msf:0.2;
  (* warm-up doubles as the reference capture: every sweep lookup after
     this point must be a hit *)
  let references =
    List.map (fun (name, q) -> (name, q, Engine.query db q)) queries
  in
  let frozen_misses = misses db in
  let executions = ref (List.length references) in
  let expected_faults = ref 0 in
  let fired = ref 0 and survived = ref 0 in
  for seed = 1 to seeds do
    let plan = Fault.plan_of_seed seed in
    (* rotate the injected query so every plan shape gets chaos *)
    let _, q, reference = List.nth references (seed mod List.length references) in
    Fault.arm plan;
    (match Engine.exec db q with
    | Engine.Rows rel ->
        incr survived;
        Alcotest.check check_rel
          (Printf.sprintf "seed %d (%s): surviving run is correct" seed
             (Fault.plan_to_string plan))
          reference rel
    | Engine.Failed (Errors.Resource_error v) ->
        incr fired;
        incr expected_faults;
        Alcotest.(check string)
          (Printf.sprintf "seed %d: failure is the injected fault" seed)
          "injected fault"
          (Errors.resource_kind_to_string v.Errors.kind)
    | _ ->
        Alcotest.fail
          (Printf.sprintf "seed %d: outcome neither rows nor typed fault" seed));
    incr executions;
    Fault.disarm ();
    (* immediate clean re-run of the whole workload, reference-identical *)
    List.iter
      (fun (name, q, reference) ->
        Alcotest.check check_rel
          (Printf.sprintf "seed %d: clean re-run of %s" seed name)
          reference (Engine.query db q);
        incr executions)
      references;
    if cache_on then
      Alcotest.(check int)
        (Printf.sprintf "seed %d: no cache poisoning (misses frozen)" seed)
        frozen_misses (misses db);
    Support.check_conservation ~executions:!executions
      (Printf.sprintf "seed %d: registry conserved" seed)
      db
  done;
  Alcotest.(check int) "injected_faults counter matches observed failures"
    !expected_faults
    (Metrics.read (Engine.metrics db) ~label:"injected"
       "gapply_governor_violations_total");
  (* a sweep that never fires isn't exercising anything *)
  Alcotest.(check bool)
    (Printf.sprintf "sweep fired at least once (%d fired / %d survived)"
       !fired !survived)
    true
    (!fired > 0 && !fired = !expected_faults)

let test_sequential_sweep () = run_sweep ~parallelism:1 ~seeds:(sweep_width 120) ()

let test_parallel_sweep () =
  (* faults now fire on pool domains inside the parallel GApply phases;
     the poisoned batch must drain and the typed error must cross
     domains with no worker leaked *)
  run_sweep ~parallelism:4 ~seeds:(sweep_width 120 / 4) ()

(* Arming from a spec string round-trips (the CLI/env path). *)
let test_spec_roundtrip () =
  List.iter
    (fun spec ->
      match Fault.parse_spec spec with
      | None -> Alcotest.fail (Printf.sprintf "spec %s should parse" spec)
      | Some plan ->
          Fault.arm plan;
          Alcotest.(check bool) "armed" true (Fault.armed ());
          Fault.disarm ();
          Alcotest.(check bool) "disarmed" false (Fault.armed ()))
    [ "seed:7"; "next:25"; "alloc:100:delay=200000"; "open:1"; "close:3" ];
  Alcotest.(check bool) "garbage rejected" true
    (Fault.parse_spec "bogus" = None && Fault.parse_spec "next:-2" = None)

let suite =
  [
    Alcotest.test_case "fault specs parse and arm" `Quick test_spec_roundtrip;
    Alcotest.test_case "seed sweep: inject, fail typed, recover clean" `Slow
      test_sequential_sweep;
    Alcotest.test_case "seed sweep at parallelism 4" `Slow
      test_parallel_sweep;
  ]
