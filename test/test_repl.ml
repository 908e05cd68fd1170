(* Replication suite: backoff policy determinism, the self-healing
   Persistent client, per-client admission quotas, disk-full degrade,
   and the WAL-shipping replication layer end to end over real loopback
   sockets — bootstrap snapshot transfer (including under concurrent
   commits), live streaming catch-up with digest parity, crash-
   consistent resume from the durable mark, checkpoint-epoch re-sync,
   torn-stream detection through a byte-flipping proxy, promote /
   rewind rejection, and a seeded partition-and-failover chaos sweep
   asserting zero committed-transaction loss.

   The chaos sweep width defaults to 6 seeds and is widened from the
   environment (GAPPLY_REPL_CHAOS_SEEDS=150 in CI). *)

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let sweep_width default =
  match Sys.getenv_opt "GAPPLY_REPL_CHAOS_SEEDS" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* Poll until [pred] holds; fail the test otherwise.  Replication runs
   on its own threads (applier, sender, backoff sleeps up to 500 ms),
   so observations need a generous grace period. *)
let await ?(timeout_ms = 15000) msg pred =
  let deadline = Unix.gettimeofday () +. (float_of_int timeout_ms /. 1000.) in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail (Printf.sprintf "timed out waiting for %s" msg)
    else begin
      Thread.yield ();
      Unix.sleepf 0.003;
      go ()
    end
  in
  go ()

let tmpdir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gapply_repl_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o700;
  dir

let server_cfg ?(port = 0) ?(max_concurrent = 4) ?(queue_depth = 16)
    ?(admission_timeout_ms = 200) ?(per_client_cap = 0) () =
  {
    Server.host = "127.0.0.1";
    port;
    acceptors = 2;
    max_concurrent;
    queue_depth;
    admission_timeout_ms;
    per_client_cap;
    idle_timeout_ms = 0;
    http_port = None;
  }

let exec_ok db sql =
  match Engine.exec db sql with Engine.Failed e -> raise e | _ -> ()

let count db sql =
  match Engine.exec db sql with
  | Engine.Rows r -> Relation.cardinality r
  | Engine.Failed e -> raise e
  | Engine.Message m -> Alcotest.fail ("expected rows, got message: " ^ m)
  | Engine.Explanation _ -> Alcotest.fail "expected rows, got explanation"

let digest db = Recovery.db_digest (Engine.catalog db)

let check_digest_parity what primary replica =
  Alcotest.(check string)
    (what ^ ": replica digest equals primary digest")
    (digest primary) (digest replica)

let await_caught_up ?timeout_ms what primary rep =
  await ?timeout_ms (what ^ " catch-up") (fun () ->
      Repl.replica_position rep = Some (Engine.repl_position primary))

(* ---------- backoff ---------- *)

let test_backoff () =
  let delays b n = List.init n (fun _ -> Net_client.Backoff.next_delay_ms b) in
  let b1 = Net_client.Backoff.create ~seed:42 () in
  let b2 = Net_client.Backoff.create ~seed:42 () in
  let d1 = delays b1 8 and d2 = delays b2 8 in
  Alcotest.(check (list int)) "same seed, same delays" d1 d2;
  List.iteri
    (fun i d ->
      let ceiling = min 2000 (5 * (1 lsl i)) in
      if d < 0 || d > ceiling then
        Alcotest.fail
          (Printf.sprintf "attempt %d: delay %d outside [0, %d]" i d ceiling))
    d1;
  let b3 = Net_client.Backoff.create ~seed:1 () in
  Alcotest.(check bool) "retry-after hint is a floor" true
    (Net_client.Backoff.next_delay_ms ~hint_ms:1234 b3 >= 1234);
  let b4 = Net_client.Backoff.create ~base_ms:5 ~cap_ms:50 ~seed:3 () in
  List.iter
    (fun d ->
      if d > 50 then Alcotest.fail (Printf.sprintf "delay %d above cap 50" d))
    (delays b4 12);
  Alcotest.(check int) "attempts counted" 12 (Net_client.Backoff.attempts b4);
  Net_client.Backoff.reset b4;
  Alcotest.(check int) "reset clears attempts" 0 (Net_client.Backoff.attempts b4);
  Alcotest.(check bool) "first delay after reset is within base" true
    (Net_client.Backoff.next_delay_ms b4 <= 5)

(* ---------- persistent client: reconnect across a server restart ---- *)

let test_persistent_reconnect () =
  let db = Engine.create () in
  let srv1 = Server.start (server_cfg ()) db in
  let port = Server.port srv1 in
  let c = Net_client.Persistent.create ~port ~seed:7 () in
  Fun.protect
    ~finally:(fun () ->
      Net_client.Persistent.close c;
      Engine.close db)
    (fun () ->
      (match Net_client.Persistent.query c "create table t (a int)" with
      | Wire.Message _ -> ()
      | r -> Alcotest.fail ("create failed: " ^ Wire.(snd (encode_response r))));
      Server.stop ~drain_timeout_ms:2000 srv1;
      (* same engine, new listener on the same port: the client's next
         request must ride its backoff through the gap *)
      let srv2 = Server.start (server_cfg ~port ()) db in
      Fun.protect
        ~finally:(fun () -> Server.stop ~drain_timeout_ms:2000 srv2)
        (fun () ->
          (match Net_client.Persistent.query c "insert into t values (1)" with
          | Wire.Message _ -> ()
          | _ -> Alcotest.fail "insert after restart failed");
          Alcotest.(check bool) "client reconnected" true
            (Net_client.Persistent.reconnects c >= 1);
          match Net_client.Persistent.query c "select a from t" with
          | Wire.Rows { count; _ } ->
              Alcotest.(check int) "row visible after reconnect" 1 count
          | _ -> Alcotest.fail "select after reconnect failed"))

(* ---------- per-client admission quotas ---------- *)

let test_quota_admission () =
  let reg = Metrics.registry () in
  let stats = Net_stats.create reg in
  let a =
    Admission.create reg
      {
        Admission.max_concurrent = 4;
        queue_depth = 8;
        admission_timeout_ms = 100;
        per_client_cap = 1;
      }
  in
  let hold = Atomic.make true in
  let t =
    Thread.create
      (fun () ->
        Admission.admit ~client:"greedy" a (fun () ->
            while Atomic.get hold do
              Thread.delay 0.002
            done))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set hold false;
      Thread.join t;
      Admission.begin_drain a;
      Admission.stop a)
    (fun () ->
      await ~timeout_ms:3000 "greedy to hold its slot" (fun () ->
          Admission.client_running a "greedy" = 1);
      (* the gate has 3 free slots, but greedy is at its cap: the second
         statement queues and is shed with the typed quota reason *)
      (match Admission.admit ~client:"greedy" a (fun () -> ()) with
      | () -> Alcotest.fail "over-cap statement must be shed"
      | exception Errors.Overloaded o ->
          Alcotest.(check bool) "shed names the cap" true
            (let detail = o.Errors.odetail in
             let has_cap = ref false in
             String.iteri
               (fun i _ ->
                 if i + 3 <= String.length detail
                    && String.sub detail i 3 = "cap"
                 then has_cap := true)
               detail;
             !has_cap));
      Alcotest.(check int) "quota shed counted" 1
        (Metrics.get stats.Net_stats.shed_quota);
      (* a different client sails through the idle gate *)
      Alcotest.(check string) "other client admitted" "ok"
        (Admission.admit ~client:"polite" a (fun () -> "ok")))

let test_quota_wire () =
  let db = Engine.create () in
  Engine.load_tpch db ~msf:0.2;
  let stats = Net_stats.create (Engine.metrics db) in
  let srv =
    Server.start
      (server_cfg ~max_concurrent:2 ~per_client_cap:1 ~queue_depth:8
         ~admission_timeout_ms:150 ())
    db
  in
  let port = Server.port srv in
  let conn () = Net_client.connect ~port () in
  (* slow enough (seconds) that the slot is still held while the quota
     is probed; the drain in the cleanup cancels it *)
  let slow_q = "select count(*) as n from lineitem l1, orders o1, orders o2" in
  let t = ref None in
  Fun.protect
    ~finally:(fun () ->
      Server.stop ~drain_timeout_ms:3000 srv;
      (match !t with Some th -> Thread.join th | None -> ());
      Engine.close db)
    (fun () ->
      let c1 = conn () in
      (match Net_client.request c1 (Wire.Auth "greedy") with
      | Wire.Message _ -> ()
      | _ -> Alcotest.fail "auth must be acknowledged");
      t :=
        Some
          (Thread.create
             (fun () -> try ignore (Net_client.query c1 slow_q) with _ -> ())
             ());
      await ~timeout_ms:5000 "greedy statement to occupy its slot" (fun () ->
          Admission.client_running (Server.admission srv) "greedy" = 1);
      let c2 = conn () in
      ignore (Net_client.request c2 (Wire.Auth "greedy"));
      (match Net_client.query c2 slow_q with
      | Wire.Overloaded _ -> ()
      | r ->
          Alcotest.fail
            ("second greedy statement must be shed, got "
            ^ String.make 1 (fst (Wire.encode_response r))));
      Alcotest.(check bool) "typed quota shed counted" true
        (Metrics.get stats.Net_stats.shed_quota >= 1);
      (* an unrelated client still gets the gate's free slot *)
      let c3 = conn () in
      ignore (Net_client.request c3 (Wire.Auth "polite"));
      (match Net_client.query c3 "select count(*) as n from part" with
      | Wire.Rows _ -> ()
      | _ -> Alcotest.fail "polite client must be admitted");
      (match Net_client.meta c3 "\\repl" with
      | Wire.Message body ->
          Alcotest.(check bool) "\\repl renders the hub counters" true
            (String.length body >= 5 && String.sub body 0 5 = "repl:")
      | _ -> Alcotest.fail "\\repl must answer with a message");
      List.iter Net_client.close [ c1; c2; c3 ])

(* ---------- disk-full degrade ---------- *)

let test_disk_full_degrade () =
  let dir = tmpdir () in
  let db = Engine.create ~data_dir:dir ~durability:Store.Strict () in
  Fun.protect
    ~finally:(fun () ->
      Wal.set_write_fault None;
      Engine.close db)
    (fun () ->
      exec_ok db "create table t (a int)";
      exec_ok db "insert into t values (1)";
      Wal.set_write_fault (Some (fun () -> Some Wal.Enospc));
      (match Engine.exec db "insert into t values (2)" with
      | exception Errors.Disk_full _ -> ()
      | Engine.Failed (Errors.Disk_full _) -> ()
      | _ -> Alcotest.fail "ENOSPC append must surface as Disk_full");
      Wal.set_write_fault None;
      (* the degrade is sticky: the device coming back does not silently
         resume writes that might straddle a hole in the log *)
      (match Engine.read_only db with
      | Some { Errors.primary = None; _ } -> ()
      | _ -> Alcotest.fail "engine must degrade to read-only, no primary");
      (match Engine.exec db "insert into t values (3)" with
      | exception Errors.Read_only _ -> ()
      | Engine.Failed (Errors.Read_only _) -> ()
      | _ -> Alcotest.fail "writes after the degrade must be refused");
      Alcotest.(check int) "reads still served" 1
        (count db "select a from t where a = 1");
      (* operator re-enables writes once space is back *)
      Engine.set_read_only db None;
      exec_ok db "insert into t values (4)");
  (* the acknowledged writes (1 and 4) survive recovery; the failed
     statement (2) was never acknowledged and may not *)
  let recovered = Engine.create ~data_dir:dir () in
  Fun.protect
    ~finally:(fun () -> Engine.close recovered)
    (fun () ->
      Alcotest.(check int) "acknowledged rows recovered" 2
        (count recovered "select a from t where a = 1 or a = 4"))

(* ---------- replication: bootstrap, streaming, read-only redirect ---- *)

let with_pair f =
  let pdir = tmpdir () and rdir = tmpdir () in
  let pdb = Engine.create ~data_dir:pdir ~durability:Store.Strict () in
  let srv = Server.start (server_cfg ()) pdb in
  let rdb = Engine.create ~data_dir:rdir ~durability:Store.Strict () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop ~drain_timeout_ms:3000 srv;
      Engine.close pdb;
      Engine.close rdb)
    (fun () -> f ~pdir ~rdir ~pdb ~rdb ~srv ~port:(Server.port srv))

let test_repl_basic () =
  with_pair (fun ~pdir:_ ~rdir:_ ~pdb ~rdb ~srv:_ ~port ->
      exec_ok pdb "create table kv (k int)";
      for i = 1 to 5 do
        exec_ok pdb (Printf.sprintf "insert into kv values (%d)" i)
      done;
      let rep = Repl.start_replica ~host:"127.0.0.1" ~port rdb in
      Fun.protect
        ~finally:(fun () -> Repl.stop_replica rep)
        (fun () ->
          await_caught_up "bootstrap" pdb rep;
          check_digest_parity "after bootstrap" pdb rdb;
          (* a write on the replica is refused with a redirect naming
             the primary, and reads keep working *)
          (match Engine.exec rdb "insert into kv values (99)" with
          | exception Errors.Read_only { primary = Some p; _ } ->
              Alcotest.(check string) "redirect names the primary"
                (Printf.sprintf "127.0.0.1:%d" port)
                p
          | Engine.Failed (Errors.Read_only { primary = Some p; _ }) ->
              Alcotest.(check string) "redirect names the primary"
                (Printf.sprintf "127.0.0.1:%d" port)
                p
          | _ -> Alcotest.fail "replica write must be refused with redirect");
          Alcotest.(check int) "replica serves reads" 5
            (count rdb "select k from kv");
          (* live streaming: new commits arrive without a re-subscribe *)
          for i = 6 to 8 do
            exec_ok pdb (Printf.sprintf "insert into kv values (%d)" i)
          done;
          await_caught_up "streaming" pdb rep;
          check_digest_parity "after streaming" pdb rdb;
          Alcotest.(check int) "no loss, no duplicates" 8
            (count rdb "select k from kv");
          Alcotest.(check int) "a clean loopback stream tears no record" 0
            (Metrics.get (Repl.replica_stats rep).Repl_stats.torn_detected)))

let test_repl_restart_resume () =
  with_pair (fun ~pdir:_ ~rdir ~pdb ~rdb ~srv:_ ~port ->
      exec_ok pdb "create table kv (k int)";
      for i = 1 to 3 do
        exec_ok pdb (Printf.sprintf "insert into kv values (%d)" i)
      done;
      let rep = Repl.start_replica ~host:"127.0.0.1" ~port rdb in
      await_caught_up "initial" pdb rep;
      Repl.stop_replica rep;
      Engine.close rdb;
      (* the primary moves on while the replica is down *)
      for i = 4 to 5 do
        exec_ok pdb (Printf.sprintf "insert into kv values (%d)" i)
      done;
      let rdb2 = Engine.create ~data_dir:rdir ~durability:Store.Strict () in
      Fun.protect
        ~finally:(fun () -> Engine.close rdb2)
        (fun () ->
          Alcotest.(check bool) "restart recovered the durable mark" true
            (Engine.repl_recovered_position rdb2 <> None);
          let rep2 = Repl.start_replica ~host:"127.0.0.1" ~port rdb2 in
          Fun.protect
            ~finally:(fun () -> Repl.stop_replica rep2)
            (fun () ->
              await_caught_up "resume" pdb rep2;
              check_digest_parity "after resume" pdb rdb2;
              Alcotest.(check int)
                "exactly-once apply across the restart" 5
                (count rdb2 "select k from kv");
              Alcotest.(check int) "resume streamed, no snapshot" 0
                (Metrics.get (Repl.replica_stats rep2).Repl_stats.snapshots_installed))))

let test_repl_checkpoint_resync () =
  with_pair (fun ~pdir:_ ~rdir:_ ~pdb ~rdb ~srv:_ ~port ->
      exec_ok pdb "create table kv (k int)";
      for i = 1 to 3 do
        exec_ok pdb (Printf.sprintf "insert into kv values (%d)" i)
      done;
      let rep = Repl.start_replica ~host:"127.0.0.1" ~port rdb in
      Fun.protect
        ~finally:(fun () -> Repl.stop_replica rep)
        (fun () ->
          await_caught_up "initial" pdb rep;
          (* the checkpoint bumps the WAL epoch and discards the bytes
             the subscriber was tailing: the sender must re-sync it with
             a fresh snapshot on the same connection *)
          ignore (Engine.checkpoint pdb);
          for i = 4 to 5 do
            exec_ok pdb (Printf.sprintf "insert into kv values (%d)" i)
          done;
          await_caught_up "post-checkpoint" pdb rep;
          check_digest_parity "after checkpoint re-sync" pdb rdb;
          Alcotest.(check int) "no loss across the epoch bump" 5
            (count rdb "select k from kv")))

let test_repl_bootstrap_race () =
  with_pair (fun ~pdir:_ ~rdir:_ ~pdb ~rdb ~srv:_ ~port ->
      exec_ok pdb "create table kv (k int)";
      (* snapshot transfer races a continuous stream of commits *)
      let writer =
        Thread.create
          (fun () ->
            for i = 1 to 40 do
              exec_ok pdb (Printf.sprintf "insert into kv values (%d)" i);
              Thread.delay 0.001
            done)
          ()
      in
      let rep = Repl.start_replica ~host:"127.0.0.1" ~port rdb in
      Fun.protect
        ~finally:(fun () -> Repl.stop_replica rep)
        (fun () ->
          Thread.join writer;
          await_caught_up "bootstrap under load" pdb rep;
          check_digest_parity "after racing bootstrap" pdb rdb;
          Alcotest.(check int) "every committed row arrived once" 40
            (count rdb "select k from kv")))

(* ---------- torn stream through a byte-flipping proxy ---------- *)

let read_exact fd b off n =
  let got = ref 0 in
  while !got < n do
    let k = Unix.read fd b (off + !got) (n - !got) in
    if k = 0 then raise End_of_file;
    got := !got + k
  done

let write_all_fd fd b off n =
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write fd b (off + !sent) (n - !sent)
  done

let shutdown_quietly fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* A loopback TCP proxy between the replica and its primary that
   corrupts exactly one downstream batch frame: one byte inside the raw
   WAL payload is flipped, past the wire framing so only the record-
   level CRC check can catch it.  Returns the proxy port and a stopper. *)
let start_flipping_proxy ~dst_port =
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 8;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let flipped = ref false in
  let stop = Atomic.make false in
  let mu = Mutex.create () in
  let live = ref [] and pumps = ref [] in
  let track fd = Mutex.protect mu (fun () -> live := fd :: !live) in
  let spawn f = Mutex.protect mu (fun () -> pumps := Thread.create f () :: !pumps)
  in
  (* replica -> primary: the subscribe request passes through verbatim *)
  let pump_raw src dst =
    let b = Bytes.create 4096 in
    (try
       let continue_ = ref true in
       while !continue_ do
         let n = Unix.read src b 0 4096 in
         if n = 0 then continue_ := false else write_all_fd dst b 0 n
       done
     with Unix.Unix_error _ | End_of_file -> ());
    shutdown_quietly src;
    shutdown_quietly dst
  in
  (* primary -> replica: frame-aware, so the flip lands inside a batch
     frame's WAL bytes (payload = epoch u64 | offset u64 | records);
     byte 16 is the first record's marker *)
  let pump_frames src dst =
    let hdr = Bytes.create 5 in
    (try
       while true do
         read_exact src hdr 0 5;
         let len = Int32.to_int (Bytes.get_int32_le hdr 1) in
         let payload = Bytes.create len in
         read_exact src payload 0 len;
         if (not !flipped) && Bytes.get hdr 0 = 'b' && len > 20 then begin
           Bytes.set payload 16
             (Char.chr (Char.code (Bytes.get payload 16) lxor 0xFF));
           flipped := true
         end;
         write_all_fd dst hdr 0 5;
         write_all_fd dst payload 0 len
       done
     with Unix.Unix_error _ | End_of_file -> ());
    shutdown_quietly src;
    shutdown_quietly dst
  in
  let accept_loop () =
    try
      while not (Atomic.get stop) do
        let c, _ = Unix.accept lsock in
        if Atomic.get stop then (try Unix.close c with Unix.Unix_error _ -> ())
        else begin
          track c;
          let up = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
          try
            Unix.connect up
              (Unix.ADDR_INET (Unix.inet_addr_loopback, dst_port));
            track up;
            spawn (fun () -> pump_raw c up);
            spawn (fun () -> pump_frames up c)
          with Unix.Unix_error _ ->
            (try Unix.close up with Unix.Unix_error _ -> ());
            shutdown_quietly c
        end
      done
    with Unix.Unix_error _ -> ()
  in
  let acceptor = Thread.create accept_loop () in
  let stopper () =
    Atomic.set stop true;
    (* a blocked accept(2) is not woken by closing its fd; poke it with
       a throwaway connection instead *)
    (try
       let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
        with Unix.Unix_error _ -> ());
       Unix.close fd
     with Unix.Unix_error _ -> ());
    Thread.join acceptor;
    (try Unix.close lsock with Unix.Unix_error _ -> ());
    Mutex.protect mu (fun () -> !live) |> List.iter shutdown_quietly;
    Mutex.protect mu (fun () -> !pumps) |> List.iter Thread.join;
    Mutex.protect mu (fun () -> !live)
    |> List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
  in
  (port, stopper)

let test_repl_torn_stream () =
  with_pair (fun ~pdir:_ ~rdir:_ ~pdb ~rdb ~srv:_ ~port ->
      exec_ok pdb "create table kv (k int)";
      for i = 1 to 3 do
        exec_ok pdb (Printf.sprintf "insert into kv values (%d)" i)
      done;
      let pport, stop_proxy = start_flipping_proxy ~dst_port:port in
      let rep = Repl.start_replica ~host:"127.0.0.1" ~port:pport rdb in
      Fun.protect
        ~finally:(fun () ->
          Repl.stop_replica rep;
          stop_proxy ())
        (fun () ->
          (* the bootstrap snapshot frame passes untouched *)
          await_caught_up "bootstrap through proxy" pdb rep;
          (* the first live batch gets one byte flipped in its WAL
             payload: the applier's CRC re-validation must catch it,
             drop the stream, and re-subscribe from the durable mark *)
          for i = 4 to 6 do
            exec_ok pdb (Printf.sprintf "insert into kv values (%d)" i)
          done;
          await_caught_up "recovery from the torn stream" pdb rep;
          let s = Repl.replica_stats rep in
          Alcotest.(check bool) "corruption detected" true
            (Metrics.get s.Repl_stats.torn_detected >= 1);
          Alcotest.(check bool) "stream re-established" true
            (Metrics.get s.Repl_stats.reconnects >= 1);
          check_digest_parity "after the torn stream" pdb rdb;
          Alcotest.(check int) "no loss, no duplicates" 6
            (count rdb "select k from kv")))

(* A replica whose local checkpoint fails (here: a directory planted
   where the snapshot's temp file goes) gets a typed engine error from
   installing the bootstrap snapshot.  The applier counts it as a torn
   stream, so repeated failures escalate instead of looping silently,
   and the replica heals once the checkpoint can land. *)
let test_repl_install_checkpoint_failure () =
  with_pair (fun ~pdir:_ ~rdir ~pdb ~rdb ~srv:_ ~port ->
      exec_ok pdb "create table kv (k int)";
      for i = 1 to 3 do
        exec_ok pdb (Printf.sprintf "insert into kv values (%d)" i)
      done;
      let tmp = Recovery.snapshot_path rdir ^ ".tmp" in
      Unix.mkdir tmp 0o755;
      let rep = Repl.start_replica ~host:"127.0.0.1" ~port rdb in
      Fun.protect
        ~finally:(fun () ->
          Repl.stop_replica rep;
          if Sys.file_exists tmp then Unix.rmdir tmp)
        (fun () ->
          let s = Repl.replica_stats rep in
          await "the failed install counted as torn" (fun () ->
              Metrics.get s.Repl_stats.torn_detected >= 1);
          Alcotest.(check int) "no snapshot installed" 0
            (Metrics.get s.Repl_stats.snapshots_installed);
          Unix.rmdir tmp;
          await_caught_up "after the checkpoint can land" pdb rep;
          check_digest_parity "after the healed install" pdb rdb;
          Alcotest.(check int) "no loss, no duplicates" 3
            (count rdb "select k from kv")))

(* ---------- promote, then reject the old primary's rewind ---------- *)

let test_promote_rewind_rejected () =
  with_pair (fun ~pdir:_ ~rdir:_ ~pdb ~rdb ~srv:_ ~port ->
      exec_ok pdb "create table kv (k int)";
      for i = 1 to 3 do
        exec_ok pdb (Printf.sprintf "insert into kv values (%d)" i)
      done;
      let rep = Repl.start_replica ~host:"127.0.0.1" ~port rdb in
      await_caught_up "pre-failover" pdb rep;
      (* failover: the replica becomes the writable primary... *)
      Repl.promote rep;
      exec_ok rdb "insert into kv values (100)";
      (* ...while the old primary, unaware, takes a conflicting write *)
      exec_ok pdb "insert into kv values (200)";
      let bsrv = Server.start (server_cfg ()) rdb in
      Fun.protect
        ~finally:(fun () -> Server.stop ~drain_timeout_ms:3000 bsrv)
        (fun () ->
          let before = digest rdb in
          (* the old primary has committed history with no replication
             mark: it must be refused, never silently rewound *)
          let repa =
            Repl.start_replica ~host:"127.0.0.1" ~port:(Server.port bsrv) pdb
          in
          Fun.protect
            ~finally:(fun () -> Repl.stop_replica repa)
            (fun () ->
              await ~timeout_ms:10000 "divergence refusal" (fun () ->
                  Repl.replica_state repa = Repl.Diverged);
              Alcotest.(check bool) "refusal counted on the new primary"
                true
                (Metrics.read (Engine.metrics rdb)
                   "gapply_repl_diverged_rejections_total"
                >= 1);
              Alcotest.(check string)
                "new primary untouched by the rejected subscriber" before
                (digest rdb);
              Alcotest.(check int)
                "old primary's diverged tail not rewound" 1
                (count pdb "select k from kv where k = 200"))))

let test_promoted_history_flagged_on_restart () =
  with_pair (fun ~pdir:_ ~rdir ~pdb ~rdb ~srv:_ ~port ->
      exec_ok pdb "create table kv (k int)";
      exec_ok pdb "insert into kv values (1)";
      let rep = Repl.start_replica ~host:"127.0.0.1" ~port rdb in
      await_caught_up "pre-promote" pdb rep;
      Repl.promote rep;
      exec_ok rdb "insert into kv values (2)";
      Engine.close rdb;
      (* recovery sees commits after the last mark: this directory can
         no longer claim to be a prefix of any primary *)
      let rdb2 = Engine.create ~data_dir:rdir () in
      Fun.protect
        ~finally:(fun () -> Engine.close rdb2)
        (fun () ->
          Alcotest.(check bool) "recovery flags the diverged history" true
            (Engine.repl_recovered_diverged rdb2)))

(* ---------- seeded chaos: partitions, primary crashes, failover ------ *)

let chaos_one seed =
  let rng = Random.State.make [| seed; 0xC0FFEE |] in
  let pdir = tmpdir () and rdir = tmpdir () in
  let pdb0 = Engine.create ~data_dir:pdir ~durability:Store.Strict () in
  let srv0 = Server.start (server_cfg ()) pdb0 in
  let port = Server.port srv0 in
  exec_ok pdb0 "create table kv (k int)";
  let pdb = ref pdb0 and srv = ref (Some srv0) in
  let rdb = Engine.create ~data_dir:rdir ~durability:Store.Strict () in
  let rep = Repl.start_replica ~seed ~host:"127.0.0.1" ~port rdb in
  let acked = ref [] in
  let writer = Net_client.Persistent.create ~port ~seed () in
  let kill_and_restart_primary () =
    (match !srv with
    | Some s -> Server.stop ~drain_timeout_ms:2000 s
    | None -> ());
    srv := None;
    Engine.close !pdb;
    let db' = Engine.create ~data_dir:pdir ~durability:Store.Strict () in
    let rec rebind tries =
      try Server.start (server_cfg ~port ()) db'
      with Unix.Unix_error _ when tries > 0 ->
        Unix.sleepf 0.05;
        rebind (tries - 1)
    in
    let s' = rebind 60 in
    pdb := db';
    srv := Some s'
  in
  Fun.protect
    ~finally:(fun () ->
      Net_client.Persistent.close writer;
      Repl.stop_replica rep;
      (match !srv with
      | Some s -> Server.stop ~drain_timeout_ms:3000 s
      | None -> ());
      Engine.close !pdb;
      Engine.close rdb)
    (fun () ->
      for i = 1 to 14 do
        (* the faults land between writes: a primary crash-and-restart
           (recovery + same-port rebind) or a network partition of the
           replication stream *)
        if Random.State.int rng 100 < 18 then kill_and_restart_primary ();
        if Random.State.int rng 100 < 15 then Repl.inject_disconnect rep;
        let v = (seed * 1000) + i in
        match
          Net_client.Persistent.query writer
            (Printf.sprintf "insert into kv values (%d)" v)
        with
        | Wire.Message _ -> acked := v :: !acked
        | Wire.Rows _ | Wire.Explanation _ | Wire.Failed _
        | Wire.Overloaded _ | Wire.Goodbye | Wire.Repl_snapshot _
        | Wire.Repl_batch _ | Wire.Repl_heartbeat _ ->
            ()
        | exception _ -> ()
      done;
      (* the replica must converge to the surviving primary's durable
         position — every acknowledged transaction replicated, nothing
         uncommitted visible (digest parity proves both at once) *)
      await ~timeout_ms:30000
        (Printf.sprintf "seed %d convergence" seed)
        (fun () -> Repl.replica_position rep = Some (Engine.repl_position !pdb));
      List.iter
        (fun v ->
          if count rdb (Printf.sprintf "select k from kv where k = %d" v) < 1
          then
            Alcotest.fail
              (Printf.sprintf "seed %d: acked row %d lost on the replica"
                 seed v))
        !acked;
      check_digest_parity (Printf.sprintf "seed %d" seed) !pdb rdb;
      (* failover: kill the primary for good and promote the replica;
         everything acknowledged must survive on the new primary *)
      (match !srv with
      | Some s -> Server.stop ~drain_timeout_ms:3000 s
      | None -> ());
      srv := None;
      Repl.promote rep;
      exec_ok rdb (Printf.sprintf "insert into kv values (%d)" ((seed * 1000) + 999));
      List.iter
        (fun v ->
          if count rdb (Printf.sprintf "select k from kv where k = %d" v) < 1
          then
            Alcotest.fail
              (Printf.sprintf "seed %d: acked row %d lost across failover"
                 seed v))
        !acked)

let test_repl_chaos () =
  let width = sweep_width 6 in
  for seed = 1 to width do
    chaos_one seed
  done

(* ---------- suite ---------- *)

let suite =
  [
    Alcotest.test_case "backoff: deterministic, capped, hint-floored" `Quick
      test_backoff;
    Alcotest.test_case "persistent client survives a server restart" `Quick
      test_persistent_reconnect;
    Alcotest.test_case "per-client quota sheds with a typed reason" `Quick
      test_quota_admission;
    Alcotest.test_case "per-client quota end to end over the wire" `Slow
      test_quota_wire;
    Alcotest.test_case "disk-full degrades to read-only, acks survive" `Quick
      test_disk_full_degrade;
    Alcotest.test_case "replica bootstraps, streams, redirects writes" `Quick
      test_repl_basic;
    Alcotest.test_case "replica resumes from its durable mark" `Quick
      test_repl_restart_resume;
    Alcotest.test_case "checkpoint epoch bump forces a snapshot re-sync"
      `Quick test_repl_checkpoint_resync;
    Alcotest.test_case "bootstrap races concurrent commits" `Quick
      test_repl_bootstrap_race;
    Alcotest.test_case "torn stream detected and healed" `Quick
      test_repl_torn_stream;
    Alcotest.test_case "a failed snapshot install escalates, then heals"
      `Quick test_repl_install_checkpoint_failure;
    Alcotest.test_case "promote refuses the old primary's rewind" `Quick
      test_promote_rewind_rejected;
    Alcotest.test_case "promoted history flagged diverged on restart" `Quick
      test_promoted_history_flagged_on_restart;
    Alcotest.test_case "chaos: partitions, crashes, failover, zero loss"
      `Slow test_repl_chaos;
  ]
