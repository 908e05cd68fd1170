(* The write-ahead log: checksummed, length-prefixed logical redo
   records in a single append-only file.

   Layout:

     header   "GWAL0001" (8 bytes) | epoch u64 LE (8 bytes)
     record*  "GR" (2) | payload len u32 LE | crc32(payload) u32 LE
              | payload

   Records are *logical*: the canonical text of a committed DDL/DML
   statement, or the parameters of a bulk TPC-H load (which is
   deterministic in its seed, so replay regenerates identical rows).
   Queries never touch the log.

   The epoch ties the log to the snapshot that covers its prefix: a
   checkpoint stamps the snapshot with (epoch, offset) and then resets
   the log under epoch+1, so recovery can tell "records before the
   snapshot" from "records after it" even when a crash lands between
   the snapshot rename and the log reset (see Recovery).

   Durability is explicit: [append] only writes; [fsync] makes all
   pending records durable at once and records the group-commit batch
   size in [Wal_stats].  [durable_length] tracks the prefix an fsync
   has covered — the crash simulation at the [Fsync] hook point drops
   everything past it, exactly like a power cut dropping the page
   cache.

   Torn-tail handling lives in [scan]: the first record that fails its
   checksum (or runs past end-of-file) ends the readable prefix.  If a
   *valid* record exists after the bad bytes the log did not tear — it
   was corrupted in place — and scanning raises the typed
   [Errors.Recovery_error] instead of silently resuming. *)

type record =
  | Stmt of string  (* canonical SQL text of a committed DDL/DML statement *)
  | Load_tpch of { seed : int option; msf : float }
  | Txn_begin of int   (* opens a transaction group: the following Stmt
                          records belong to transaction [id] ... *)
  | Txn_commit of int  (* ... and take effect only when its commit marker
                          is durable.  The whole group is appended at
                          COMMIT time, so a crash can only ever leave an
                          unterminated (= uncommitted) trailing group,
                          which recovery discards. *)
  | Repl_mark of { repl_epoch : int; repl_offset : int }
      (* replication watermark: a replica logs each applied batch as one
         local transaction group whose last payload record is the
         primary-side (epoch, offset) the batch reached.  Because
         recovery replays only complete groups, the mark and the data it
         covers are atomic — a crash can never separate them, so catch-up
         resumes exactly once from the last durable mark.  A primary
         never writes these; replay treats them as position-only. *)

let magic = "GWAL0001"
let header_len = 16
let marker = "GR"
let record_overhead = 10  (* marker 2 + len 4 + crc 4 *)

(* ---------- fixed-width little-endian codec ---------- *)

let put_u32 buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let put_u64 buf v =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let get_u32 s pos =
  let b i = Char.code s.[pos + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let get_u64 s pos =
  let b i = Char.code s.[pos + i] in
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor b i
  done;
  !v

(* ---------- record payload codec ---------- *)

let encode_payload = function
  | Stmt sql ->
      let buf = Buffer.create (String.length sql + 1) in
      Buffer.add_char buf '\001';
      Buffer.add_string buf sql;
      Buffer.contents buf
  | Load_tpch { seed; msf } ->
      let buf = Buffer.create 18 in
      Buffer.add_char buf '\002';
      Buffer.add_char buf (if seed = None then '\000' else '\001');
      put_u64 buf (match seed with Some s -> s | None -> 0);
      let bits = Int64.bits_of_float msf in
      for i = 0 to 7 do
        Buffer.add_char buf
          (Char.chr
             (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF))
      done;
      Buffer.contents buf
  | Txn_begin id ->
      let buf = Buffer.create 9 in
      Buffer.add_char buf '\003';
      put_u64 buf id;
      Buffer.contents buf
  | Txn_commit id ->
      let buf = Buffer.create 9 in
      Buffer.add_char buf '\004';
      put_u64 buf id;
      Buffer.contents buf
  | Repl_mark { repl_epoch; repl_offset } ->
      let buf = Buffer.create 17 in
      Buffer.add_char buf '\005';
      put_u64 buf repl_epoch;
      put_u64 buf repl_offset;
      Buffer.contents buf

let decode_payload payload =
  if payload = "" then Error "empty payload"
  else
    match payload.[0] with
    | '\001' -> Ok (Stmt (String.sub payload 1 (String.length payload - 1)))
    | '\003' when String.length payload = 9 -> Ok (Txn_begin (get_u64 payload 1))
    | '\004' when String.length payload = 9 ->
        Ok (Txn_commit (get_u64 payload 1))
    | ('\003' | '\004') -> Error "bad txn marker payload size"
    | '\005' when String.length payload = 17 ->
        Ok
          (Repl_mark
             { repl_epoch = get_u64 payload 1; repl_offset = get_u64 payload 9 })
    | '\005' -> Error "bad repl mark payload size"
    | '\002' ->
        if String.length payload <> 18 then Error "bad load_tpch payload size"
        else
          let seed =
            if payload.[1] = '\000' then None else Some (get_u64 payload 2)
          in
          let bits = ref 0L in
          for i = 7 downto 0 do
            bits :=
              Int64.logor
                (Int64.shift_left !bits 8)
                (Int64.of_int (Char.code payload.[10 + i]))
          done;
          Ok (Load_tpch { seed; msf = Int64.float_of_bits !bits })
    | c -> Error (Printf.sprintf "unknown record tag %d" (Char.code c))

let record_to_string = function
  | Stmt sql -> Printf.sprintf "stmt %s" sql
  | Load_tpch { seed; msf } ->
      Printf.sprintf "load_tpch msf=%g%s" msf
        (match seed with Some s -> Printf.sprintf " seed=%d" s | None -> "")
  | Txn_begin id -> Printf.sprintf "txn_begin %d" id
  | Txn_commit id -> Printf.sprintf "txn_commit %d" id
  | Repl_mark { repl_epoch; repl_offset } ->
      Printf.sprintf "repl_mark %d:%d" repl_epoch repl_offset

let encode_record r =
  let payload = encode_payload r in
  let buf = Buffer.create (String.length payload + record_overhead) in
  Buffer.add_string buf marker;
  put_u32 buf (String.length payload);
  put_u32 buf (Crc32.string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* ---------- the append handle ---------- *)

type t = {
  path : string;
  fd : Unix.file_descr;
  stats : Wal_stats.t;
  mutable epoch : int;
  mutable len : int;           (* current end offset *)
  mutable durable : int;       (* prefix covered by the last fsync *)
  mutable pending : int;       (* records appended since the last fsync *)
  mutable closed : bool;
}

(* A networked process sees signals the batch CLI never did (SIGTERM
   drains, timer wheels, thread wake-ups), so every WAL write and fsync
   must survive EINTR and partial writes.  Progress-free retries are
   bounded: a descriptor that does nothing but EINTR (or write 0 bytes)
   for [max_io_retries] consecutive attempts is broken, and giving up
   with a typed error beats spinning forever inside the commit path.
   Partial writes don't count against the bound — they made progress. *)
let max_io_retries = 64

type write_fault = Short_write | Eintr | Enospc

(* Injectable fault site for the unit tests: consulted before every
   write syscall.  [Short_write] forces a 1-byte partial write,
   [Eintr] makes the attempt fail as if a signal landed mid-write,
   [Enospc] as if the device ran out of space. *)
let write_fault_hook : (unit -> write_fault option) ref = ref (fun () -> None)

let set_write_fault f =
  write_fault_hook := (match f with Some f -> f | None -> fun () -> None)

let write_all fd s pos len =
  let written = ref pos and remaining = ref len and stalls = ref 0 in
  while !remaining > 0 do
    let n =
      try
        match !write_fault_hook () with
        | Some Eintr -> raise (Unix.Unix_error (Unix.EINTR, "write", "injected"))
        | Some Enospc ->
            raise (Unix.Unix_error (Unix.ENOSPC, "write", "injected"))
        | Some Short_write when !remaining > 1 ->
            Unix.write_substring fd s !written 1
        | _ -> Unix.write_substring fd s !written !remaining
      with
      | Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> 0
      | Unix.Unix_error (Unix.ENOSPC, _, _) ->
          (* No retry can help and crashing loses the process for a
             recoverable condition: surface the typed error so the
             engine can degrade to read-only.  A partial record already
             on disk is a torn tail recovery quarantines. *)
          Errors.disk_fullf
            "device out of space with %d byte(s) unwritten" !remaining
    in
    if n > 0 then begin
      stalls := 0;
      written := !written + n;
      remaining := !remaining - n
    end
    else begin
      incr stalls;
      if !stalls > max_io_retries then
        Errors.exec_errorf
          "write made no progress after %d retries (%d byte(s) \
           unwritten)"
          max_io_retries !remaining
    end
  done

let fsync_fd fd =
  let rec go retries =
    try Unix.fsync fd with
    | Unix.Unix_error (Unix.EINTR, _, _) ->
        if retries >= max_io_retries then
          Errors.exec_errorf "fsync interrupted %d times, giving up"
            max_io_retries;
        go (retries + 1)
    | Unix.Unix_error (Unix.ENOSPC, _, _) ->
        Errors.disk_fullf "fsync failed, device out of space"
  in
  go 0

let header_bytes ~epoch =
  let buf = Buffer.create header_len in
  Buffer.add_string buf magic;
  put_u64 buf epoch;
  Buffer.contents buf

let create ?(stats = Wal_stats.create (Metrics.registry ())) path ~epoch =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  write_all fd (header_bytes ~epoch) 0 header_len;
  fsync_fd fd;
  {
    path;
    fd;
    stats;
    epoch;
    len = header_len;
    durable = header_len;
    pending = 0;
    closed = false;
  }

(** Open an existing log for appending at [length] (the end of its
    valid prefix, as established by {!scan} — recovery truncates any
    quarantined tail first). *)
let open_existing ?(stats = Wal_stats.create (Metrics.registry ())) path ~epoch ~length =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd length Unix.SEEK_SET);
  {
    path;
    fd;
    stats;
    epoch;
    len = length;
    durable = length;  (* everything on disk at open time is durable *)
    pending = 0;
    closed = false;
  }

let epoch t = t.epoch
let stats t = t.stats
let length t = t.len
let durable_length t = t.durable
let pending t = t.pending

let append t r =
  let bytes = encode_record r in
  let n = String.length bytes in
  if Fault.crash_now Fault.Append then begin
    (* the process dies mid-write: half the record reaches the disk and
       is even made durable — the canonical torn tail recovery must
       truncate away *)
    let torn = max 1 (n / 2) in
    write_all t.fd bytes 0 torn;
    fsync_fd t.fd;
    raise (Fault.Crash Fault.Append)
  end;
  let offset = t.len in
  write_all t.fd bytes 0 n;
  t.len <- t.len + n;
  t.pending <- t.pending + 1;
  Metrics.incr t.stats.Wal_stats.appends;
  Metrics.add t.stats.Wal_stats.bytes n;
  offset

let fsync t =
  if t.pending > 0 || t.durable < t.len then begin
    if Fault.crash_now Fault.Fsync then begin
      (* power cut before the fsync completes: the page cache —
         everything past the durable prefix — is gone *)
      Unix.ftruncate t.fd t.durable;
      raise (Fault.Crash Fault.Fsync)
    end;
    fsync_fd t.fd;
    Metrics.incr t.stats.Wal_stats.fsyncs;
    Metrics.add t.stats.Wal_stats.batched_records t.pending;
    Metrics.raise_to t.stats.Wal_stats.max_batch t.pending;
    t.durable <- t.len;
    t.pending <- 0
  end

(** Checkpoint epilogue: drop every record (the snapshot now covers
    them) and restart the log under a new epoch. *)
let reset t ~epoch =
  Unix.ftruncate t.fd 0;
  ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
  write_all t.fd (header_bytes ~epoch) 0 header_len;
  fsync_fd t.fd;
  t.epoch <- epoch;
  t.len <- header_len;
  t.durable <- header_len;
  t.pending <- 0

let close t =
  if not t.closed then begin
    fsync t;
    Unix.close t.fd;
    t.closed <- true
  end

(* ---------- scanning (recovery / waldump) ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type parsed =
  | Record of record * int  (* decoded record, next offset *)
  | Incomplete              (* frame runs past the end of [data] *)
  | Bad of string           (* why this offset does not hold a record *)
  | Eof

(* [Incomplete] vs [Bad] is the load-bearing distinction for the
   replication applier: a record cut off by the end of the buffer means
   "wait for more bytes", while a bad marker or checksum means the
   stream itself is torn and the connection must be abandoned.  For a
   whole file the two collapse: a frame past EOF is a torn tail. *)
let parse_at data off =
  let len = String.length data in
  if off = len then Eof
  else if off + record_overhead > len then Incomplete
  else if String.sub data off 2 <> marker then Bad "bad record marker"
  else
    let plen = get_u32 data (off + 2) in
    let crc = get_u32 data (off + 6) in
    let start = off + record_overhead in
    if start + plen > len then Incomplete
    else if Crc32.string ~pos:start ~len:plen data <> crc then
      Bad "checksum mismatch"
    else
      match decode_payload (String.sub data start plen) with
      | Ok r -> Record (r, start + plen)
      | Error e -> Bad e

(* Is there a valid record anywhere after [off]?  Distinguishes a torn
   tail (crash artifact, recoverable) from in-place corruption. *)
let valid_record_after data off =
  let len = String.length data in
  let rec search i =
    if i >= len - record_overhead then None
    else if data.[i] = marker.[0] && data.[i + 1] = marker.[1] then
      match parse_at data i with
      | Record _ -> Some i
      | _ -> search (i + 1)
    else search (i + 1)
  in
  search (off + 1)

type scan_result = {
  scanned_epoch : int;
  records : (int * record) list;   (* offset, record — in log order *)
  torn : Errors.recovery_violation option;
  valid_length : int;              (* end of the readable prefix *)
  file_length : int;
}

let scan path =
  let data = read_file path in
  let file_length = String.length data in
  if file_length < header_len || String.sub data 0 8 <> magic then
    Errors.recovery_errorf ~at_offset:0 Errors.Wal_header_corrupt
      "%s: bad or truncated WAL header (%d bytes)" path file_length;
  let scanned_epoch = get_u64 data 8 in
  let rec go acc off =
    match parse_at data off with
    | Eof ->
        { scanned_epoch; records = List.rev acc; torn = None;
          valid_length = off; file_length }
    | Record (r, next) -> go ((off, r) :: acc) next
    | (Incomplete | Bad _) as p -> (
        let why =
          match p with Bad why -> why | _ -> "truncated record"
        in
        match valid_record_after data off with
        | Some at ->
            Errors.recovery_errorf ~at_offset:off Errors.Mid_log_corruption
              "%s: %s at offset %d, but a valid record follows at %d — \
               refusing to drop committed records" path why off at
        | None ->
            {
              scanned_epoch;
              records = List.rev acc;
              torn =
                Some
                  {
                    Errors.rkind = Errors.Torn_tail;
                    at_offset = off;
                    rdetail =
                      Printf.sprintf "%s (%d trailing byte(s))" why
                        (file_length - off);
                  };
              valid_length = off;
              file_length;
            })
  in
  go [] header_len

(* ---------- waldump ---------- *)

(** Pretty-print every record with offset and checksum status; corrupt
    bytes are reported, never raised over — this is the debugging view
    of a damaged log. *)
let dump ppf path =
  let data = read_file path in
  let file_length = String.length data in
  if file_length < header_len || String.sub data 0 8 <> magic then
    Format.fprintf ppf "%s: bad or truncated WAL header (%d bytes)@." path
      file_length
  else begin
    Format.fprintf ppf "%s: epoch %d, %d bytes@." path (get_u64 data 8)
      file_length;
    let rec go off n =
      match parse_at data off with
      | Eof -> Format.fprintf ppf "%d record(s), clean end of log@." n
      | Record (r, next) ->
          Format.fprintf ppf "%8d  ok    %s@." off (record_to_string r);
          go next (n + 1)
      | (Incomplete | Bad _) as p ->
          let why =
            match p with Bad why -> why | _ -> "truncated record"
          in
          Format.fprintf ppf "%8d  BAD   %s@." off why;
          (match valid_record_after data off with
          | Some at ->
              Format.fprintf ppf
                "          mid-log corruption: next valid record at %d@." at;
              go at n
          | None ->
              Format.fprintf ppf
                "          torn tail: %d byte(s) would be quarantined@."
                (file_length - off))
    in
    go header_len 0
  end
