(* Binary snapshots of the whole database (catalog shape + every row).

   Layout:

     "GSNAP001" (8) | epoch u64 LE | wal_offset u64 LE
     | body len u32 LE | crc32(body) u32 LE | body

   The (epoch, wal_offset) stamp records exactly which WAL prefix the
   snapshot covers: recovery loads the snapshot, then replays only the
   records past that point (same epoch) or the whole successor-epoch
   log.  That stamp is what keeps replay idempotent when a crash lands
   between the snapshot rename and the WAL reset — both files coexist
   and the offset says which records are already folded in.

   Publication is atomic: the body is written to a temp file in the
   same directory, fsynced, and renamed over the target.  A crash
   before the rename (the [Fault.Rename] hook point) leaves only an
   orphan temp file the next checkpoint overwrites; a crash after it
   leaves a complete, checksummed snapshot.  There is never a state
   where the snapshot path holds a half-written file. *)

let magic = "GSNAP001"
let header_len = 32

(* ---------- body codec ---------- *)

let put_i64 buf (v : int64) =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
  done

let put_str buf s =
  Wal.put_u32 buf (String.length s);
  Buffer.add_string buf s

let put_str_list buf l =
  Wal.put_u32 buf (List.length l);
  List.iter (put_str buf) l

let type_tag = function
  | Datatype.Null -> 0
  | Datatype.Int -> 1
  | Datatype.Float -> 2
  | Datatype.Str -> 3
  | Datatype.Bool -> 4

let type_of_tag = function
  | 0 -> Datatype.Null
  | 1 -> Datatype.Int
  | 2 -> Datatype.Float
  | 3 -> Datatype.Str
  | 4 -> Datatype.Bool
  | t -> Errors.recovery_errorf Errors.Snapshot_corrupt "bad type tag %d" t

let put_value buf = function
  | Value.Null -> Buffer.add_char buf '\000'
  | Value.Int i ->
      Buffer.add_char buf '\001';
      put_i64 buf (Int64.of_int i)
  | Value.Float f ->
      Buffer.add_char buf '\002';
      put_i64 buf (Int64.bits_of_float f)
  | Value.Str s ->
      Buffer.add_char buf '\003';
      put_str buf s
  | Value.Sym _ as v ->
      (* dictionary handles serialize as their decoded string: the
         snapshot is dictionary-independent, and the insert path
         re-encodes on load — so an encoded and an unencoded database
         with the same contents digest identically *)
      Buffer.add_char buf '\003';
      put_str buf (Value.to_string v)
  | Value.Bool b ->
      Buffer.add_char buf '\004';
      Buffer.add_char buf (if b then '\001' else '\000')

let encode_body catalog =
  let buf = Buffer.create 4096 in
  let tables = Catalog.table_names catalog in
  Wal.put_u32 buf (List.length tables);
  List.iter
    (fun tname ->
      let table = Catalog.find_table catalog tname in
      put_str buf (Table.name table);
      put_str_list buf (Table.primary_key table);
      let fks = Table.foreign_keys table in
      Wal.put_u32 buf (List.length fks);
      List.iter
        (fun (fk : Table.foreign_key) ->
          put_str_list buf fk.fk_columns;
          put_str buf fk.fk_table;
          put_str_list buf fk.fk_ref_columns)
        fks;
      let cols = Schema.to_list (Table.schema table) in
      Wal.put_u32 buf (List.length cols);
      List.iter
        (fun (c : Schema.column) ->
          put_str buf c.cname;
          Buffer.add_char buf (Char.chr (type_tag c.ctype)))
        cols;
      Wal.put_u32 buf (Table.cardinality table);
      Table.iter
        (fun row -> List.iter (put_value buf) (Tuple.to_list row))
        table)
    tables;
  let indexes = Catalog.index_specs catalog in
  Wal.put_u32 buf (List.length indexes);
  List.iter
    (fun (name, table, columns) ->
      put_str buf name;
      put_str buf table;
      put_str_list buf columns)
    indexes;
  Buffer.contents buf

(* decoding — a cursor over the body string; every short read raises
   the typed recovery error (the checksum already passed, so a decode
   failure means a codec bug or a forged body, not disk damage) *)

type cursor = { data : string; mutable pos : int }

let need cur n what =
  if cur.pos + n > String.length cur.data then
    Errors.recovery_errorf ~at_offset:cur.pos Errors.Snapshot_corrupt
      "snapshot body ends inside %s" what

let get_u32 cur =
  need cur 4 "u32";
  let v = Wal.get_u32 cur.data cur.pos in
  cur.pos <- cur.pos + 4;
  v

let get_i64 cur =
  need cur 8 "i64";
  let v = ref 0L in
  for i = 7 downto 0 do
    v :=
      Int64.logor
        (Int64.shift_left !v 8)
        (Int64.of_int (Char.code cur.data.[cur.pos + i]))
  done;
  cur.pos <- cur.pos + 8;
  !v

let get_byte cur =
  need cur 1 "byte";
  let c = Char.code cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

let get_str cur =
  let n = get_u32 cur in
  need cur n "string";
  let s = String.sub cur.data cur.pos n in
  cur.pos <- cur.pos + n;
  s

(* A count of items of at least [each] bytes apiece, bounded by the
   bytes that remain: a forged count fails here, before anything is
   allocated for it. *)
let get_count cur ~each what =
  let n = get_u32 cur in
  let left = String.length cur.data - cur.pos in
  if n * each > left then
    Errors.recovery_errorf ~at_offset:cur.pos Errors.Snapshot_corrupt
      "%d %s cannot fit in the %d byte(s) left" n what left;
  n

let get_str_list cur =
  let n = get_count cur ~each:4 "strings" in
  List.init n (fun _ -> get_str cur)

let get_value cur =
  match get_byte cur with
  | 0 -> Value.Null
  | 1 -> Value.Int (Int64.to_int (get_i64 cur))
  | 2 -> Value.Float (Int64.float_of_bits (get_i64 cur))
  | 3 -> Value.Str (get_str cur)
  | 4 -> Value.Bool (get_byte cur <> 0)
  | t ->
      Errors.recovery_errorf ~at_offset:cur.pos Errors.Snapshot_corrupt
        "bad value tag %d" t

(* A forged body can name a column, table or type the catalog refuses:
   that is a corrupt body too. *)
let rebuild cur f =
  try f () with
  | Errors.Recovery_error _ as e -> raise e
  | e when Errors.is_engine_error e ->
      Errors.recovery_errorf ~at_offset:cur.pos Errors.Snapshot_corrupt "%s"
        (Errors.to_string e)

let decode_body data =
  let cur = { data; pos = 0 } in
  let catalog = Catalog.create () in
  let ntables = get_count cur ~each:20 "tables" in
  for _ = 1 to ntables do
    let name = get_str cur in
    let primary_key = get_str_list cur in
    let nfks = get_count cur ~each:12 "foreign keys" in
    let foreign_keys =
      List.init nfks (fun _ ->
          let fk_columns = get_str_list cur in
          let fk_table = get_str cur in
          let fk_ref_columns = get_str_list cur in
          { Table.fk_columns; fk_table; fk_ref_columns })
    in
    let ncols = get_count cur ~each:5 "columns" in
    let columns =
      List.init ncols (fun _ ->
          let cname = get_str cur in
          (cname, type_of_tag (get_byte cur)))
    in
    let table =
      rebuild cur (fun () -> Table.create ~primary_key ~foreign_keys name columns)
    in
    (* every value takes at least its tag byte *)
    let arity = List.length columns in
    let nrows = get_count cur ~each:(max arity 1) "rows" in
    if arity = 0 && nrows > 0 then
      Errors.recovery_errorf ~at_offset:cur.pos Errors.Snapshot_corrupt
        "zero-arity table %s with %d row(s)" name nrows;
    let rows =
      List.init nrows (fun _ ->
          Tuple.of_list (List.init arity (fun _ -> get_value cur)))
    in
    rebuild cur (fun () ->
        Table.insert_all table rows;
        Catalog.add_table catalog table)
  done;
  let nindexes = get_count cur ~each:12 "indexes" in
  for _ = 1 to nindexes do
    let name = get_str cur in
    let table = get_str cur in
    let columns = get_str_list cur in
    rebuild cur (fun () -> Catalog.create_index catalog ~name ~table ~columns)
  done;
  if cur.pos <> String.length data then
    Errors.recovery_errorf ~at_offset:cur.pos Errors.Snapshot_corrupt
      "%d trailing byte(s) after snapshot body"
      (String.length data - cur.pos);
  catalog

(* ---------- file I/O ---------- *)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

(** Write a snapshot of [catalog] stamped with [(epoch, wal_offset)] to
    [path], atomically (temp file + fsync + rename).  The
    [Fault.Rename] crash site fires after the temp file is durable but
    before the rename — the state a crash between those syscalls
    leaves.  The writes and the fsync are the WAL's, so a full device
    raises [Errors.Disk_full]; any other I/O failure raises
    [Errors.Exec_error]. *)
let write catalog ~epoch ~wal_offset ~path =
  let body = encode_body catalog in
  let buf = Buffer.create (header_len + String.length body) in
  Buffer.add_string buf magic;
  Wal.put_u64 buf epoch;
  Wal.put_u64 buf wal_offset;
  Wal.put_u32 buf (String.length body);
  Wal.put_u32 buf (Crc32.string body);
  Buffer.add_string buf body;
  let bytes = Buffer.contents buf in
  let tmp = path ^ ".tmp" in
  (try
     let fd =
       Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
     in
     Fun.protect
       ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
       (fun () ->
         Wal.write_all fd bytes 0 (String.length bytes);
         Wal.fsync_fd fd);
     if Fault.crash_now Fault.Rename then raise (Fault.Crash Fault.Rename);
     Unix.rename tmp path
   with
  | Unix.Unix_error (Unix.ENOSPC, call, _) ->
      Errors.disk_fullf "snapshot %s: device out of space" call
  | Unix.Unix_error (err, call, arg) ->
      Errors.exec_errorf "snapshot %s %s: %s" call arg
        (Unix.error_message err));
  fsync_dir (Filename.dirname path);
  String.length bytes

type loaded = { catalog : Catalog.t; snap_epoch : int; wal_offset : int }

let load path =
  let data = Wal.read_file path in
  let len = String.length data in
  if len < header_len || String.sub data 0 8 <> magic then
    Errors.recovery_errorf ~at_offset:0 Errors.Snapshot_corrupt
      "%s: bad or truncated snapshot header (%d bytes)" path len;
  let snap_epoch = Wal.get_u64 data 8 in
  let wal_offset = Wal.get_u64 data 16 in
  let body_len = Wal.get_u32 data 24 in
  let crc = Wal.get_u32 data 28 in
  if header_len + body_len <> len then
    Errors.recovery_errorf ~at_offset:header_len Errors.Snapshot_corrupt
      "%s: body length %d does not match file size %d" path body_len len;
  if Crc32.string ~pos:header_len ~len:body_len data <> crc then
    Errors.recovery_errorf ~at_offset:header_len Errors.Snapshot_corrupt
      "%s: body checksum mismatch" path;
  let catalog = decode_body (String.sub data header_len body_len) in
  { catalog; snap_epoch; wal_offset }
