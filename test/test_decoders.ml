(* Decoders of untrusted bytes: wire frames, WAL records, snapshot
   bodies and SQL text.  Fed mutated and truncated valid encodings, each
   may only succeed or raise its own typed error — [Wire.Protocol_error],
   a [Wal.parse_at] verdict ([Bad] / [Incomplete]), [Recovery_error], or
   a [Parse_error] that names a line and column.  Any other exception
   (an index out of bounds, a [Failure] from a number conversion) fails
   the property. *)

module Gen = QCheck2.Gen

let ( let* ) = Gen.( let* )
let ( let+ ) = Gen.( let+ )

(* ---------- mutations ---------- *)

let put_u32_at b i v =
  for k = 0 to 3 do
    if i + k < Bytes.length b then
      Bytes.set b (i + k) (Char.chr ((v lsr (8 * k)) land 0xFF))
  done

(* One edit of [s]: truncate, overwrite a byte, overwrite four bytes
   with a boundary u32 (the length and count fields), insert junk, or
   delete a range. *)
let gen_edit (s : string) : string Gen.t =
  let n = String.length s in
  let pos = Gen.int_bound n in
  Gen.oneof
    [
      Gen.map (fun k -> String.sub s 0 k) pos;
      (let* i = pos in
       let+ c = Gen.char in
       if n = 0 then s
       else
         let b = Bytes.of_string s in
         Bytes.set b (min i (n - 1)) c;
         Bytes.to_string b);
      (let* i = pos in
       let+ v = Gen.oneofl [ 0; 1; 1000; 0xFFFF; 0x7FFFFFFF; 0xFFFFFFFF ] in
       let b = Bytes.of_string s in
       put_u32_at b i v;
       Bytes.to_string b);
      (let* i = pos in
       let+ junk = Gen.string_size (Gen.int_bound 8) in
       String.sub s 0 i ^ junk ^ String.sub s i (n - i));
      (let* i = pos in
       let+ len = Gen.int_bound 8 in
       let len = min len (n - i) in
       String.sub s 0 i ^ String.sub s (i + len) (n - i - len));
    ]

(* One to three edits of one of [valid]. *)
let gen_mutated (valid : string list) : string Gen.t =
  let* s = Gen.oneofl valid in
  let* k = Gen.int_range 1 3 in
  let rec go k s = if k = 0 then Gen.return s else Gen.( >>= ) (gen_edit s) (go (k - 1)) in
  go k s

(* [decode] on [input] returns, or raises an exception [typed] accepts. *)
let typed_only ~typed decode input =
  match decode input with
  | _ -> true
  | exception e when typed e -> true
  | exception e ->
      QCheck2.Test.fail_reportf "untyped exception %s" (Printexc.to_string e)

let fuzz ~name ~typed ~print valid decode =
  QCheck2.Test.make ~count:400 ~long_factor:25 ~name ~print
    (gen_mutated valid) (typed_only ~typed decode)

(* ---------- wire frames ---------- *)

let requests =
  [
    Wire.Query "select gapply(select count(*) from g) from t group by k : g";
    Wire.Meta "\\cache";
    Wire.Auth "token-1";
    Wire.Repl_subscribe { lineage = Wire.Marked; epoch = 3; offset = 4096 };
    Wire.Quit;
  ]

let responses =
  [
    Wire.Rows { count = 2; body = "+---+\n| 1 |\n| 2 |\n+---+\n" };
    Wire.Message "created table t";
    Wire.Explanation "gapply[k : $g]";
    Wire.Failed { cls = "parse"; message = "line 1, column 3: expected FROM" };
    Wire.Overloaded { queue_depth = 16; retry_after_ms = 25; message = "shed" };
    Wire.Repl_snapshot { epoch = 1; offset = 16; body = "snapshot" };
    Wire.Repl_batch { epoch = 2; offset = 32; data = "GR\001\000" };
    Wire.Repl_heartbeat { epoch = 2; offset = 48 };
    Wire.Goodbye;
  ]

(* A frame as tag byte ^ payload, so an edit can hit the tag too. *)
let frame (tag, payload) = String.make 1 tag ^ payload

let unframe decode s =
  if s = "" then raise (Wire.Protocol_error "empty frame")
  else decode s.[0] (String.sub s 1 (String.length s - 1))

let is_protocol_error = function Wire.Protocol_error _ -> true | _ -> false

let prop_wire_requests =
  fuzz ~name:"Wire.decode_request: typed errors only" ~typed:is_protocol_error
    ~print:String.escaped
    (List.map (fun r -> frame (Wire.encode_request r)) requests)
    (unframe Wire.decode_request)

let prop_wire_responses =
  fuzz ~name:"Wire.decode_response: typed errors only" ~typed:is_protocol_error
    ~print:String.escaped
    (List.map (fun r -> frame (Wire.encode_response r)) responses)
    (unframe Wire.decode_response)

(* ---------- WAL records ---------- *)

let wal_records =
  [
    Wal.Stmt "insert into t values (1, 'one')";
    Wal.Load_tpch { seed = Some 7; msf = 0.05 };
    Wal.Load_tpch { seed = None; msf = 1.0 };
    Wal.Txn_begin 4;
    Wal.Txn_commit 4;
    Wal.Repl_mark { repl_epoch = 2; repl_offset = 160 };
  ]

let u32 v =
  let b = Bytes.create 4 in
  put_u32_at b 0 v;
  Bytes.to_string b

(* A payload framed with a correct checksum, so mutated payloads reach
   the record decoder past the CRC check. *)
let reframe payload =
  "GR" ^ u32 (String.length payload) ^ u32 (Crc32.string payload) ^ payload

(* Walk [data] record by record from offset 0, as recovery and the
   replication applier do. *)
let parse_all data =
  let rec go off =
    match Wal.parse_at data off with
    | Wal.Record (_, next) -> if next > off then go next
    | Wal.Incomplete | Wal.Bad _ | Wal.Eof -> ()
  in
  go 0

let is_recovery_error = function Errors.Recovery_error _ -> true | _ -> false

let prop_wal_frames =
  let framed = List.map Wal.encode_record wal_records in
  fuzz ~name:"Wal.parse_at: typed verdicts only" ~typed:is_recovery_error
    ~print:String.escaped
    (String.concat "" framed :: framed)
    parse_all

let prop_wal_payloads =
  let payloads =
    List.map
      (fun r ->
        let s = Wal.encode_record r in
        String.sub s 10 (String.length s - 10))
      wal_records
  in
  fuzz ~name:"Wal.parse_at on re-checksummed payloads: typed verdicts only"
    ~typed:is_recovery_error ~print:String.escaped payloads
    (fun p -> parse_all (reframe p))

(* ---------- snapshot bodies ---------- *)

let snapshot_body () =
  let cat = Support.mini_catalog () in
  Catalog.create_index cat ~name:"ps_part" ~table:"partsupp" ~columns:[ "ps_partkey" ];
  Snapshot.encode_body cat

let prop_snapshot_bodies =
  fuzz ~name:"Snapshot.decode_body: typed errors only" ~typed:is_recovery_error
    ~print:String.escaped [ snapshot_body () ] (fun b -> ignore (Snapshot.decode_body b))

(* A body with no checksum can claim any count.  A table of no columns
   takes no bytes per row, so its row count must be refused outright,
   and a count the remaining bytes cannot hold must be refused before
   anything is allocated for it. *)
let forged_body ~ncols ~nrows =
  String.concat ""
    ([ u32 1; u32 1; "t"; u32 0; u32 0; u32 ncols ]
    @ List.init ncols (fun i -> u32 1 ^ String.make 1 (Char.chr (97 + i)) ^ "\001")
    @ [ u32 nrows; u32 0 ])

let test_forged_row_counts () =
  let expect_corrupt label body =
    match Snapshot.decode_body body with
    | _ -> Alcotest.failf "%s: decoded" label
    | exception Errors.Recovery_error { Errors.rkind = Errors.Snapshot_corrupt; _ } -> ()
  in
  expect_corrupt "1000 rows of no columns" (forged_body ~ncols:0 ~nrows:1000);
  expect_corrupt "2^32 - 1 rows of one column" (forged_body ~ncols:1 ~nrows:0xFFFFFFFF);
  (* an empty zero-column table is still a table *)
  let cat = Snapshot.decode_body (forged_body ~ncols:0 ~nrows:0) in
  Alcotest.(check int) "empty table decodes" 0
    (Table.cardinality (Catalog.find_table cat "t"))

(* ---------- SQL text ---------- *)

(* A parse error must say where: "line L, column C". *)
let positioned_parse_error = function
  | Errors.Parse_error msg ->
      Scanf.sscanf_opt msg "line %d, column %d" (fun _ _ -> ()) <> None
  | _ -> false

let sql_corpus =
  List.concat_map (fun (_, g, b) -> [ g; b ]) Workloads.figure8_queries
  @ [
      "select 12345678901234567890 from t";
      "select 1.5e3, 'it''s' from t where a between 1 and 2";
      Workloads.rule_exists_query ~price_bound:1500.;
    ]
  @ List.map Sql_ast.query_to_string
      (Gen.generate ~rand:(Random.State.make [| 5 |]) ~n:20 Test_differential.gen_query)

let prop_sql =
  fuzz ~name:"Sql_parser.parse_query_string: positioned parse errors only"
    ~typed:positioned_parse_error ~print:String.escaped sql_corpus
    Sql_parser.parse_query_string

(* Nesting at the parser's limit parses; one level past it is a
   positioned parse error, also out of the engine, not a stack
   overflow.  The query and its select item are two levels, and
   every parenthesis, NOT or unary minus one more. *)
let test_nesting_limit () =
  let nested n ~opening ~closing =
    "select " ^ String.concat "" (List.init n (fun _ -> opening)) ^ "a"
    ^ String.concat "" (List.init n (fun _ -> closing)) ^ " from t"
  in
  let at = Sql_parser.max_depth - 2 in
  List.iter
    (fun (label, opening, closing) ->
      (match Sql_parser.parse_query_string (nested at ~opening ~closing) with
      | _ -> ()
      | exception e ->
          Alcotest.failf "%s at the limit: %s" label (Printexc.to_string e));
      match Sql_parser.parse_query_string (nested (at + 1) ~opening ~closing) with
      | _ -> Alcotest.failf "%s past the limit parsed" label
      | exception e when positioned_parse_error e -> ()
      | exception e ->
          Alcotest.failf "%s past the limit: %s" label (Printexc.to_string e))
    [ ("parentheses", "(", ")"); ("NOT", "not ", ""); ("unary minus", "- ", "") ];
  let db = Engine.create () in
  (match Engine.exec db "create table t (a int)" with
  | Engine.Failed e -> raise e
  | _ -> ());
  (match Engine.exec db (nested at ~opening:"(" ~closing:")") with
  | Engine.Rows _ -> ()
  | _ -> Alcotest.fail "the engine should run a query at the limit");
  (match Engine.exec db (nested (at + 1) ~opening:"(" ~closing:")") with
  | _ -> Alcotest.fail "expected a parse error past the limit"
  | exception e ->
      Alcotest.(check bool) "a typed engine error" true
        (Errors.is_engine_error e && positioned_parse_error e));
  (* a flat AND / OR chain is no nesting, however long: one longer than
     the limit parses right-nested and runs *)
  let chain op n =
    "select a from t where "
    ^ String.concat (" " ^ op ^ " ") (List.init n (fun i -> Printf.sprintf "a = %d" i))
  in
  let where sql =
    match Sql_parser.parse_query_string sql with
    | Sql_ast.Select { where = Some w; _ } -> w
    | _ -> Alcotest.fail "expected a SELECT with a WHERE"
  in
  Alcotest.(check bool) "a or b or c is a or (b or c)" true
    (match where (chain "or" 3) with
    | Sql_ast.Binop (Sql_ast.Or, _, Sql_ast.Binop (Sql_ast.Or, _, _)) -> true
    | _ -> false);
  (match Engine.exec db "insert into t values (1), (2), (20000)" with
  | Engine.Failed e -> raise e
  | _ -> ());
  List.iter
    (fun (op, rows) ->
      match Engine.exec db (chain op (Sql_parser.max_depth + 50)) with
      | Engine.Rows r ->
          Alcotest.(check int) (op ^ " chain past the limit") rows
            (List.length (Relation.rows r))
      | _ -> Alcotest.failf "the engine should run a long %s chain" op)
    [ ("or", 2); ("and", 0) ]

let suite =
  Alcotest.test_case "snapshot: forged row counts are refused" `Quick
    test_forged_row_counts
  :: Alcotest.test_case "SQL: nesting past the parser's limit is a parse error"
       `Quick test_nesting_limit
  :: List.map QCheck_alcotest.to_alcotest
       [
         prop_wire_requests;
         prop_wire_responses;
         prop_wal_frames;
         prop_wal_payloads;
         prop_snapshot_bodies;
         prop_sql;
       ]
