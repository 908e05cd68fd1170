(* Length-framed wire protocol.

   Every frame is [tag (1 byte) | payload length u32 LE | payload]; the
   payload layout depends on the tag.  Strings are raw bytes (the SQL
   layer is byte-transparent).  Integers inside payloads are u32 LE.

   Requests:
     'Q' query     payload = SQL text (one statement)
     'M' meta      payload = backslash command
     'A' auth      payload = client token (admission-quota identity)
     'S' subscribe payload = lineage u8 | epoch u64 LE | offset u64 LE
     'X' quit      payload empty

   Responses:
     'R' rows        payload = row count u32 | rendered table
     'm' message     payload = text
     'E' explanation payload = text
     'F' failed      payload = class len u8 | class | message
     'O' overloaded  payload = queue depth u32 | retry-after ms u32 | message
     's' snapshot    payload = epoch u64 | wal offset u64 | snapshot body
     'b' batch       payload = epoch u64 | start offset u64 | raw WAL bytes
     'h' heartbeat   payload = epoch u64 | durable offset u64
     'G' goodbye     payload empty

   A subscription ('S') turns the connection into a one-way replication
   stream: the primary answers with 's'/'b'/'h' frames (or a typed 'F')
   until either side closes.  The batch payload is the primary's WAL
   bytes verbatim — records keep their own CRC framing, so the replica
   re-validates integrity with exactly the recovery scanner.

   A frame over [max_frame] (or an unknown tag) raises
   {!Protocol_error}: the server answers with a typed 'F' frame of
   class "protocol" and closes, so a confused client never hangs. *)

exception Protocol_error of string
exception Frame_too_large of int

let max_frame = 64 * 1024 * 1024

(* What a subscriber claims about its local state; the primary's
   position rules key on this.  [Marked] is a genuine replica resuming
   from a durable replication mark; [Bootstrap] has nothing (or asks for
   a fresh snapshot explicitly); [Unmarked] carries local history that
   never came from replication — an ex-primary whose diverged tail must
   be rejected, never silently rewound. *)
type lineage = Bootstrap | Marked | Unmarked

type request =
  | Query of string
  | Meta of string
  | Auth of string
  | Repl_subscribe of { lineage : lineage; epoch : int; offset : int }
  | Quit

type response =
  | Rows of { count : int; body : string }
  | Message of string
  | Explanation of string
  | Failed of { cls : string; message : string }
  | Overloaded of { queue_depth : int; retry_after_ms : int; message : string }
  | Repl_snapshot of { epoch : int; offset : int; body : string }
  | Repl_batch of { epoch : int; offset : int; data : string }
  | Repl_heartbeat of { epoch : int; offset : int }
  | Goodbye

(* ---------- payload primitives ---------- *)

let put_u32 buf n =
  if n < 0 || n > 0xFFFFFFFF then
    raise (Protocol_error (Printf.sprintf "u32 out of range: %d" n));
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let get_u32 s pos =
  if pos + 4 > String.length s then
    raise (Protocol_error "truncated u32 in payload");
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

(* Replication positions are byte offsets and epochs: they outgrow u32
   on any long-lived log, so they ride as u64 (non-negative). *)
let put_u64 buf n =
  if n < 0 then raise (Protocol_error (Printf.sprintf "u64 out of range: %d" n));
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xff))
  done

let get_u64 s pos =
  if pos + 8 > String.length s then
    raise (Protocol_error "truncated u64 in payload");
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code s.[pos + i]
  done;
  !v

let lineage_to_byte = function
  | Bootstrap -> '\000'
  | Marked -> '\001'
  | Unmarked -> '\002'

let lineage_of_byte = function
  | '\000' -> Bootstrap
  | '\001' -> Marked
  | '\002' -> Unmarked
  | c -> raise (Protocol_error (Printf.sprintf "unknown lineage byte %C" c))

(* ---------- encoding (to tag + payload) ---------- *)

let encode_request = function
  | Query sql -> ('Q', sql)
  | Meta cmd -> ('M', cmd)
  | Auth token -> ('A', token)
  | Repl_subscribe { lineage; epoch; offset } ->
      let buf = Buffer.create 17 in
      Buffer.add_char buf (lineage_to_byte lineage);
      put_u64 buf epoch;
      put_u64 buf offset;
      ('S', Buffer.contents buf)
  | Quit -> ('X', "")

(* A response as its tag, the fixed fields that open its payload, and
   the variable tail (reply body, message, snapshot or WAL bytes).  The
   tail is not copied here: [encode_response] and [write_response] each
   copy it once, into their exact-size result. *)
let response_parts = function
  | Rows { count; body } ->
      let buf = Buffer.create 4 in
      put_u32 buf count;
      ('R', Buffer.contents buf, body)
  | Message m -> ('m', "", m)
  | Explanation e -> ('E', "", e)
  | Failed { cls; message } ->
      if String.length cls > 255 then
        raise (Protocol_error "error class too long");
      ('F', String.make 1 (Char.chr (String.length cls)) ^ cls, message)
  | Overloaded { queue_depth; retry_after_ms; message } ->
      let buf = Buffer.create 8 in
      put_u32 buf queue_depth;
      put_u32 buf retry_after_ms;
      ('O', Buffer.contents buf, message)
  | Repl_snapshot { epoch; offset; body } ->
      let buf = Buffer.create 16 in
      put_u64 buf epoch;
      put_u64 buf offset;
      ('s', Buffer.contents buf, body)
  | Repl_batch { epoch; offset; data } ->
      let buf = Buffer.create 16 in
      put_u64 buf epoch;
      put_u64 buf offset;
      ('b', Buffer.contents buf, data)
  | Repl_heartbeat { epoch; offset } ->
      let buf = Buffer.create 16 in
      put_u64 buf epoch;
      put_u64 buf offset;
      ('h', Buffer.contents buf, "")
  | Goodbye -> ('G', "", "")

let encode_response r =
  let tag, head, tail = response_parts r in
  (tag, if head = "" then tail else head ^ tail)

(* ---------- decoding (from tag + payload) ---------- *)

let decode_request tag payload =
  match tag with
  | 'Q' -> Query payload
  | 'M' -> Meta payload
  | 'A' -> Auth payload
  | 'S' ->
      if String.length payload <> 17 then
        raise (Protocol_error "bad subscribe payload size");
      Repl_subscribe
        {
          lineage = lineage_of_byte payload.[0];
          epoch = get_u64 payload 1;
          offset = get_u64 payload 9;
        }
  | 'X' -> Quit
  | c -> raise (Protocol_error (Printf.sprintf "unknown request tag %C" c))

(* A payload must hold the fixed fields that open it. *)
let fixed payload n =
  if String.length payload < n then
    raise
      (Protocol_error
         (Printf.sprintf "payload of %d byte(s) lacks its %d-byte header"
            (String.length payload) n))

let decode_response tag payload =
  match tag with
  | 'R' ->
      fixed payload 4;
      let count = get_u32 payload 0 in
      Rows
        { count; body = String.sub payload 4 (String.length payload - 4) }
  | 'm' -> Message payload
  | 'E' -> Explanation payload
  | 'F' ->
      if payload = "" then raise (Protocol_error "empty failed frame");
      let n = Char.code payload.[0] in
      if 1 + n > String.length payload then
        raise (Protocol_error "truncated error class");
      Failed
        {
          cls = String.sub payload 1 n;
          message = String.sub payload (1 + n) (String.length payload - 1 - n);
        }
  | 'O' ->
      fixed payload 8;
      Overloaded
        {
          queue_depth = get_u32 payload 0;
          retry_after_ms = get_u32 payload 4;
          message = String.sub payload 8 (String.length payload - 8);
        }
  | 's' ->
      fixed payload 16;
      Repl_snapshot
        {
          epoch = get_u64 payload 0;
          offset = get_u64 payload 8;
          body = String.sub payload 16 (String.length payload - 16);
        }
  | 'b' ->
      fixed payload 16;
      Repl_batch
        {
          epoch = get_u64 payload 0;
          offset = get_u64 payload 8;
          data = String.sub payload 16 (String.length payload - 16);
        }
  | 'h' ->
      fixed payload 16;
      Repl_heartbeat { epoch = get_u64 payload 0; offset = get_u64 payload 8 }
  | 'G' -> Goodbye
  | c -> raise (Protocol_error (Printf.sprintf "unknown response tag %C" c))

(* ---------- framed IO over file descriptors ---------- *)

(* [read_exact] tolerates short reads and EINTR (a drain signal must
   not corrupt a frame mid-read); EOF inside a frame is a protocol
   error, EOF at a frame boundary is a clean close. *)
let read_exact fd buf pos len =
  let got = ref 0 in
  while !got < len do
    match Unix.read fd buf (pos + !got) (len - !got) with
    | 0 ->
        if !got = 0 then raise End_of_file
        else raise (Protocol_error "connection closed mid-frame")
    | n -> got := !got + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let write_all fd s =
  let len = String.length s in
  let sent = ref 0 in
  while !sent < len do
    let n =
      try Unix.write_substring fd s !sent (len - !sent)
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    sent := !sent + n
  done

(* The whole frame — header, fixed fields, tail — is laid out in one
   exact-size buffer and handed to one [write_all].  A payload over
   [max_frame] is refused before anything is written: every reader
   would reject the frame, and the connection stays usable. *)
let write_frame fd tag head tail =
  let hl = String.length head and tl = String.length tail in
  let len = hl + tl in
  if len > max_frame then raise (Frame_too_large len);
  let frame = Bytes.create (5 + len) in
  Bytes.set frame 0 tag;
  Bytes.set_int32_le frame 1 (Int32.of_int len);
  Bytes.blit_string head 0 frame 5 hl;
  Bytes.blit_string tail 0 frame (5 + hl) tl;
  write_all fd (Bytes.unsafe_to_string frame)

(* Replies go out in one write and the peer waits for the whole frame:
   with Nagle's algorithm on, a frame's tail can sit behind the peer's
   delayed ACK for ~40 ms. *)
let set_nodelay fd = Unix.setsockopt fd Unix.TCP_NODELAY true

let dial ~host ~port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     set_nodelay fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let accept lfd =
  let fd, addr = Unix.accept ~cloexec:true lfd in
  (try set_nodelay fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (fd, addr)

(* Returns [None] on a clean EOF at a frame boundary. *)
let read_frame fd =
  let header = Bytes.create 5 in
  match read_exact fd header 0 5 with
  | exception End_of_file -> None
  | () ->
      let tag = Bytes.get header 0 in
      let len =
        Char.code (Bytes.get header 1)
        lor (Char.code (Bytes.get header 2) lsl 8)
        lor (Char.code (Bytes.get header 3) lsl 16)
        lor (Char.code (Bytes.get header 4) lsl 24)
      in
      if len > max_frame then
        raise (Protocol_error (Printf.sprintf "frame too large: %d bytes" len));
      let payload = Bytes.create len in
      (try read_exact fd payload 0 len
       with End_of_file -> raise (Protocol_error "connection closed mid-frame"));
      Some (tag, Bytes.unsafe_to_string payload)

let write_request fd r =
  let tag, payload = encode_request r in
  write_frame fd tag "" payload

let write_response fd r =
  let tag, head, tail = response_parts r in
  write_frame fd tag head tail

let read_request fd =
  match read_frame fd with
  | None -> None
  | Some (tag, payload) -> Some (decode_request tag payload)

let read_response fd =
  match read_frame fd with
  | None -> None
  | Some (tag, payload) -> Some (decode_response tag payload)
