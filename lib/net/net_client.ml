(* Minimal blocking client for the wire protocol — the test suite's and
   the bench driver's view of the server.  One request in flight at a
   time per connection (the protocol is strictly request/response). *)

type t = { fd : Unix.file_descr; mutable closed : bool }

let connect ?(host = "127.0.0.1") ~port () =
  { fd = Wire.dial ~host ~port; closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let request t req =
  Wire.write_request t.fd req;
  match Wire.read_response t.fd with
  | Some r -> r
  | None -> raise End_of_file

let query t sql = request t (Wire.Query sql)
let meta t cmd = request t (Wire.Meta cmd)

let quit t =
  let r = try request t Wire.Quit with End_of_file -> Wire.Goodbye in
  close t;
  r

let fd t = t.fd

(* ---------- reconnection policy ---------- *)

(* Exponential backoff with full jitter: each failed attempt doubles a
   ceiling (bounded by [cap_ms]) and the actual delay is uniform in
   [0, ceiling] — decorrelating a thundering herd of clients retrying
   against the same recovering server.  A server-supplied retry-after
   hint (from a typed [Overloaded] shed) acts as a floor: the server
   knows its queue better than our guess.  Seeded explicitly so chaos
   tests replay byte-identical schedules. *)
module Backoff = struct
  type t = {
    base_ms : int;
    cap_ms : int;
    rng : Random.State.t;
    mutable attempt : int;
  }

  let create ?(base_ms = 5) ?(cap_ms = 2000) ~seed () =
    if base_ms < 1 then invalid_arg "backoff: base_ms < 1";
    if cap_ms < base_ms then invalid_arg "backoff: cap_ms < base_ms";
    { base_ms; cap_ms; rng = Random.State.make [| seed |]; attempt = 0 }

  let reset t = t.attempt <- 0
  let attempts t = t.attempt

  let next_delay_ms ?(hint_ms = 0) t =
    (* shift capped well below the bit width: the ceiling saturates at
       [cap_ms] long before the exponent matters *)
    let ceiling = min t.cap_ms (t.base_ms * (1 lsl min t.attempt 20)) in
    t.attempt <- t.attempt + 1;
    max hint_ms (Random.State.int t.rng (ceiling + 1))
end

(* ---------- reconnecting client ---------- *)

module Persistent = struct
  type nonrec t = {
    host : string;
    port : int;
    token : string option;
    backoff : Backoff.t;
    max_attempts : int;
    mutable conn : t option;
    mutable reconnects : int;
    mutable closed : bool;
  }

  let create ?(host = "127.0.0.1") ~port ?token ?(seed = 0) ?(base_ms = 5)
      ?(cap_ms = 2000) ?(max_attempts = 8) () =
    if max_attempts < 1 then invalid_arg "persistent: max_attempts < 1";
    {
      host;
      port;
      token;
      backoff = Backoff.create ~base_ms ~cap_ms ~seed ();
      max_attempts;
      conn = None;
      reconnects = 0;
      closed = false;
    }

  let sleep_ms ms = if ms > 0 then Thread.delay (float_of_int ms /. 1000.)

  let drop p =
    match p.conn with
    | Some c ->
        p.conn <- None;
        close c
    | None -> ()

  (* Dial (and re-authenticate) if there is no live connection. *)
  let ensure_conn p =
    match p.conn with
    | Some c -> c
    | None ->
        let c = connect ~host:p.host ~port:p.port () in
        (try
           match p.token with
           | Some tok -> ignore (request c (Wire.Auth tok))
           | None -> ()
         with e ->
           close c;
           raise e);
        p.conn <- Some c;
        c

  let request p req =
    if p.closed then invalid_arg "persistent client is closed";
    let rec go attempt =
      match request (ensure_conn p) req with
      | Wire.Overloaded o as resp ->
          (* nothing ran server-side: retrying is always safe *)
          if attempt >= p.max_attempts then resp
          else begin
            sleep_ms
              (Backoff.next_delay_ms ~hint_ms:o.retry_after_ms p.backoff);
            go (attempt + 1)
          end
      | resp ->
          Backoff.reset p.backoff;
          resp
      | exception
          ((End_of_file | Unix.Unix_error _ | Wire.Protocol_error _) as e) ->
          (* transport failure: the request may or may not have run —
             resending is the caller's contract (see mli) *)
          drop p;
          p.reconnects <- p.reconnects + 1;
          if attempt >= p.max_attempts then raise e
          else begin
            sleep_ms (Backoff.next_delay_ms p.backoff);
            go (attempt + 1)
          end
    in
    go 1

  let query p sql = request p (Wire.Query sql)
  let meta p cmd = request p (Wire.Meta cmd)
  let reconnects p = p.reconnects
  let connected p = p.conn <> None

  let close p =
    p.closed <- true;
    drop p
end
