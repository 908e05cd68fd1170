(** Length-framed wire protocol between the server and its clients.

    Every frame is [tag (1 byte) | payload length u32 LE | payload].
    Requests carry SQL text ('Q'), a backslash meta-command ('M'), or a
    quit ('X'); responses mirror {!Engine.outcome} plus the two
    server-side cases a wire client must distinguish: a typed failure
    ('F', with a stable error-class string) and an admission shed ('O',
    with the queue depth and a retry-after hint).

    Malformed traffic — unknown tag, oversized frame, EOF mid-frame —
    raises {!Protocol_error}; a clean EOF at a frame boundary reads as
    [None]. *)

exception Protocol_error of string

exception Frame_too_large of int
(** A write refused because its payload (of the given size) exceeds
    {!max_frame}; nothing was written, so the connection is intact. *)

val max_frame : int
(** Upper bound on a frame payload (64 MiB); larger frames are a
    protocol error when read, not an allocation, and {!Frame_too_large}
    when written. *)

type lineage =
  | Bootstrap  (** no local state (or an explicit resync request):
                   please send a snapshot *)
  | Marked     (** a genuine replica resuming from a durable
                   replication mark *)
  | Unmarked   (** local history that never came from replication — an
                   ex-primary whose diverged tail must be rejected,
                   never silently rewound *)

type request =
  | Query of string  (** one SQL statement *)
  | Meta of string   (** backslash meta-command, e.g. ["\\cache"] *)
  | Auth of string   (** client token: the admission-quota identity *)
  | Repl_subscribe of { lineage : lineage; epoch : int; offset : int }
      (** turn this connection into a replication stream from the given
          primary-side position *)
  | Quit

type response =
  | Rows of { count : int; body : string }
      (** result cardinality + the rendered table *)
  | Message of string       (** DDL/DML/SET confirmation *)
  | Explanation of string   (** EXPLAIN output *)
  | Failed of { cls : string; message : string }
      (** typed statement failure; [cls] is the stable error class
          ("parse", "name", "type", "exec", "timeout", "cancelled",
          "txn_conflict", "read_only", "disk_full", "repl_diverged",
          "protocol", ...) *)
  | Overloaded of { queue_depth : int; retry_after_ms : int; message : string }
      (** admission shed: nothing ran; back off and retry *)
  | Repl_snapshot of { epoch : int; offset : int; body : string }
      (** whole-database transfer stamped with the WAL position it
          covers; stream resumes from (epoch, offset) *)
  | Repl_batch of { epoch : int; offset : int; data : string }
      (** raw primary WAL bytes starting at (epoch, offset); records
          keep their own CRC framing *)
  | Repl_heartbeat of { epoch : int; offset : int }
      (** primary liveness + durable position when there is nothing to
          ship *)
  | Goodbye

(** {1 Framed IO over file descriptors}

    Reads tolerate short reads and EINTR; writes are complete-or-raise.
    A read on a socket with [SO_RCVTIMEO] set propagates
    [EAGAIN]/[EWOULDBLOCK] to the caller — the server's idle-timeout
    signal. *)

val write_request : Unix.file_descr -> request -> unit

val write_response : Unix.file_descr -> response -> unit
(** One exact-size frame buffer, one complete write: a reply body is
    copied once on its way to the socket.
    @raise Frame_too_large before writing if the payload is over
    {!max_frame}. *)

val dial : host:string -> port:int -> Unix.file_descr
(** Connect a TCP stream socket with [TCP_NODELAY] set: a frame is
    written whole, and Nagle's algorithm would hold its tail behind the
    peer's delayed ACK. *)

val accept : Unix.file_descr -> Unix.file_descr * Unix.sockaddr
(** [Unix.accept] (close-on-exec) with [TCP_NODELAY] set on the
    accepted socket. *)

val read_request : Unix.file_descr -> request option
(** [None] on clean EOF at a frame boundary. *)

val read_response : Unix.file_descr -> response option

val write_all : Unix.file_descr -> string -> unit
(** Complete write of a raw byte string (EINTR-safe); used by the
    plain-HTTP metrics listener. *)

(** {1 Raw codec} — exposed for protocol round-trip tests. *)

val encode_request : request -> char * string
val decode_request : char -> string -> request
val encode_response : response -> char * string
val decode_response : char -> string -> response
