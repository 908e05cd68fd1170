(* The gapply_server child process and the per-run scratch directory.

   Every child is tracked in [live] and killed and reaped by [kill_all],
   which main.ml runs on every exit path (normal return, exception,
   SIGTERM/SIGINT). *)

type t = {
  pid : int;
  out : in_channel;
  port : int;
  http_port : int;
}

let live : t list ref = ref []

(** gapply_server.exe sits in the same dune build tree as this
    executable: _build/default/{perf/main.exe,bin/gapply_server.exe}. *)
let server_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "gapply_server.exe")

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Scratch data lives under the current directory, never in /tmp: the
   benchmark reads and writes only inside its checkout. *)
let work_root = "_perf_work"
let work_dir = lazy (Filename.concat work_root (string_of_int (Unix.getpid ())))
let dir_seq = ref 0

let fresh_dir tag =
  let base = Lazy.force work_dir in
  (try Unix.mkdir work_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr dir_seq;
  let d = Filename.concat base (Printf.sprintf "%s%d" tag !dir_seq) in
  rm_rf d;
  d

let remove_work () =
  if Lazy.is_val work_dir then begin
    rm_rf (Lazy.force work_dir);
    try Unix.rmdir work_root with Unix.Unix_error _ -> ()
  end

let kill c =
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
  close_in_noerr c.out;
  live := List.filter (fun x -> x.pid <> c.pid) !live

let kill_all () = List.iter kill !live

let after prefix line =
  let n = String.length prefix in
  if String.length line > n && String.sub line 0 n = prefix then
    int_of_string_opt (String.trim (String.sub line n (String.length line - n)))
  else None

(** Start the server on [data_dir] and wait for its announced ports. *)
let spawn ~data_dir ~extra =
  let exe = server_exe () in
  let args =
    [
      exe; "--listen"; "127.0.0.1:0"; "--data-dir"; data_dir;
      "--parallelism"; "1"; "--max-concurrent"; "2"; "--queue-depth"; "16";
      "--admission-timeout-ms"; "1000"; "--http-port"; "0";
    ]
    @ extra
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let c = { pid; out; port = 0; http_port = 0 } in
  live := c :: !live;
  let rec read port http =
    match (port, http) with
    | Some p, Some h -> { c with port = p; http_port = h }
    | _ -> (
        match input_line out with
        | line -> (
            match (after "listening on " line, after "metrics on " line) with
            | Some p, _ -> read (Some p) http
            | _, Some h -> read port (Some h)
            | None, None -> read port http)
        | exception End_of_file ->
            kill c;
            failwith "gapply_server exited before announcing its ports")
  in
  let c = read None None in
  live := c :: List.filter (fun x -> x.pid <> pid) !live;
  c

(* ---------- /proc readers ---------- *)

let read_proc path =
  (* /proc files report length 0; read line by line *)
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_string b (input_line ic);
           Buffer.add_char b '\n'
         done
       with End_of_file -> ());
      Buffer.contents b)

(** CPU seconds (user + system) consumed so far by [pid], from
    /proc/<pid>/stat (Linux clock ticks are 1/100 s). *)
let cpu_s pid =
  let s = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* fields after the command: state(3) ... utime(14) stime(15) *)
  float_of_string f.(11) +. float_of_string f.(12) |> fun t -> t /. 100.

(** Peak resident set (VmHWM) of [pid] in MB. *)
let peak_rss_mb pid =
  let s = read_proc (Printf.sprintf "/proc/%d/status" pid) in
  let kb =
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] ->
            int_of_string_opt
              (String.trim (List.hd (String.split_on_char 'k' (String.trim v))))
        | _ -> None)
      (String.split_on_char '\n' s)
  in
  match kb with Some k -> float_of_int k /. 1024. | None -> Float.nan

(** One gauge from the server's /metrics page; [None] when the server
    no longer exports it. *)
let scrape c name =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, c.http_port));
      let req = "GET /metrics HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let ic = Unix.in_channel_of_descr fd in
      let rec find () =
        match input_line ic with
        | line -> (
            match String.split_on_char ' ' (String.trim line) with
            | [ n; v ] when n = name -> float_of_string_opt v
            | _ -> find ())
        | exception End_of_file -> None
      in
      find ())
