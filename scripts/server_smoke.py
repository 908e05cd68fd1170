#!/usr/bin/env python3
"""End-to-end smoke test for the gapply network server.

Starts the server binary on an ephemeral port, drives concurrent wire
clients against it (happy-path rows, typed error classes, protocol
abuse, admission sheds), checks the /health and /metrics listener,
then sends SIGTERM while a statement is mid-flight and asserts a clean
graceful drain: the in-flight statement surfaces a typed cancellation
(or a clean close), the process logs "draining..." and "bye.", and
exits 0.  Exits non-zero on any violation — CI runs this as a gate.
"""

import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

BIN = os.environ.get(
    "GAPPLY_SERVER_BIN", "_build/default/bin/gapply_server.exe"
)

# ---------- minimal wire client ----------


def frame(tag, payload=b""):
    return tag + struct.pack("<I", len(payload)) + payload


def read_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise EOFError(f"connection closed after {len(buf)}/{n} bytes")
        buf += chunk
    return buf


def read_response(sock):
    header = read_exact(sock, 5)
    tag = header[:1]
    (n,) = struct.unpack("<I", header[1:5])
    payload = read_exact(sock, n) if n else b""
    if tag == b"R":
        (count,) = struct.unpack("<I", payload[:4])
        return ("rows", count, payload[4:])
    if tag == b"m":
        return ("message", payload.decode())
    if tag == b"E":
        return ("explanation", payload.decode())
    if tag == b"F":
        cls_len = payload[0]
        cls = payload[1 : 1 + cls_len].decode()
        return ("failed", cls, payload[1 + cls_len :].decode())
    if tag == b"O":
        depth, retry = struct.unpack("<II", payload[:8])
        return ("overloaded", depth, retry)
    if tag == b"G":
        return ("goodbye",)
    raise AssertionError(f"unknown response tag {tag!r}")


class Client:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)

    def query(self, sql):
        self.sock.sendall(frame(b"Q", sql.encode()))
        return read_response(self.sock)

    def meta(self, cmd):
        self.sock.sendall(frame(b"M", cmd.encode()))
        return read_response(self.sock)

    def quit(self):
        try:
            self.sock.sendall(frame(b"X"))
            read_response(self.sock)
        except (EOFError, OSError):
            pass
        self.sock.close()

    def close(self):
        self.sock.close()


def http_get(port, path):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        buf = b""
        while True:
            chunk = s.recv(4096)
            if not chunk:
                return buf.decode(errors="replace")
            buf += chunk


# ---------- the smoke sequence ----------

failures = []


def check(cond, what):
    if cond:
        print(f"ok: {what}")
    else:
        failures.append(what)
        print(f"FAIL: {what}")


def worker_traffic(port, rounds, results):
    try:
        c = Client(port)
        for _ in range(rounds):
            r = c.query("select count(*) as n from orders")
            if r[0] == "rows":
                results.append("rows")
            elif r[0] == "overloaded":
                results.append("shed")
            else:
                results.append(f"unexpected:{r}")
        c.quit()
    except Exception as e:  # noqa: BLE001 — any escape is a failure
        results.append(f"exception:{e}")


def main():
    proc = subprocess.Popen(
        [
            BIN,
            "--listen", "127.0.0.1:0",
            "--http-port", "0",
            "--tpch", "0.1",
            "--max-concurrent", "2",
            "--queue-depth", "4",
            "--admission-timeout-ms", "200",
            "--drain-timeout-ms", "5000",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    log_lines = []
    port = http_port = None
    deadline = time.time() + 60
    while time.time() < deadline and (port is None or http_port is None):
        line = proc.stdout.readline()
        if not line:
            break
        log_lines.append(line)
        if line.startswith("listening on "):
            port = int(line.split()[-1])
        if line.startswith("metrics on "):
            http_port = int(line.split()[-1])
    check(port is not None, "server announced its port")
    check(http_port is not None, "server announced its metrics port")
    if port is None:
        proc.kill()
        sys.exit(1)

    # drain the rest of the log in the background so the server never
    # blocks on a full stdout pipe
    def pump():
        for line in proc.stdout:
            log_lines.append(line)

    pump_t = threading.Thread(target=pump, daemon=True)
    pump_t.start()

    # typed error classes on one connection
    c = Client(port)
    check(c.query("select count(*) as n from orders")[0] == "rows",
          "happy-path query returns rows")
    check(c.query("select z from missing")[1] == "name",
          "unknown table is a typed name error")
    check(c.query("selec nonsense")[1] == "parse",
          "garbage SQL is a typed parse error")
    check(c.query("set statement_row_limit = banana!")[1] == "type",
          "malformed SET is a typed type error")
    check(c.meta("\\cache")[0] == "message", "\\cache answers a message")
    check(c.meta("\\nope")[1] == "name",
          "unknown meta-command is a typed name error")
    c.quit()

    # protocol abuse: unknown tag gets a typed protocol failure, a torn
    # frame is dropped without taking the server down
    s = socket.create_connection(("127.0.0.1", port), timeout=10)
    s.sendall(frame(b"Z"))
    check(read_response(s)[1] == "protocol",
          "unknown tag is a typed protocol failure")
    s.close()
    s = socket.create_connection(("127.0.0.1", port), timeout=10)
    s.sendall(frame(b"Q", b"x" * 64)[:8])  # header promises 64, send 3
    s.close()

    # concurrent clients: every response is rows or a typed shed
    threads, results = [], []
    buckets = [[] for _ in range(6)]
    for b in buckets:
        t = threading.Thread(target=worker_traffic, args=(port, 8, b))
        t.start()
        threads.append(t)
    for t in threads:
        t.join(timeout=120)
    results = [r for b in buckets for r in b]
    bad = [r for r in results if r not in ("rows", "shed")]
    check(len(results) == 48 and not bad,
          f"concurrent traffic all typed (48 responses, bad={bad})")

    # observability listener
    health = http_get(http_port, "/health")
    check("200" in health and "ok" in health, "/health answers 200 ok")
    metrics = http_get(http_port, "/metrics")
    check("gapply_statements_admitted_total" in metrics
          and "gapply_connections_accepted_total" in metrics,
          "/metrics exports the admission counters")
    # every engine subsystem reaches /metrics through the one registry
    families = [line.split()[2] for line in metrics.splitlines()
                if line.startswith("# TYPE ")]
    for prefix in ("gapply_plan_cache_", "gapply_txn_", "gapply_wal_",
                   "gapply_governor_"):
        check(any(f.startswith(prefix) for f in families),
              f"/metrics exports the {prefix}* families")

    # SIGTERM mid-statement: the in-flight statement must surface a
    # typed cancellation or a clean close — and the process must drain
    busy_result = []

    def busy():
        try:
            bc = Client(port)
            r = bc.query(
                "select count(*) as n from lineitem l1, orders o1, orders o2"
            )
            busy_result.append(r)
            bc.close()
        except (EOFError, OSError):
            busy_result.append(("eof",))

    busy_t = threading.Thread(target=busy)
    busy_t.start()
    time.sleep(1.0)  # let the statement get admitted and run
    proc.send_signal(signal.SIGTERM)
    busy_t.join(timeout=30)
    check(not busy_t.is_alive(), "in-flight connection never hangs")
    if busy_result:
        r = busy_result[0]
        check(
            (r[0] == "failed" and r[1] == "cancelled") or r[0] == "eof",
            f"in-flight statement typed on drain (got {r})",
        )
    else:
        check(False, "in-flight statement got a response")

    try:
        status = proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        status = "hung"
    pump_t.join(timeout=5)
    log = "".join(log_lines)
    check(status == 0, f"server exited 0 after SIGTERM (got {status})")
    check("draining..." in log, "drain was announced")
    check("bye." in log, "shutdown completed")

    if failures:
        print(f"\n{len(failures)} failure(s):")
        for f in failures:
            print(f"  - {f}")
        sys.exit(1)
    print("\nserver smoke: all checks passed")


if __name__ == "__main__":
    main()
