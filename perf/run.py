#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see perf/README.md).

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1 [main.exe options]

Builds perf/main.exe and bin/gapply_server.exe from source with dune, runs
the workload, checks that the metrics it emitted match BENCHMARK.json, and
prints as the last line one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1; a per-layer metric the workload has no such layer for reads 0).

    python3 perf/run.py --smoke

is what `dune build @perf/smoke` runs: every workload with 1 s windows, traced
and untraced, against the already built executables.
"""

import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=1):
    print("perf/run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e), 2)


def run_group(argv):
    """Run argv in its own process group; return (exit code, stdout).
    Every process of the group -- main.exe and the servers it spawns --
    is killed and gone before this returns."""
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = p.communicate()
        return p.returncode, out.decode("utf-8", "replace")
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(p.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)


def records(out):
    recs = []
    for line in out.splitlines():
        if line.startswith("{"):
            recs.append(json.loads(line))
    return recs


def check_record(spec, rec):
    """Metric names and units against BENCHMARK.json; returns problems."""
    want = spec["per_layer"] if rec["trace"] else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in want}
    problems = []
    for name, m in rec["metrics"].items():
        if name not in units:
            problems.append("%s: metric %s is not in BENCHMARK.json" % (rec["workload"], name))
        elif m["unit"] != units[name]:
            problems.append("%s: %s has unit %s, BENCHMARK.json says %s"
                            % (rec["workload"], name, m["unit"], units[name]))
    if not rec["trace"]:
        for name in units:
            if name not in rec["metrics"]:
                problems.append("%s: end-to-end metric %s missing" % (rec["workload"], name))
            elif rec["metrics"][name]["value"] is None:
                problems.append("%s: end-to-end metric %s has no value" % (rec["workload"], name))
    return problems


def result_line(spec, rec):
    metrics = dict(rec["metrics"])
    if rec["trace"]:
        # a layer the workload does not have, or a counter that is gone
        # (null), reads 0: every value on this line is a number
        for m in spec["per_layer"]:
            if metrics.get(m["name"], {}).get("value") is None:
                metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
    return json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                       "failed": rec["failed"], "metrics": metrics})


def pin_one_cpu():
    """Keep main.exe and the servers it starts on one CPU.  On a shared
    two-CPU host this cut the run-to-run spread of the served workloads'
    latencies several-fold: the client's calibration kernel then runs on
    the CPU the server runs on, and no request hops between CPUs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def smoke(spec):
    exe = os.path.join(HERE, "main.exe")
    names = [w["name"] for w in spec["workloads"]]
    seen = set()
    problems = []
    pin_one_cpu()
    for trace in (0, 1):
        argv = [exe, "--seconds", "1", "--setups", "1", "--trace", str(trace)]
        for n in names:
            argv += ["--workload", n]
        code, out = run_group(argv)
        if code != 0:
            fail("main.exe --trace %d exited with %d" % (trace, code))
        recs = records(out)
        if sorted(r["workload"] for r in recs) != sorted(names):
            fail("--trace %d: expected one record per workload, got %s"
                 % (trace, [r["workload"] for r in recs]))
        for r in recs:
            problems += check_record(spec, r)
            if not r["correct"]:
                problems.append("%s (--trace %d): output checks failed" % (r["workload"], trace))
            if trace:
                seen.update(r["metrics"])
    for m in spec["per_layer"]:
        if m["name"] not in seen:
            problems.append("per-layer metric %s is emitted by no workload" % m["name"])
    if problems:
        fail("smoke failed:\n  " + "\n  ".join(problems))
    print("smoke ok: %d workloads, %d end-to-end and %d per-layer metrics"
          % (len(names), len(spec["end_to_end"]), len(spec["per_layer"])))


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    args = sys.argv[1:]
    if args == ["--smoke"]:
        return smoke(spec)
    for f in ("dune-project", os.path.join("bin", "gapply_server.ml"), "lib"):
        if not os.path.exists(os.path.join(ROOT, f)):
            fail("%s is missing: run from a full checkout of the repository" % f, 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perf/main.exe", "./bin/gapply_server.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed", build.returncode)
    exe = os.path.join(ROOT, "_build", "default", "perf", "main.exe")
    os.chdir(ROOT)
    pin_one_cpu()
    code, out = run_group([exe] + args)
    recs = records(out)
    for line in out.splitlines():
        if not line.startswith("{"):
            print(line)
    if code != 0:
        fail("main.exe exited with %d" % code, code)
    if len(recs) != 1:
        fail("expected one record (run one --workload), got %d" % len(recs))
    problems = check_record(spec, recs[0])
    if problems:
        fail("\n  ".join(problems))
    sys.stdout.flush()
    print(result_line(spec, recs[0]))


if __name__ == "__main__":
    main()
