#!/usr/bin/env python3
"""Builds and runs one perfbench workload; the benchmark's single command.

    python3 perfbench/run.py --workload elda_cohort --seed 1 --seconds 10 \
        --trace 0

Run from the repository root. The first run configures and builds the
benchmark binary (the library sources in src/ plus perfbench/*.cc) into
.bench_build/perfbench; later runs rebuild only what changed. The binary
writes its scratch files under .bench_build/work.

The last line of standard output is one JSON object with exactly the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
every end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer
metric; a per-layer metric the workload does not exercise reads 0. The
metric names and units the binary prints are checked against
BENCHMARK.json. Exit status: 0 when every correctness check passed, 1 when
one failed, 2 when the benchmark cannot build or run here.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_child(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group and waits for it. On a timeout
    or a SIGTERM/SIGINT to this script the whole group is killed and reaped,
    so no process outlives the run. Returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def on_signal(signum, _frame):
        kill_group()
        sys.exit(128 + signum)

    previous = {s: signal.signal(s, on_signal)
                for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group()
        fail("%s did not finish within %d s" % (cmd[0], timeout))
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
    return proc.returncode, out


def source_hash():
    """sha256 over the library and benchmark sources, for provenance."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def build():
    """Configures once, then builds; compiler output goes to stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            returncode, _ = run_child(cmd, 850, stdout=sys.stderr,
                                      stderr=sys.stderr)
        except OSError as e:
            fail("build step failed: %s" % e)
        if returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["elda_cohort", "ward_stream", "ragged_shards"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to the benchmark (%s/src)" % ROOT)
    expected = expected_metrics(args.trace)
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        binary = build()
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR, "--git-rev", git_rev(),
               "--src-hash", source_hash()]
        returncode, out = run_child(cmd, 170, stdout=subprocess.PIPE,
                                    text=True, cwd=ROOT)

    lines = out.strip().splitlines()
    if returncode not in (0, 1) or not lines:
        fail("benchmark binary exited with status %d" % returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON: " + lines[-1])
    if sorted(result) != sorted(RESULT_KEYS):
        fail("result keys %s != %s" % (sorted(result), RESULT_KEYS))
    metrics = result["metrics"]
    for name, m in metrics.items():
        if expected.get(name) != m["unit"]:
            fail("metric %s (%s) is not in BENCHMARK.json with that unit"
                 % (name, m["unit"]))
    missing = [n for n in expected if n not in metrics]
    if missing and not args.trace:
        fail("end-to-end metrics not measured: " + ", ".join(missing))
    # Per-layer metrics of layers this workload does not call read 0.
    result["metrics"] = {n: metrics.get(n, {"value": 0, "unit": u})
                         for n, u in expected.items()}
    for line in lines[:-1]:
        print(line)
    print(json.dumps({k: result[k] for k in RESULT_KEYS}))
    sys.exit(returncode)


if __name__ == "__main__":
    main()
