#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call builds the library from
src/ and the measuring program from perfbench/src/ with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
rebuild only what changed. The program's report goes to standard output;
its last line is one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are BENCHMARK.json's end_to_end
set, with --trace 1 its per_layer set; this script checks that before it
passes the line on. Traced runs also leave a Chrome trace-event file in
the build directory's traces/ folder.

--selftest builds everything, including the decorator transparency test,
and runs it with ctest.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "fl", "simulation.h")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        cmd = ["cmake", "--build", out, "-j", jobs]
        if target:
            cmd += ["--target", target]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    return out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        out = build(None)
        sys.exit(subprocess.run(["ctest", "--output-on-failure",
                                 "--test-dir", out]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    expected = expected_metrics(args.trace)

    try:
        out = build("perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-dir", traces]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail(f"{args.workload} ran longer than {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode not in (0, 1):
        fail(f"perfbench exited with code {proc.returncode}", 1)
    try:
        result = json.loads(lines[-1])
        units = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        fail("perfbench printed no result line", 1)
    if units != expected:
        fail(f"metrics {sorted(units.items())} do not match BENCHMARK.json "
             f"{sorted(expected.items())}", 1)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
