#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload WORKLOAD|all --seed N \
        --seconds S --trace 0|1 [--scale F] [--corrupt]

WORKLOAD is engine_gpu, engine_mc, engine_cpu, sweep or serve.

Run from the repository root. The first run builds the library sources and
the perfbench binary with CMake into $CARGO_TARGET_DIR (default
.bench_build); later runs rebuild incrementally. The binary's output is
echoed; the last line printed is one JSON object with "correct",
"attempted", "failed" and "metrics", where the metrics are exactly the
BENCHMARK.json end_to_end metrics (--trace 0) or per_layer metrics
(--trace 1). The full record (host, build, every metric) is written to
<build dir>/results/. Exits non-zero when the build fails, a result fails
its check, or the traced pass's trace file does not parse.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("engine_gpu", "engine_mc", "engine_cpu", "sweep", "serve")


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the perfbench binary; returns its path or None."""
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(out, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def trace_parses(path):
    try:
        with open(path) as f:
            trace = json.load(f)
    except (OSError, ValueError) as e:
        log(f"trace file {path!r} does not parse: {e}")
        return False
    return isinstance(trace.get("traceEvents"), list) and trace["traceEvents"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale), "--out-dir", results,
               "--git-sha", git_sha()]
    if args.corrupt:
        command.append("--corrupt")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=120 + 3 * args.seconds)
    except subprocess.TimeoutExpired:
        log("perfbench timed out")
        return 1
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        print(done.stdout, end="")
        log(f"perfbench exited {done.returncode} without a result")
        return done.returncode or 1
    print("\n".join(lines[:-1]), flush=True)
    record = json.loads(lines[-1])

    correct = record["correct"]
    if args.trace and not trace_parses(record["trace_file"]):
        correct = False
    metrics = record["metrics"]
    if args.workload in WORKLOADS:
        spec = load_benchmark_json()["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in spec if m["name"] not in metrics]
        if missing:
            log(f"perfbench did not report {missing}")
            return 1
        metrics = {m["name"]: metrics[m["name"]] for m in spec}
    record["correct"] = correct
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
