#!/usr/bin/env python3
"""Smoke test of the repository benchmark at tiny scale.

    python3 perfbench/smoke_test.py

Run from the repository root (builds like run.py). Checks that:
  * every BENCHMARK.json metric is printed with its unit, for every workload,
    with tracing off (end_to_end) and on (per_layer), and the trace parses;
  * a deliberately corrupted assignment is caught: correct is false and the
    exit code is non-zero;
  * a second workload seed produces different inputs;
  * `--workload all` prints every workload-specific end-to-end name;
  * PROCLUS_SIMTCHECK=1 makes perfbench refuse to run, and =0 does not.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

TINY = ["--scale", "0.05", "--seconds", "1"]
# The end-to-end names `--workload all` reports, one set per workload.
ALL_NAMES = [f"{b}_ms.{s}" for b in ("gpu_fast", "mc_fast", "cpu_fast")
             for s in ("p50", "tail")] + [
    "sweep_s.p50", "sweep_s.tail", "request_ms.p50", "request_ms.tail",
    "miss_ms.p50", "hit_ms.p50", "slo_frac", "setup_s", "failed_frac"]


def fail(message):
    print(f"smoke_test: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def bench(*args, env=None):
    """Runs run.py; returns (exit code, stdout lines, last-line JSON)."""
    done = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                           *args], capture_output=True, text=True, env=env)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, lines, result


def input_digests(lines):
    return [line.split()[-1] for line in lines if "input_digest:" in line]


def main():
    if run.build() is None:
        fail("build failed")
    spec = run.load_benchmark_json()

    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = bench("--workload", workload, "--seed", "1",
                                        "--trace", str(trace), *TINY)
            if code != 0 or result is None or not result["correct"]:
                fail(f"{workload} trace={trace}: exit {code}, result {result}")
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                fail(f"{workload} trace={trace}: metrics/units differ from "
                     f"BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
            if result["attempted"] < 1 or result["failed"] != 0:
                fail(f"{workload} trace={trace}: {result}")
            first = input_digests(lines)
        code, lines, _ = bench("--workload", workload, "--seed", "2",
                               "--trace", "0", *TINY)
        if code != 0 or not first or input_digests(lines) == first:
            fail(f"{workload}: seed 2 did not produce a different input")

        code, _, result = bench("--workload", workload, "--seed", "1",
                                "--trace", "0", "--corrupt", *TINY)
        if code == 0 or result is None or result["correct"]:
            fail(f"{workload}: corrupted assignment not caught "
                 f"(exit {code}, result {result})")

    code, lines, result = bench("--workload", "all", "--seed", "1", "--trace",
                                "0", *TINY)
    if code != 0 or result is None or not result["correct"]:
        fail(f"all: exit {code}, result {result}")
    missing = [n for n in ALL_NAMES if n not in result["metrics"]]
    printed = " ".join(line for line in lines if line.startswith("metric "))
    if missing or not all(f"] {n} = " in printed for n in ALL_NAMES):
        fail(f"all: end-to-end names missing: {missing}")

    for value, refused in (("1", True), ("0", False)):
        env = dict(os.environ, PROCLUS_SIMTCHECK=value)
        code, _, result = bench("--workload", "engine_cpu", "--seed", "1",
                                "--trace", "0", *TINY, env=env)
        if refused != (code != 0 and result is None):
            fail(f"PROCLUS_SIMTCHECK={value}: exit {code}, result {result}")
    print("smoke_test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
