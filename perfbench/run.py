#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form builds perfbench/bench.exe from the source tree around this
directory (dune, no shared cache, so nothing is written outside the tree),
runs one workload and relays its output.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

--selftest runs every workload of BENCHMARK.json at small scale: the
traced and untraced reports of one seed must be identical, the per-layer
times must fit the traced wall time, and the printed metric names and
units must match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    # the benchmark links the simulator's libraries; without them there is
    # nothing to measure
    for need in ("dune-project", os.path.join("lib", "workload", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"source tree incomplete: {need} is missing under {ROOT}")
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled",
           "--display=quiet", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 1)
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed", 1)


def bench(args):
    """Run bench.exe; return (exit code, stdout lines)."""
    try:
        done = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench.exe {' '.join(args)} timed out", 1)
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    code, lines = bench(["selftest"])
    print("\n".join(lines))
    ok = code == 0
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, lines = bench(["run", "--workload", w["name"], "--seed", "3",
                                 "--seconds", "1", "--trace", str(trace),
                                 "--scale", "small"])
            result = parse_result(lines)
            problems = []
            if code != 0 or result is None:
                problems.append(f"exit {code}, last line {lines[-1:]}")
            else:
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != expected[trace]:
                    problems.append(f"metrics {units} != {expected[trace]}")
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"correct={result['correct']} "
                                    f"failed={result['failed']}")
                if trace == 0 and any(v["value"] <= 0
                                      for v in result["metrics"].values()):
                    problems.append("an end-to-end metric is not positive")
            status = "ok" if not problems else "FAILED " + "; ".join(problems)
            print(f"contract {w['name']:16s} trace={trace} {status}")
            ok = ok and not problems
    print("selftest: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    build()
    if a.selftest:
        return selftest()
    code, lines = bench(["run", "--workload", a.workload, "--seed",
                         str(a.seed), "--seconds", str(a.seconds),
                         "--trace", str(a.trace)])
    if code == 0 and parse_result(lines) is None:
        # never let a malformed result pass as a measurement
        print("\n".join(lines[:-1]))
        fail("bench.exe printed no result line", 1)
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
