#!/usr/bin/env python3
"""Builds and runs the TER-iDS benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --repeat 10 [--seed <first>]
    python3 perfbench/run.py --self-test

The first form builds the benchmark (CMake, Release, under .bench_build/)
against the library in this checkout, runs one workload and prints, as the
last line of stdout, one JSON object with "correct", "attempted", "failed"
and "metrics". With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. It exits non-zero when
an output check fails or the sources are missing.

--repeat N is the steadiness mode: N trace-0 runs with seeds first..first+N-1,
then per end-to-end metric the median, quartiles and spread (quartile
distance over median) against the metric's bound in BENCHMARK.json.

--self-test runs the output checker's own test (corrupted outcome streams
must each be flagged).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "terids_perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once and rebuilds; compiler output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("error: no terids sources next to perfbench/ (CMakeLists.txt, src/)")
        sys.exit(2)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("error: build step failed: " + " ".join(cmd))
            sys.exit(3)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def print_environment():
    # The binary prints the host, nproc, compiler, flags and build type.
    print(f"commit {git_commit()}", flush=True)


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs the benchmark binary once; returns (exit code, parsed result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace == 1:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, workload + ".jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: {workload} seed {seed} did not finish within {RUN_TIMEOUT_S}s")
        return 4, None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line, flush=True)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        log(f"error: {workload} seed {seed} printed no result (exit {proc.returncode})")
        if not echo:
            sys.stderr.write(proc.stdout)
        return proc.returncode or 1, None
    return proc.returncode, result


def validate(result, spec, trace):
    """The printed metrics must be exactly BENCHMARK.json's, with its units."""
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        wrong = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        log(f"error: metrics differ from BENCHMARK.json: missing {missing} extra {extra} "
            f"unit {wrong}")
        return False
    return True


def steadiness(args, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    shares = []
    for k in range(args.repeat):
        seed = args.seed + k
        code, result = run_once(args.workload, seed, args.seconds, 0, echo=False)
        if code != 0 or result is None or not validate(result, spec, 0):
            log(f"error: run with seed {seed} failed (exit {code})")
            return 1
        shares.append(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.6g}" for n in values), flush=True)
    print(f"\n{args.workload}: {args.repeat} runs, {args.seconds}s each, "
          f"failed share {sorted(set(shares))}")
    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
          f"{'bound':>6s}  verdict")
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]["bound"]
        verdict = "steady" if spread < bound / 3 else (
            "within bound" if spread <= bound else "OVER BOUND")
        if name == "setup_s":
            verdict += " (spread not gated)"
        print(f"{name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.2f}  {verdict}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "metrics": summary}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    print_environment()
    if args.self_test:
        return subprocess.run([BINARY, "--self-test"]).returncode

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"error: --workload must be one of {names}")
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.repeat > 0:
        return steadiness(args, spec)

    code, result = run_once(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return code or 1
    if not validate(result, spec, args.trace):
        return 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
