#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (which builds the library from ../src) into $CARGO_TARGET_DIR,
default .bench_build; later calls only re-check the build. Build output
goes to stderr. The benchmark's own output is passed through, so the last
line of stdout is its JSON result; that line is validated against
BENCHMARK.json's metric lists before the script exits 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Seconds per benchmark process in an untraced run. serve_drift's four
# drift phases (and their migrations) happen in every process, so its
# processes are longer: the phases stay a small share of each.
SUBRUN_SECONDS = {"serve_drift": 5}
DEFAULT_SUBRUN_SECONDS = 1


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build(target):
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"library source '{needed}' not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def parse_result(stdout, trace):
    """The JSON result on the last line of one benchmark process."""
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line of output is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has the wrong keys")
    if list(result["metrics"]) != expected_metrics(trace):
        fail("reported metrics differ from BENCHMARK.json")
    return result


def run_process(command, timeout):
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout:.0f} s")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited with {run.returncode}")
    return run.stdout


def combine(results):
    """Per-metric median over processes; checks add up."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results) and failed == 0
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary], cwd=ROOT).returncode)
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    binary = build("perfbench")
    # The measured time is split over fresh processes, each a few
    # seconds long, and every metric is the median over them. How fast a
    # process runs on a shared host depends on where it lands and stays
    # (NOTES.md); several processes average that out. A traced run is
    # split the same way; its first process writes the span file.
    subrun = SUBRUN_SECONDS.get(args.workload, DEFAULT_SUBRUN_SECONDS)
    processes = max(1, args.seconds // subrun)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace),
               "--seconds", str(args.seconds // processes)]
    spans = os.path.join(build_dir(), "spans")
    if args.trace:
        os.makedirs(spans, exist_ok=True)
    results = []
    for i in range(processes):
        spans_out = []
        if args.trace and i == 0:
            name = f"{args.workload}-seed{args.seed}-p0.jsonl"
            spans_out = ["--spans-out", os.path.join(spans, name)]
        stdout = run_process(command + spans_out, RUN_TIMEOUT_S / processes)
        results.append(parse_result(stdout, args.trace))
        notes = [l for l in stdout.split("\n") if l.startswith("#")]
        print("\n".join(f"# process {i}: {n[2:]}" for n in notes))
    print(json.dumps(combine(results)))


if __name__ == "__main__":
    main()
