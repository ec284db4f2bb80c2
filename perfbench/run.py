#!/usr/bin/env python3
"""The canonical awr benchmark: builds perfbench from source and runs it.

Run from the repository root:

  python3 perfbench/run.py --workload wfs_game --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --unit-tests          # tests of the arithmetic
  python3 perfbench/run.py --self-check          # regenerate expected.tsv

The last line of standard output is the run's JSON result; the line
before it is a report with the sample counts, the error tally and the
host metadata.  README.md describes workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir, target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", target],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, target)


def source_rev():
    """The git commit of a git checkout, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                 capture_output=True, text=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def expected_metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--unit-tests", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    expected = os.path.join(HERE, "expected.tsv")
    try:
        if args.unit_tests:
            return subprocess.run([build(build_dir, "perfbench_test")]).returncode
        binary = build(build_dir, "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1
    if args.self_check:
        return subprocess.run([binary, "--self-check", "--expected", expected]).returncode
    if not args.workload:
        parser.error("--workload is required")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", expected, "--out", ".bench_out", "--rev", source_rev()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        log("run failed with code %d" % run.returncode)
        return 1
    result = json.loads(lines[-1])
    missing = expected_metric_names(args.trace) ^ set(result["metrics"])
    if missing:
        log("metrics differ from BENCHMARK.json: %s" % sorted(missing))
        return 1
    print(run.stdout, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
