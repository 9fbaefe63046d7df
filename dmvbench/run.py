#!/usr/bin/env python3
"""Builds and runs the dmv benchmark.

Run from the root of a checkout:

    python3 dmvbench/run.py --workload explore_cold --seed 1 --seconds 20 --trace 0
    python3 dmvbench/run.py --all --seed 1 --seconds 20
    python3 dmvbench/run.py --self-test

The first call configures and builds dmvbench/ (which compiles the dmv
library from src/) into .bench_build, or into $CARGO_TARGET_DIR when
that is set; later calls only re-check the build. Build output goes to
stderr, so the last line of stdout is the benchmark's result object.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("dmvbench: no dmv sources at src/; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", out,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "dmvbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "dmvbench")


def source_identity():
    """Git commit when the checkout is a repository, and a digest of src/."""
    commit = "unknown"
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False)
        if result.returncode == 0:
            commit = result.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return commit, digest.hexdigest()[:16]


def run_bench(binary, workload, seed, seconds, trace, max_steps=None):
    commit, digest = source_identity()
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--commit", commit, "--src-digest", digest]
    if max_steps is not None:
        command += ["--max-steps", str(max_steps)]
    return subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def self_test(binary):
    """Runs every workload for a few steps in both modes and checks that
    each metric BENCHMARK.json lists is emitted with its unit."""
    spec = load_spec()
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            result = run_bench(binary, workload["name"], 1, 2, trace,
                               max_steps=4)
            lines = result.stdout.strip().splitlines()
            tag = "%s --trace %d" % (workload["name"], trace)
            if result.returncode != 0 or not lines:
                problems.append("%s: exit %d" % (tag, result.returncode))
                continue
            output = json.loads(lines[-1])
            if set(output) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: bad result keys %s" % (tag, sorted(output)))
            if not output.get("correct"):
                problems.append("%s: not correct" % tag)
            metrics = output.get("metrics", {})
            for metric in expected[trace]:
                got = metrics.get(metric["name"])
                if got is None:
                    problems.append("%s: missing %s" % (tag, metric["name"]))
                elif got.get("unit") != metric["unit"]:
                    problems.append("%s: %s unit %r, want %r" % (
                        tag, metric["name"], got.get("unit"), metric["unit"]))
            extra = set(metrics) - {m["name"] for m in expected[trace]}
            if extra:
                problems.append("%s: unlisted metrics %s" % (tag, sorted(extra)))
            print("%s: %d metrics" % (tag, len(metrics)), file=sys.stderr)
    for problem in problems:
        print("self-test: " + problem, file=sys.stderr)
    print(json.dumps({"self_test": "fail" if problems else "pass",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload of BENCHMARK.json in turn")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.all or args.self_test):
        parser.error("--workload, --all or --self-test is required")
    binary = build()
    if args.self_test:
        return self_test(binary)
    workloads = ([w["name"] for w in load_spec()["workloads"]] if args.all
                 else [args.workload])
    status = 0
    for workload in workloads:
        result = run_bench(binary, workload, args.seed, args.seconds,
                           args.trace)
        sys.stdout.write(result.stdout)
        sys.stdout.flush()
        status = status or result.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
