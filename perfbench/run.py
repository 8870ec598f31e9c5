#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload replay_dense_32 --seed 17 --seconds 50 --trace 0

Every flag is passed on to the binary (see perfbench/src/main.cpp); this
script adds the paths it needs. The build goes to .bench_build/perfbench
(CMake, Release); its output goes to standard error so the binary's JSON
result stays the last line of standard output. Spans of a traced run are
written to .bench_build/spans/<workload>-<seed>.jsonl.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
TIMEOUT_S = 170


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "cluster", "cluster.hpp")):
        fail("no simulator sources under %s/src; run from a full checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def flag_value(args, flag, default):
    return args[args.index(flag) + 1] if flag in args[:-1] else default


def main(args):
    build()
    spans_dir = os.path.join(ROOT, ".bench_build", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-%s.jsonl" % (
        flag_value(args, "--workload", "unknown"), flag_value(args, "--seed", "17")))
    cmd = [BINARY, *args,
           "--traces-dir", os.path.join(ROOT, "examples", "traces"),
           "--pins", os.path.join(HERE, "pinned_digests.txt"),
           "--spans-out", spans]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
