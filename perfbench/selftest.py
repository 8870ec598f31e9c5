#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at tiny size.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For each workload it runs perfbench/run.py with --size tiny, untraced twice
and traced once, and checks that:
  * each run exits 0 and reports correct, with no failed run;
  * the result line carries exactly the metrics BENCHMARK.json names for
    that mode, each with a valid name, its declared unit and a finite value;
  * the two untraced runs of one seed print the same digest.
Exits 0 when every check passes, 1 otherwise.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEED = "5"


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    digest = next((l.split()[1] for l in lines if l.strip().startswith("digest ")), None)
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, digest, p.stderr


def check(workload, trace, declared, problems):
    code, result, digest, stderr = run(workload, trace)
    where = "%s --trace %d" % (workload, trace)
    if code != 0 or result is None:
        problems.append("%s: exit %d\n%s" % (where, code, stderr[-2000:]))
        return digest
    if not result.get("correct") or result.get("failed") != 0:
        problems.append("%s: not correct: %s" % (where, result))
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append("%s: metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            where, sorted(set(declared) - set(metrics)), sorted(set(metrics) - set(declared))))
    for name, m in metrics.items():
        if not NAME.match(name):
            problems.append("%s: invalid metric name %r" % (where, name))
        if name in declared and m.get("unit") != declared[name]:
            problems.append("%s: %s has unit %r, declared %r" % (
                where, name, m.get("unit"), declared[name]))
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append("%s: %s has no finite value" % (where, name))
    return digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        first = check(name, 0, end_to_end, problems)
        second = check(name, 0, end_to_end, problems)
        if first is None or first != second:
            problems.append("%s: digests of one seed differ: %s vs %s" % (name, first, second))
        check(name, 1, per_layer, problems)
        print("%-20s %s" % (name, "ok" if not problems else "FAILED"), flush=True)
    for p in problems:
        print("problem: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
