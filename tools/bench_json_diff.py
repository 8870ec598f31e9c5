#!/usr/bin/env python3
"""Compare two bench JSON files field by field, ignoring wall-clock fields.

Both files are read with key order kept and every number kept as its
literal text, so `5.397` vs `5.3970` or a reordered key counts as a
difference. Keys whose values come from wall-clock time are masked at any
depth: wall_seconds, sim_per_wall, speedup, parallel_speedup, planner_ns
and planner_ns_per_tick. Every other field must match exactly. Use it to
check that a bench change leaves every simulated number unchanged.

Usage: python3 tools/bench_json_diff.py A.json B.json
Exit status: 0 = equal under the mask, 1 = they differ (the first
differing path is printed), 2 = a file cannot be read or parsed.
"""
import json
import sys

WALL_KEYS = {"wall_seconds", "sim_per_wall", "speedup", "parallel_speedup",
             "planner_ns", "planner_ns_per_tick"}


class Obj(list):
    """A JSON object as its (key, value) pairs, in file order."""


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f, object_pairs_hook=Obj, parse_float=str, parse_int=str)


def first_difference(a, b, path=""):
    """The path of the first difference between a and b, or None."""
    if type(a) is not type(b):
        return path or "(top level)"
    if isinstance(a, list):
        if isinstance(a, Obj):
            for (ka, va), (kb, vb) in zip(a, b):
                if ka != kb:
                    return f"{join(path, ka)} (key order: {ka} vs {kb})"
                if ka in WALL_KEYS:
                    continue
                diff = first_difference(va, vb, join(path, ka))
                if diff:
                    return diff
            if len(a) != len(b):
                longer = a if len(a) > len(b) else b
                return f"{join(path, longer[min(len(a), len(b))][0])} (on one side only)"
            return None
        for i, (va, vb) in enumerate(zip(a, b)):
            diff = first_difference(va, vb, f"{path}[{i}]")
            if diff:
                return diff
        return None if len(a) == len(b) else f"{path or '(top level)'} (array length)"
    # Scalars compare by literal text: "1.0" != "1.00".
    return None if a == b else path or "(top level)"


def join(path, key):
    return f"{path}.{key}" if path else key


def main(argv):
    if len(argv) != 3:
        print("usage: bench_json_diff.py A.json B.json", file=sys.stderr)
        return 2
    try:
        a, b = load(argv[1]), load(argv[2])
    except (OSError, ValueError) as e:
        print(f"bench_json_diff: {e}", file=sys.stderr)
        return 2
    diff = first_difference(a, b)
    if diff:
        print(f"bench_json_diff: {argv[1]} and {argv[2]} differ at {diff}")
        return 1
    print(f"bench_json_diff: equal apart from wall-clock fields ({', '.join(sorted(WALL_KEYS))})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
