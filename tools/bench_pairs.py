#!/usr/bin/env python3
"""Measure a speed claim as interleaved parent/change pairs of perfbench runs.

Each side is a git revision (exported with `git archive` into the work
directory, so the repository's own git state is never touched) or an
existing checkout directory. Each side's perfbench builds inside its own
checkout on first use (`perfbench/run.py`). The tool then runs N pairs of
one workload at one seed (17 unless `--seed` names another, such as the
held-out seed 29), alternating which side goes first, and reads the
metrics from the last JSON line of each run.

For `sim_per_wall` it prints each side's median and quartiles, the
per-pair ratios, the change's win count, and whether the claim rule
holds: the change wins at least 9 of every 10 pairs, and the gap between
the medians exceeds the parent's interquartile range.

For every `end_to_end` metric of BENCHMARK.json that the runs print, it
prints both medians, the relative change and a no-regression verdict
against the metric's `better` direction and `bound`:
  ok          neither of the two below;
  worse       the change's median is worse than the parent's by more than
              the bound (relative to the parent's median);
  unresolved  the parent's spread (interquartile range over median) is
              wider than the bound, unless every change run beats every
              parent run.
`--json` keeps the verdicts and every metric of every run.

Usage:
    python3 tools/bench_pairs.py --parent REV_OR_DIR --change REV_OR_DIR \\
        --workload federation_k4 [--pairs 10] [--seconds 50] [--seed 17] \\
        [--workdir DIR] [--json OUT]

`--parent-cmd` / `--change-cmd` replace a side's checkout with a command
(split on spaces) that takes the same perfbench flags; the tool's test
drives the statistics through stub commands this way.

Exit status: 0 = every run finished and was correct (whatever the rule
says), 1 = a run failed or printed no metric, 2 = bad usage or a failed
checkout.
"""
import argparse
import json
import math
import os
import shlex
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(REPO, "BENCHMARK.json")
METRIC = "sim_per_wall"


def quantile(values, q):
    """Linear-interpolation quantile of `values` (q in [0, 1])."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(parent, change):
    """Statistics of paired samples of a higher-is-better metric: medians,
    quartiles, wins and the rule."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need equal, non-empty parent and change samples")
    side = {}
    for name, xs in (("parent", parent), ("change", change)):
        side[name] = {"median": quantile(xs, 0.5), "q1": quantile(xs, 0.25),
                      "q3": quantile(xs, 0.75)}
    wins = sum(1 for p, c in zip(parent, change) if c > p)
    gap = side["change"]["median"] - side["parent"]["median"]
    iqr = side["parent"]["q3"] - side["parent"]["q1"]
    return {
        "pairs": len(parent),
        "parent": side["parent"],
        "change": side["change"],
        "ratios": [c / p if p else float("inf") for p, c in zip(parent, change)],
        "wins": wins,
        "median_gap": gap,
        "parent_iqr": iqr,
        "rule_holds": 10 * wins >= 9 * len(parent) and gap > iqr,
    }


def relative(x, base):
    """(x - base) / |base|, with a zero base giving 0 or a signed infinity."""
    if base:
        return (x - base) / abs(base)
    return 0.0 if x == base else math.copysign(math.inf, x - base)


def verdict(parent, change, better, bound):
    """No-regression verdict of one metric's paired runs (see the module
    docstring): its medians, relative change, parent spread and verdict."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = quantile(parent, 0.5), quantile(change, 0.5)
    rel = relative(c_med, p_med)
    iqr = quantile(parent, 0.75) - quantile(parent, 0.25)
    spread = iqr / abs(p_med) if p_med else (0.0 if iqr == 0 else math.inf)
    if -sign * rel > bound:
        outcome = "worse"
    elif spread > bound and not min(sign * c for c in change) > max(sign * p for p in parent):
        outcome = "unresolved"
    else:
        outcome = "ok"
    return {"parent": p_med, "change": c_med, "relative_change": rel,
            "parent_spread": spread, "verdict": outcome}


def checkout(spec, workdir):
    """A directory holding `spec`: the directory itself, or an export of
    the revision under `workdir` (reused when already there)."""
    if os.path.isdir(spec):
        return os.path.abspath(spec)
    sha = subprocess.run(["git", "-C", REPO, "rev-parse", "--verify", spec + "^{commit}"],
                         capture_output=True, text=True, check=False)
    if sha.returncode != 0:
        sys.exit("bench_pairs: %r is neither a directory nor a revision" % spec)
    dest = os.path.join(workdir, sha.stdout.strip()[:12])
    if not os.path.isfile(os.path.join(dest, ".exported")):
        os.makedirs(dest, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", REPO, "archive", spec], stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=False)
        if archive.wait() != 0 or untar.returncode != 0:
            sys.exit("bench_pairs: cannot export %s" % spec)
        open(os.path.join(dest, ".exported"), "w").close()
    return dest


def run_once(cmd, args):
    """One run; returns every metric it printed, or exits 1 on a failed run
    or one that printed no sim_per_wall."""
    proc = subprocess.run(cmd + args, capture_output=True, text=True, check=False)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        float(result["metrics"][METRIC]["value"])
    except (IndexError, ValueError, KeyError, TypeError):
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit("bench_pairs: %s printed no %s" % (" ".join(cmd), METRIC))
    if proc.returncode != 0 or not result.get("correct", False):
        sys.exit("bench_pairs: %s failed (exit %d)" % (" ".join(cmd), proc.returncode))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--parent-cmd")
    ap.add_argument("--change-cmd")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--workdir", default=None)
    ap.add_argument("--json", default=None)
    opts = ap.parse_args(argv)
    if opts.pairs < 1:
        ap.error("--pairs must be positive")
    workdir = opts.workdir or os.path.join(REPO, ".bench_build", "pairs")

    cmds = {}
    for name in ("parent", "change"):
        spec, cmd = getattr(opts, name), getattr(opts, name + "_cmd")
        if (spec is None) == (cmd is None):
            ap.error("give exactly one of --%s and --%s-cmd" % (name, name))
        if cmd is not None:
            cmds[name] = shlex.split(cmd)
        else:
            root = checkout(spec, workdir)
            cmds[name] = [sys.executable, os.path.join(root, "perfbench", "run.py")]

    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", "%g" % opts.seconds, "--trace", "0"]
    samples = {"parent": [], "change": []}
    runs = {"parent": [], "change": []}
    for i in range(opts.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            runs[name].append(run_once(cmds[name], args))
            samples[name].append(float(runs[name][-1][METRIC]))
        p, c = samples["parent"][-1], samples["change"][-1]
        print("pair %2d  parent %12.4f  change %12.4f  ratio %.4f"
              % (i + 1, p, c, c / p if p else float("inf")), flush=True)

    stats = summarize(samples["parent"], samples["change"])
    for name in ("parent", "change"):
        s = stats[name]
        print("%-6s  median %12.4f  q1 %12.4f  q3 %12.4f" % (name, s["median"], s["q1"], s["q3"]))
    print("seed %d  wins %d of %d  median gap %.4f  parent IQR %.4f  rule %s" % (
        opts.seed, stats["wins"], stats["pairs"], stats["median_gap"], stats["parent_iqr"],
        "holds" if stats["rule_holds"] else "fails"))
    printed = set.intersection(*(set(r) for r in runs["parent"] + runs["change"]))
    with open(BENCHMARK, encoding="utf-8") as f:
        end_to_end = json.load(f)["end_to_end"]
    stats["verdicts"] = {
        m["name"]: verdict([float(r[m["name"]]) for r in runs["parent"]],
                           [float(r[m["name"]]) for r in runs["change"]],
                           m["better"], m["bound"])
        for m in end_to_end if m["name"] in printed}
    for metric, v in stats["verdicts"].items():
        print("%-18s  parent median %12.6g  change median %12.6g  change %+8.2f%%  %s"
              % (metric, v["parent"], v["change"], 100 * v["relative_change"], v["verdict"]))
    if opts.json:
        stats.update(workload=opts.workload, metric=METRIC, seconds=opts.seconds,
                     seed=opts.seed, samples=samples, runs=runs)
        with open(opts.json, "w", encoding="utf-8") as f:
            json.dump(stats, f, indent=2)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
