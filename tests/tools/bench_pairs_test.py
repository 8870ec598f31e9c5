#!/usr/bin/env python3
"""tools/bench_pairs.py: its statistics, its pairing order, its
no-regression verdicts and its exits.

The statistics are checked on fixed samples; the pairing is driven end to
end through a stub benchmark command that replays a list of values and
logs which side ran when.

Usage: python3 tests/tools/bench_pairs_test.py
"""
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
TOOL = REPO / "tools" / "bench_pairs.py"

spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# A stand-in for perfbench/run.py: prints the next value of its side as the
# last JSON line (with a fixed setup_s per side), logs the side's name, and
# checks it got the workload flags and the seed named in the environment.
STUB = r'''
import json, os, sys
side, values_path, log_path = sys.argv[1:4]
flags = sys.argv[4:]
assert flags[flags.index("--workload") + 1] == "federation_k4", flags
assert flags[flags.index("--trace") + 1] == "0", flags
assert flags[flags.index("--seed") + 1] == os.environ.get("STUB_SEED", "17"), flags
with open(log_path, "a") as log:
    log.write(side + "\n")
with open(log_path) as log:
    runs = sum(1 for line in log if line.strip() == side)
with open(values_path) as f:
    values = json.load(f)
value = values[runs - 1]
print("human-readable lines first")
print(json.dumps({"correct": value is not None, "attempted": 1, "failed": 0,
                  "metrics": {"sim_per_wall": {"value": value or 0.0, "unit": "sim-s/wall-s"},
                              "setup_s": {"value": 2.0 if side == "parent" else 3.0,
                                          "unit": "s"}}}))
'''


class StatisticsTest(unittest.TestCase):
    def test_quantiles_interpolate_linearly(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertAlmostEqual(bench_pairs.quantile(xs, 0.25), 1.75)
        self.assertAlmostEqual(bench_pairs.quantile(xs, 0.5), 2.5)
        self.assertAlmostEqual(bench_pairs.quantile(xs, 0.75), 3.25)
        self.assertEqual(bench_pairs.quantile([7.0], 0.25), 7.0)

    def test_rule_needs_nine_wins_in_ten_and_a_gap_beyond_the_iqr(self):
        parent = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
        change = [p + 10.0 for p in parent]
        change[0] = 99.0  # one loss: 9 of 10 still holds
        s = bench_pairs.summarize(parent, change)
        self.assertEqual(s["wins"], 9)
        self.assertAlmostEqual(s["parent"]["median"], 104.5)
        self.assertAlmostEqual(s["parent_iqr"], 4.5)
        self.assertAlmostEqual(s["median_gap"], 10.0)
        self.assertTrue(s["rule_holds"])

        change[1] = 100.0  # a second loss: 8 of 10
        self.assertFalse(bench_pairs.summarize(parent, change)["rule_holds"])

        small = [p + 1.0 for p in parent]  # wins every pair, gap 1 < IQR 4.5
        s = bench_pairs.summarize(parent, small)
        self.assertEqual(s["wins"], 10)
        self.assertFalse(s["rule_holds"])

    def test_ties_are_not_wins(self):
        s = bench_pairs.summarize([5.0, 5.0], [5.0, 5.0])
        self.assertEqual(s["wins"], 0)
        self.assertFalse(s["rule_holds"])


class EndToEndTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        (self.dir / "stub.py").write_text(STUB, encoding="utf-8")
        self.log = self.dir / "order.log"

    def tearDown(self):
        self.tmp.cleanup()

    def side(self, name, values):
        path = self.dir / (name + ".json")
        path.write_text(json.dumps(values), encoding="utf-8")
        return "%s %s %s %s %s" % (sys.executable, self.dir / "stub.py", name, path, self.log)

    def run_tool(self, parent, change, *extra, env=None):
        return subprocess.run(
            [sys.executable, str(TOOL), "--parent-cmd", self.side("parent", parent),
             "--change-cmd", self.side("change", change), "--workload", "federation_k4",
             *extra],
            capture_output=True, text=True, check=False, env=env)

    def test_pairs_alternate_and_report(self):
        out = self.dir / "pairs.json"
        run = self.run_tool([100.0, 102.0, 101.0, 103.0], [110.0, 111.0, 112.0, 113.0],
                            "--pairs", "4", "--seconds", "1", "--json", str(out))
        self.assertEqual(run.returncode, 0, run.stderr)
        order = self.log.read_text(encoding="utf-8").split()
        self.assertEqual(order, ["parent", "change", "change", "parent",
                                 "parent", "change", "change", "parent"])
        self.assertIn("seed 17  wins 4 of 4", run.stdout)
        self.assertIn("rule holds", run.stdout)
        result = json.loads(out.read_text(encoding="utf-8"))
        self.assertEqual(result["samples"]["parent"], [100.0, 102.0, 101.0, 103.0])
        self.assertAlmostEqual(result["parent"]["median"], 101.5)
        self.assertAlmostEqual(result["change"]["median"], 111.5)
        self.assertAlmostEqual(result["ratios"][0], 1.1)
        self.assertEqual([r["sim_per_wall"] for r in result["runs"]["change"]],
                         [110.0, 111.0, 112.0, 113.0])
        setup = result["verdicts"]["setup_s"]
        self.assertEqual((setup["parent"], setup["change"]), (2.0, 3.0))
        self.assertRegex(run.stdout,
                         r"setup_s\s+parent median\s+2\s+change median\s+3\s+change\s+\+50\.00%\s+worse")
        self.assertEqual(set(result["verdicts"]), {"sim_per_wall", "setup_s"})
        self.assertEqual(result["seed"], 17)

    def test_a_named_seed_reaches_every_run(self):
        out = self.dir / "seed.json"
        run = self.run_tool([100.0, 101.0], [110.0, 111.0], "--pairs", "2", "--seed", "29",
                            "--json", str(out), env=dict(os.environ, STUB_SEED="29"))
        self.assertEqual(run.returncode, 0, run.stderr)
        self.assertIn("seed 29  wins 2 of 2", run.stdout)
        self.assertEqual(json.loads(out.read_text(encoding="utf-8"))["seed"], 29)
        # The stub refuses any other seed, so a dropped flag fails the run.
        run = self.run_tool([100.0], [110.0], "--pairs", "1", "--seed", "29")
        self.assertEqual(run.returncode, 1)

    def verdicts(self, parent, change):
        out = self.dir / "verdicts.json"
        run = self.run_tool(parent, change, "--pairs", str(len(parent)), "--json", str(out))
        self.assertEqual(run.returncode, 0, run.stderr)
        return run.stdout, json.loads(out.read_text(encoding="utf-8"))["verdicts"]

    def test_a_change_within_the_bound_is_ok(self):
        stdout, v = self.verdicts([100.0, 101.0, 102.0, 103.0], [95.0, 96.0, 97.0, 98.0])
        self.assertEqual(v["sim_per_wall"]["verdict"], "ok")
        self.assertAlmostEqual(v["sim_per_wall"]["relative_change"], -5.0 / 101.5)
        self.assertAlmostEqual(v["sim_per_wall"]["parent_spread"], 1.5 / 101.5)
        self.assertRegex(stdout, r"sim_per_wall\s+parent median\s+101\.5\s+change median\s+96\.5"
                                 r"\s+change\s+-4\.93%\s+ok")

    def test_a_change_beyond_the_bound_is_worse(self):
        # sim_per_wall is higher-better with bound 0.25, setup_s (2 s -> 3 s)
        # lower-better with the same bound.
        stdout, v = self.verdicts([100.0, 100.0, 100.0, 100.0], [70.0, 70.0, 70.0, 70.0])
        self.assertEqual(v["sim_per_wall"]["verdict"], "worse")
        self.assertAlmostEqual(v["sim_per_wall"]["relative_change"], -0.3)
        self.assertEqual(v["setup_s"]["verdict"], "worse")
        self.assertRegex(stdout, r"sim_per_wall\s+.*-30\.00%\s+worse")

    def test_a_wide_parent_spread_is_unresolved(self):
        # Parent quartiles 57.5 and 142.5 around a median of 100: a spread of
        # 0.85, wider than the 0.25 bound.
        _, v = self.verdicts([50.0, 150.0, 60.0, 140.0], [100.0, 100.0, 100.0, 100.0])
        self.assertAlmostEqual(v["sim_per_wall"]["parent_spread"], 0.85)
        self.assertEqual(v["sim_per_wall"]["verdict"], "unresolved")

    def test_a_wide_spread_resolves_when_every_change_run_wins(self):
        _, v = self.verdicts([50.0, 150.0, 60.0, 140.0], [160.0, 170.0, 180.0, 151.0])
        self.assertEqual(v["sim_per_wall"]["verdict"], "ok")

    def test_a_failed_run_exits_1(self):
        run = self.run_tool([100.0, 100.0], [None, 100.0], "--pairs", "2")
        self.assertEqual(run.returncode, 1)
        self.assertIn("failed", run.stderr)

    def test_bad_usage_exits_2(self):
        run = subprocess.run([sys.executable, str(TOOL), "--workload", "federation_k4"],
                             capture_output=True, text=True, check=False)
        self.assertEqual(run.returncode, 2)


if __name__ == "__main__":
    unittest.main()
