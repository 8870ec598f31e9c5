#!/usr/bin/env python3
"""bench_cluster_consolidation rejects bad input before it simulates.

A malformed input file or a gate flag whose tier is off must exit 2 with
an `origin: message` line on stderr and print no run output; a run whose
threshold gates fail must name every failing gate and exit 1.

Usage: python3 tests/bench/cluster_bad_input_test.py PATH/TO/bench_cluster_consolidation
"""
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
BENCH = None  # set from argv in __main__


class ClusterBadInputTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.out = str(Path(self.tmp.name) / "out.json")

    def tearDown(self):
        self.tmp.cleanup()

    def run_bench(self, *flags):
        return subprocess.run([BENCH, "--smoke", f"--out={self.out}", *flags],
                              capture_output=True, text=True, check=False)

    def assert_rejected(self, run, pattern):
        self.assertEqual(run.returncode, 2, run.stdout + run.stderr)
        self.assertRegex(run.stderr, r"^bench_cluster_consolidation: " + pattern)
        self.assertNotIn("slow-stepped loop", run.stdout)
        self.assertFalse(Path(self.out).exists())

    def test_truncated_command_file(self):
        lines = (REPO / "examples" / "commands" / "smoke.json").read_text().splitlines()
        truncated = Path(self.tmp.name) / "truncated.json"
        truncated.write_text("\n".join(lines[:4]) + "\n")
        run = self.run_bench(f"--commands={truncated}")
        self.assert_rejected(run, re.escape(str(truncated)) + r":\d+: ")

    def test_missing_command_file(self):
        run = self.run_bench(f"--commands={self.tmp.name}/absent.json")
        self.assert_rejected(run, "cannot open ")

    def test_missing_trace_dir(self):
        run = self.run_bench(f"--trace={self.tmp.name}/absent")
        self.assert_rejected(run, "Trace: cannot read directory ")

    def test_gate_flag_without_its_tier(self):
        self.assert_rejected(self.run_bench("--require-scale-rate=100"),
                             re.escape("--require-scale-rate needs --scale-hosts > 0"))
        self.assert_rejected(self.run_bench("--require-hetero-saving"),
                             re.escape("--require-hetero-saving needs --fleet=mixed"))

    def test_every_failing_gate_prints_its_own_line(self):
        run = subprocess.run(
            [BENCH, "--horizon=400", f"--out={self.out}", "--require-rate=1e9",
             "--scale-hosts=20", "--scale-horizon=60", "--require-scale-rate=1e9"],
            capture_output=True, text=True, check=False)
        self.assertEqual(run.returncode, 1, run.stdout + run.stderr)
        self.assertIn("FAIL: fast.sim_per_wall", run.stdout)
        self.assertIn("FAIL: scale.sim_per_wall", run.stdout)


if __name__ == "__main__":
    BENCH = sys.argv.pop(1)
    unittest.main()
