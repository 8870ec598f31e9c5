#!/usr/bin/env python3
"""tools/bench_json_diff.py masks wall-clock fields and nothing else.

Runs the tool on the committed BENCH_cluster.json against itself and
against edited copies.

Usage: python3 tests/tools/bench_json_diff_test.py
"""
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
TOOL = REPO / "tools" / "bench_json_diff.py"
BENCH = REPO / "BENCH_cluster.json"


def diff(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), str(a), str(b)],
                          capture_output=True, text=True, check=False)


class BenchJsonDiffTest(unittest.TestCase):
    def edited(self, old: str, new: str) -> Path:
        text = BENCH.read_text(encoding="utf-8")
        self.assertIn(old, text)
        path = Path(self.tmp.name) / "edited.json"
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        return path

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def test_committed_file_equals_itself(self):
        run = diff(BENCH, BENCH)
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)

    def test_edited_saving_fails_naming_its_path(self):
        run = diff(BENCH, self.edited('"dvfs_saving_watts": ', '"dvfs_saving_watts": 1'))
        self.assertEqual(run.returncode, 1, run.stdout + run.stderr)
        self.assertIn("differ at dvfs_saving_watts", run.stdout)

    def test_wall_clock_fields_are_masked(self):
        run = diff(BENCH, self.edited('"fast": {"wall_seconds": ', '"fast": {"wall_seconds": 9'))
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)


if __name__ == "__main__":
    unittest.main()
