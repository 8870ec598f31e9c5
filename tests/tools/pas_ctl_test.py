#!/usr/bin/env python3
"""pas_ctl drives the hosting cluster from a command stream, deterministically.

The batch result log for a stream must not depend on the engine (fast path,
reference loop, thread count). Both modes must fail loudly, exit 1 with a
`pas_ctl: ` line, when the result log cannot be written; a malformed or
missing stream must exit 1 before anything runs.

Usage: python3 tests/tools/pas_ctl_test.py PATH/TO/pas_ctl
"""
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SMOKE = REPO / "examples" / "commands" / "smoke.json"
PAS_CTL = None  # set from argv in __main__


class PasCtlTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        # A --results path whose parent directory does not exist.
        self.unwritable = str(self.dir / "absent" / "out.log")

    def tearDown(self):
        self.tmp.cleanup()

    def run_ctl(self, *flags, stdin=None):
        return subprocess.run([PAS_CTL, *flags], input=stdin, capture_output=True,
                              text=True, check=False)

    def batch_log(self, name, *flags):
        out = self.dir / name
        run = self.run_ctl(f"--commands={SMOKE}", f"--results={out}", *flags)
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        return out.read_bytes()

    def test_batch_log_is_identical_across_engines(self):
        default = self.batch_log("default.log")
        self.assertEqual(default.count(b'"id"'), 12)  # every smoke task fired
        self.assertEqual(self.batch_log("slow.log", "--slow"), default)
        self.assertEqual(self.batch_log("threads.log", "--threads=2"), default)

    def test_unwritable_results_in_batch_mode(self):
        run = self.run_ctl(f"--commands={SMOKE}", f"--results={self.unwritable}")
        self.assertEqual(run.returncode, 1, run.stdout + run.stderr)
        self.assertIn(f"pas_ctl: cannot write {self.unwritable}", run.stderr)

    def test_unwritable_results_in_repl_mode(self):
        run = self.run_ctl("--repl", f"--results={self.unwritable}",
                           stdin="run 5\nquit\n")
        self.assertEqual(run.returncode, 1, run.stdout + run.stderr)
        self.assertIn(f"pas_ctl: cannot write {self.unwritable}", run.stderr)

    def test_truncated_stream(self):
        truncated = self.dir / "truncated.json"
        lines = SMOKE.read_text().splitlines()
        truncated.write_text("\n".join(lines[:4]) + "\n")
        run = self.run_ctl(f"--commands={truncated}")
        self.assertEqual(run.returncode, 1, run.stdout + run.stderr)
        self.assertRegex(run.stderr, r"^pas_ctl: " + re.escape(str(truncated)) + r":\d+: ")
        self.assertEqual(run.stdout, "")

    def test_missing_commands_file(self):
        absent = self.dir / "absent.json"
        run = self.run_ctl(f"--commands={absent}")
        self.assertEqual(run.returncode, 1, run.stdout + run.stderr)
        self.assertIn(f"pas_ctl: cannot open {absent}", run.stderr)
        self.assertEqual(run.stdout, "")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    PAS_CTL = sys.argv.pop(1)
    unittest.main()
