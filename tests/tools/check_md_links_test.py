#!/usr/bin/env python3
"""tools/check_md_links.py reads links only where Markdown has them, and
checks the .md names C++ sources cite.

Each case writes its files into a fresh directory and runs the checker on
that directory as its repo root.

Usage: python3 tests/tools/check_md_links_test.py
"""
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

CHECKER = Path(__file__).resolve().parents[2] / "tools" / "check_md_links.py"


def check_tree(files: dict) -> subprocess.CompletedProcess:
    """Writes {relative path: text} into a fresh root and checks it."""
    with tempfile.TemporaryDirectory() as root:
        for rel, text in files.items():
            path = Path(root) / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        return subprocess.run([sys.executable, str(CHECKER), root],
                              capture_output=True, text=True, check=False)


def check(markdown: str) -> subprocess.CompletedProcess:
    return check_tree({"doc.md": markdown})


class CheckMdLinksTest(unittest.TestCase):
    def test_lambda_capture_in_inline_code_is_not_a_link(self):
        run = check("The visitor `[&](s) { return s.id; }` walks every shard.\n")
        self.assertEqual(run.returncode, 0, run.stdout)

    def test_link_inside_a_fenced_block_is_not_checked(self):
        run = check("Example:\n\n```md\nSee [the guide](missing.md).\n```\n")
        self.assertEqual(run.returncode, 0, run.stdout)

    def test_broken_link_to_a_missing_file_fails(self):
        run = check("Intro.\n\nSee [the guide](missing.md) and `[&](s)`.\n")
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("doc.md:3: broken link -> missing.md", run.stdout)

    def test_cpp_citing_a_missing_md_file_fails(self):
        run = check_tree({
            "docs/ARCHITECTURE.md": "# Architecture\n",
            "src/platform/catalog.cpp": "// Calibrated as in DESIGN.md §5.\nint x;\n",
        })
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("src/platform/catalog.cpp:1: cites missing DESIGN.md", run.stdout)

    def test_cpp_citing_an_existing_md_file_passes(self):
        run = check_tree({
            "docs/ARCHITECTURE.md": "# Architecture\n",
            "src/platform/catalog.cpp": "// See docs/ARCHITECTURE.md.\nint x;\n",
            "bench/table.cpp": 'const char* kDoc = "ARCHITECTURE.md";\n',
        })
        self.assertEqual(run.returncode, 0, run.stdout)


if __name__ == "__main__":
    unittest.main()
