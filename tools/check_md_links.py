#!/usr/bin/env python3
"""Fail on broken intra-repo links in the repo's Markdown files.

Checks every `[text](target)` link in *.md files (excluding build/ and
.git/): a relative target must exist on disk, resolved against the file
that references it. External schemes (http/https/mailto) and pure in-page
anchors (#...) are skipped; a `path#anchor` target is checked for the path
part only. Text inside inline code spans and fenced code blocks is not
Markdown, so it is never read as a link. Other reference styles
(<autolinks>, reference-style definitions) are not parsed — use inline
links for intra-repo paths.

Usage: python3 tools/check_md_links.py [repo_root]
Exit status: 0 = all links resolve, 1 = at least one broken link.
"""
import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN_RE = re.compile(r"(`+).*?\1")
FENCE_RE = re.compile(r"^ {0,3}(`{3,}|~{3,})")
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")
SKIP_DIRS = {"build", ".git", ".claude"}


def md_files(root: Path):
    for path in sorted(root.rglob("*.md")):
        if not any(part in SKIP_DIRS for part in path.relative_to(root).parts):
            yield path


def check_text(text: str, md: Path, root: Path):
    broken = []
    links = 0
    fence = None  # the opening fence while inside a fenced block
    for lineno, line in enumerate(text.splitlines(), 1):
        m = FENCE_RE.match(line)
        if fence is None and m:
            fence = m.group(1)
            continue
        if fence is not None:
            if m and m.group(1)[0] == fence[0] and len(m.group(1)) >= len(fence):
                fence = None
            continue
        for target in LINK_RE.findall(CODE_SPAN_RE.sub("", line)):
            links += 1
            if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (root / path_part.lstrip("/")) if target.startswith("/") \
                else (md.parent / path_part)
            if not resolved.exists():
                broken.append((lineno, target))
    return broken, links


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    root = root.resolve()
    total_links = 0
    failures = []
    for md in md_files(root):
        broken, links = check_text(md.read_text(encoding="utf-8"), md, root)
        total_links += links
        for lineno, target in broken:
            failures.append(f"{md.relative_to(root)}:{lineno}: broken link -> {target}")
    if failures:
        print("\n".join(failures))
        print(f"\n{len(failures)} broken link(s)")
        return 1
    print(f"OK: all intra-repo links resolve ({total_links} links scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
