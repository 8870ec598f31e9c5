#!/usr/bin/env python3
"""Fail on broken intra-repo links in the repo's Markdown files, and on
Markdown file names cited from C++ sources that name no file.

Checks every `[text](target)` link in *.md files (excluding build/ and
.git/): a relative target must exist on disk, resolved against the file
that references it. External schemes (http/https/mailto) and pure in-page
anchors (#...) are skipped; a `path#anchor` target is checked for the path
part only. Text inside inline code spans and fenced code blocks is not
Markdown, so it is never read as a link. Other reference styles
(<autolinks>, reference-style definitions) are not parsed — use inline
links for intra-repo paths.

C++ sources (*.cpp, *.hpp, *.h, *.cc) under src/, bench/, tests/,
examples/, tools/ and perfbench/src/ are scanned for cited `.md` names,
in comments and strings alike. A cited name resolves if it is a path
relative to the repo root or to the citing file's directory, or, for a
bare name, the name of any Markdown file in the repo. Names inside URLs
are skipped.

Usage: python3 tools/check_md_links.py [repo_root]
Exit status: 0 = every link and cited name resolves, 1 = at least one does
not.
"""
import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN_RE = re.compile(r"(`+).*?\1")
FENCE_RE = re.compile(r"^ {0,3}(`{3,}|~{3,})")
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")
SKIP_DIRS = {"build", ".git", ".claude"}
CPP_DIRS = ("src", "bench", "tests", "examples", "tools", "perfbench/src")
CPP_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}
CITED_MD_RE = re.compile(r"[\w./-]*\w\.md\b")


def md_files(root: Path):
    for path in sorted(root.rglob("*.md")):
        if not any(part in SKIP_DIRS for part in path.relative_to(root).parts):
            yield path


def cpp_files(root: Path):
    for top in CPP_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix in CPP_SUFFIXES and not any(
                    part in SKIP_DIRS for part in path.relative_to(root).parts):
                yield path


def check_cited_names(text: str, source: Path, root: Path, md_names: set):
    """(line, name) for each cited .md name in `text` that resolves nowhere."""
    dangling = []
    for lineno, line in enumerate(text.splitlines(), 1):
        for m in CITED_MD_RE.finditer(line):
            if line[:m.start()].endswith(":"):  # scheme://host/path.md
                continue
            name = m.group(0)
            if (root / name).exists() or (source.parent / name).exists():
                continue
            if "/" not in name and name in md_names:
                continue
            dangling.append((lineno, name))
    return dangling


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
    md_names = set()
    for md in md_files(root):
        md_names.add(md.name)
        broken, links = check_text(md.read_text(encoding="utf-8"), md, root)
        total_links += links
        for lineno, target in broken:
            failures.append(f"{md.relative_to(root)}:{lineno}: broken link -> {target}")
    sources = 0
    for source in cpp_files(root):
        sources += 1
        text = source.read_text(encoding="utf-8", errors="replace")
        for lineno, name in check_cited_names(text, source, root, md_names):
            failures.append(f"{source.relative_to(root)}:{lineno}: cites missing {name}")
    if failures:
        print("\n".join(failures))
        print(f"\n{len(failures)} broken link(s) or cited name(s)")
        return 1
    print(f"OK: all intra-repo links resolve ({total_links} links scanned) and every "
          f".md name cited in {sources} C++ source(s) exists")
    return 0


if __name__ == "__main__":
    sys.exit(main())
