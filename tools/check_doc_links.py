"""Fail on dead relative links and stale script paths in the documentation.

Scans ``README.md`` and every ``*.md`` file under ``docs/`` for Markdown
links, checks that each *relative* link target exists, and — when the link
carries a ``#fragment`` pointing at a Markdown file — that the target file
actually contains a heading with that GitHub-style anchor.  External links
(``http(s)://``, ``mailto:``) are ignored; this is a repository-consistency
gate, not a network crawler.

It also checks code: every repo-relative ``*.py`` path (one with a
directory part, such as ``benchmarks/run_policy_study.py``) in an inline
code span or a fenced code block — also inside a command like ``python
benchmarks/ci_smoke.py --jobs 2`` — must name a file that exists under the
repository root.

Used by CI (see ``.github/workflows/ci.yml``)::

    python tools/check_doc_links.py

Exits 0 when every link and path resolves, 1 otherwise (listing each).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline Markdown links: [text](target).  Good enough for our docs — we do
#: not use reference-style links or angle-bracketed targets.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
#: Fenced code blocks (cut out before matching inline code spans).
_FENCE_RE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
#: Inline code spans: `text` on one line.
_CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
#: A relative ``dir/.../name.py`` path inside a code span.
_PY_PATH_RE = re.compile(r"(?<![\w./-])((?:[\w.-]+/)+[\w.-]+\.py)\b")
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")


def documentation_files() -> List[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("**/*.md")))
    return [path for path in files if path.is_file()]


def github_anchor(heading: str) -> str:
    """The GitHub anchor slug for a heading: lowercase, punctuation stripped,
    spaces to hyphens (backticks and other formatting removed)."""
    text = heading.strip().lower()
    text = re.sub(r"[`*_~]", "", text)
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set:
    return {github_anchor(match.group(1))
            for match in _HEADING_RE.finditer(path.read_text(encoding="utf-8"))}


def check_file(path: Path) -> List[Tuple[str, str]]:
    """Dead links of one file as (link, reason) pairs."""
    problems: List[Tuple[str, str]] = []
    for match in _LINK_RE.finditer(path.read_text(encoding="utf-8")):
        target = match.group(1)
        if target.startswith(_EXTERNAL_PREFIXES):
            continue
        raw_path, _, fragment = target.partition("#")
        resolved = (path.parent / raw_path).resolve() if raw_path else path
        if not resolved.exists():
            problems.append((target, "target does not exist"))
            continue
        if fragment and resolved.suffix == ".md":
            if github_anchor(fragment) not in anchors_of(resolved):
                problems.append((target, f"no heading for anchor #{fragment}"))
    return problems


def code_paths(path: Path) -> List[str]:
    """Repo-relative ``*.py`` paths in one file's fenced blocks and inline
    code spans."""
    text = path.read_text(encoding="utf-8")
    chunks = _FENCE_RE.findall(text) + [
        span.group(1)
        for span in _CODE_SPAN_RE.finditer(_FENCE_RE.sub("", text))]
    return [found.group(1)
            for chunk in chunks for found in _PY_PATH_RE.finditer(chunk)]


def main() -> int:
    files = documentation_files()
    dead = 0
    checked = 0
    paths = 0
    for path in files:
        for match in _LINK_RE.finditer(path.read_text(encoding="utf-8")):
            if not match.group(1).startswith(_EXTERNAL_PREFIXES):
                checked += 1
        for target, reason in check_file(path):
            print(f"DEAD LINK {path.relative_to(REPO_ROOT)}: "
                  f"({target}) — {reason}", file=sys.stderr)
            dead += 1
        for code_path in code_paths(path):
            paths += 1
            if not (REPO_ROOT / code_path).is_file():
                print(f"STALE PATH {path.relative_to(REPO_ROOT)}: "
                      f"`{code_path}` does not exist", file=sys.stderr)
                dead += 1
    if dead:
        print(f"{dead} dead link(s) or path(s) across {len(files)} file(s)",
              file=sys.stderr)
        return 1
    print(f"docs links ok: {checked} relative link(s) and {paths} script "
          f"path(s) in {len(files)} file(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
