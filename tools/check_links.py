#!/usr/bin/env python3
"""Offline Markdown link checker for README.md and docs/.

Validates every ``[text](target)`` link in the repo's Markdown
documentation without touching the network:

* relative file links must point at an existing file inside the repo;
* ``#fragment`` anchors (same-file or on a linked Markdown file) must match
  a heading, using GitHub's slug rules (lowercase, punctuation stripped,
  spaces to dashes);
* external links (``http(s)://``, ``mailto:``) and relative links that
  escape the repository root (e.g. the CI badge's ``../../actions/...``,
  which only resolves on github.com) are skipped.

Exit status: 0 when every link resolves, 1 otherwise (each broken link is
printed).  Run from anywhere::

    python tools/check_links.py

Wrapped by ``tests/test_docs.py``, so the check runs in the tier-1 matrix.
"""

from __future__ import annotations

import functools
import pathlib
import re
import sys
from typing import List, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: ``[text](target)`` -- target captured up to the closing parenthesis.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)

_SKIP_PREFIXES = ("http://", "https://", "mailto:")


def markdown_files() -> List[pathlib.Path]:
    """The documentation set: README.md plus everything under docs/."""
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading line."""
    # Inline code/markup characters do not contribute to the slug.
    text = heading.strip().lower()
    text = re.sub(r"[`*_]", "", text)
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


@functools.lru_cache(maxsize=None)
def heading_slugs(path: pathlib.Path) -> frozenset:
    """All anchor slugs defined by ``path``'s headings (cached per file)."""
    text = _CODE_FENCE_RE.sub("", path.read_text(encoding="utf-8"))
    return frozenset(github_slug(m.group(1)) for m in _HEADING_RE.finditer(text))


def check_file(path: pathlib.Path,
               text: Optional[str] = None) -> List[Tuple[str, str]]:
    """Return ``(link, problem)`` pairs for every broken link in ``path``.

    ``text`` optionally supplies the already fence-stripped contents so a
    caller that also inspects the file does not read it twice.
    """
    problems: List[Tuple[str, str]] = []
    if text is None:
        text = _CODE_FENCE_RE.sub("", path.read_text(encoding="utf-8"))
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(_SKIP_PREFIXES):
            continue
        base, _, fragment = target.partition("#")
        if base:
            resolved = (path.parent / base).resolve()
            try:
                resolved.relative_to(REPO_ROOT)
            except ValueError:
                continue  # escapes the repo (e.g. the CI badge) -- site-relative
            if not resolved.exists():
                problems.append((target, f"file not found: {resolved}"))
                continue
            anchor_file = resolved
        else:
            anchor_file = path
        if fragment and anchor_file.suffix == ".md":
            if github_slug(fragment) not in heading_slugs(anchor_file):
                problems.append((target, f"no heading for anchor #{fragment} "
                                         f"in {anchor_file.name}"))
    return problems


def main() -> int:
    """Check every documentation file; print failures; return the exit code."""
    files = markdown_files()
    total_links = 0
    broken = 0
    for path in files:
        text = _CODE_FENCE_RE.sub("", path.read_text(encoding="utf-8"))
        total_links += len(_LINK_RE.findall(text))
        for target, problem in check_file(path, text=text):
            broken += 1
            print(f"BROKEN {path.relative_to(REPO_ROOT)}: ({target}) -- {problem}")
    if broken:
        print(f"{broken} broken link(s) across {len(files)} files")
        return 1
    print(f"all {total_links} links ok across {len(files)} markdown files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
