#!/usr/bin/env python3
"""Docs link checker: verify that relative links and anchors resolve.

Scans the given markdown files for inline links and images
(``[text](target)``), skips external (``http(s)://``, ``mailto:``)
targets, and fails if

* a relative target does not exist on disk relative to the file that
  references it, or
* an anchored target (``FILE.md#section`` or a same-file ``#section``)
  names a fragment that no heading of the target markdown file produces
  under GitHub's slug rules (lowercase, spaces to hyphens, punctuation
  dropped, ``-1``/``-2``… suffixes for duplicates).

Usage::

    python tools/check_links.py README.md docs/ARCHITECTURE.md

Exit code 0 when every link resolves, 1 otherwise (with one line per broken
link).  Used by the docs job of the CI workflow; run it locally before
committing documentation changes.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Inline markdown links/images: [text](target) — excludes reference-style.
_LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: ATX headings (``# Title`` … ``###### Title``) at line start.
_HEADING_PATTERN = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)

#: Characters GitHub keeps in a heading slug besides word chars and hyphens.
_SLUG_STRIP = re.compile(r"[^\w\- ]", re.UNICODE)


def iter_links(markdown: str):
    for match in _LINK_PATTERN.finditer(markdown):
        yield match.group(1)


def _slugify(heading: str) -> str:
    """GitHub's anchor slug for one heading (without duplicate suffixes)."""
    # Strip * emphasis and ` code markers; literal underscores survive into
    # GitHub slugs (run_result.json -> run_resultjson), so _ is
    # deliberately kept even though _emphasis_ would technically be dropped.
    text = re.sub(r"[*`]", "", heading.strip())
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # inline links
    text = _SLUG_STRIP.sub("", text.lower())
    return text.replace(" ", "-")


def heading_anchors(markdown: str) -> set[str]:
    """All anchor fragments the file's headings produce."""
    anchors: set[str] = set()
    counts: dict[str, int] = {}
    # Strip fenced code blocks so commented '#' lines don't become headings.
    stripped = re.sub(r"```.*?```", "", markdown, flags=re.DOTALL)
    for match in _HEADING_PATTERN.finditer(stripped):
        slug = _slugify(match.group(1))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def check_file(path: Path) -> list[str]:
    """Broken-link descriptions for one markdown file (empty = all good)."""
    errors = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]
    for target in iter_links(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        relative, _, fragment = target.partition("#")
        if relative:
            resolved = (path.parent / relative).resolve()
            if not resolved.exists():
                errors.append(f"{path}: broken link -> {target}")
                continue
        else:
            resolved = path  # same-file anchor
        if fragment and resolved.suffix.lower() == ".md":
            try:
                anchors = heading_anchors(resolved.read_text(encoding="utf-8"))
            except OSError as exc:
                errors.append(f"{path}: unreadable anchor target {target} ({exc})")
                continue
            if fragment.lower() not in anchors:
                errors.append(f"{path}: broken anchor -> {target}")
    return errors


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_links.py FILE.md [FILE.md ...]", file=sys.stderr)
        return 2
    errors: list[str] = []
    checked = 0
    for name in argv:
        path = Path(name)
        if not path.exists():
            errors.append(f"{path}: file not found")
            continue
        errors.extend(check_file(path))
        checked += 1
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {checked} file(s), {len(errors)} broken link(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
