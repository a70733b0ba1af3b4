#!/usr/bin/env python3
"""Documentation lint: links, fences, and observability cross-references.

Scans ``README.md`` and every ``docs/*.md`` for

* **dead intra-repo links** -- ``[text](target)`` where ``target`` is
  a relative path (external ``http(s)``/``mailto`` URLs and pure
  ``#anchor`` links are skipped) that does not exist on disk relative
  to the file containing it;
* **unnamed code fences** -- every opening ``` fence must carry an
  info string (``python``, ``bash``, ``text``, ...), so renderers
  highlight consistently and snippets stay greppable by language;
* **dangling observability names** -- every metric family
  (``repro_*``), span name (``worker.spawn``) and fault-site spec
  (``vector.join:crash@0.05``) written in backticks in
  ``OBSERVABILITY.md`` / ``ROBUSTNESS.md`` / ``SCALING.md`` must
  correspond to a string constant (or dotted composition of known
  constants/identifiers) somewhere under ``src/repro`` -- so a renamed
  span or deleted metric fails CI instead of silently rotting the docs;
* **dangling span tags and counters** -- every backticked name in the
  ``Tags / counters`` column of ``OBSERVABILITY.md``'s span table
  (example values in parentheses aside) must be a string constant or
  an identifier under ``src/repro``, so a counter nothing emits fails.

Exit status is non-zero when any problem is found; each problem is
reported as ``path:line: message``.  Run from the repo root (CI's
``docs-check`` job does) or from anywhere -- paths resolve relative
to this file's repository.

    python tools/check_docs.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: docs whose backticked observability names are cross-checked
REFERENCE_CHECKED = {"OBSERVABILITY.md", "ROBUSTNESS.md", "SCALING.md"}

#: ``[text](target)`` -- good enough for the markdown these docs use;
#: images (``![alt](src)``) match too, which is what we want.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^\s*```(.*)$")
_CODE_SPAN = re.compile(r"`[^`]*`")


def doc_files() -> list[Path]:
    files = [REPO / "README.md"]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def check_links(path: Path, lines: list[str]) -> list[str]:
    problems = []
    in_fence = False
    for lineno, line in enumerate(lines, 1):
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:  # code samples may show url-ish text; skip them
            continue
        # inline code spans hold algebra like σ*_p[r1,…,rn](r), which
        # the link regex would misread -- blank them out first
        for target in _LINK.findall(_CODE_SPAN.sub("", line)):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:  # pure #anchor
                continue
            resolved = (path.parent / target).resolve()
            if REPO not in resolved.parents and resolved != REPO:
                problems.append(
                    f"{path.relative_to(REPO)}:{lineno}: link escapes the "
                    f"repository: {target}"
                )
            elif not resolved.exists():
                problems.append(
                    f"{path.relative_to(REPO)}:{lineno}: dead link: {target}"
                )
    return problems


def check_fences(path: Path, lines: list[str]) -> list[str]:
    problems = []
    open_fence_line = None
    for lineno, line in enumerate(lines, 1):
        match = _FENCE.match(line)
        if not match:
            continue
        if open_fence_line is None:
            open_fence_line = lineno
            if not match.group(1).strip():
                problems.append(
                    f"{path.relative_to(REPO)}:{lineno}: unnamed code fence "
                    "(add a language, e.g. ```python or ```text)"
                )
        else:
            if match.group(1).strip():
                problems.append(
                    f"{path.relative_to(REPO)}:{lineno}: closing fence "
                    "carries text (missing blank ``` for the previous "
                    f"fence opened at line {open_fence_line}?)"
                )
            open_fence_line = None
    if open_fence_line is not None:
        problems.append(
            f"{path.relative_to(REPO)}:{open_fence_line}: unclosed code fence"
        )
    return problems


# ---------------------------------------------------------------------------
# observability cross-references

#: a metric family name inside a code span
_METRIC = re.compile(r"^repro_[a-z0-9_]+$")
#: a dotted span name: lowercase components, ``<...>`` wildcards and a
#: trailing ``*`` allowed (``reference.<op>``, ``replan.*``)
_SPAN = re.compile(r"^[a-z_][a-z0-9_]*(\.(?:[a-z0-9_]+|<[a-z_]+>|\*))+$")
#: a fault-site spec: ``site[:kind[=value][@p]]`` -- the site may be a
#: single word here (``worker:kill9``), unlike bare span tokens
_FAULT = re.compile(
    r"^(?P<site>[a-z_][a-z0-9_]*(\.(?:[a-z0-9_]+|<[a-z_]+>))*)"
    r":(?P<kind>[a-z][a-z0-9_]*)(=[^@]+)?(@[0-9.p]+)?$"
)
#: file extensions that make a dotted token a filename, not a span
_FILE_EXT = {"md", "py", "json", "prom", "csv", "sql", "txt", "yml", "html"}


def collect_code_names() -> dict[str, set[str]]:
    """Every string constant and identifier under ``src/repro``.

    Returns ``{"literals": ..., "components": ..., "identifiers": ...}``:
    full string constants (f-string fragments included), the
    dot/colon-separated components of those constants, and all
    identifiers (plus lowercased forms, so the span a code path builds
    as ``f"plan.{tier.name.lower()}"`` resolves through the enum
    member ``PARTITIONED_DP``).
    """
    literals: set[str] = set()
    identifiers: set[str] = set()
    for source in sorted((REPO / "src" / "repro").rglob("*.py")):
        tree = ast.parse(source.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
            elif isinstance(node, ast.Name):
                identifiers.add(node.id)
            elif isinstance(node, ast.Attribute):
                identifiers.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                identifiers.add(node.name)
            elif isinstance(node, ast.arg):
                identifiers.add(node.arg)
            elif isinstance(node, ast.keyword) and node.arg:
                identifiers.add(node.arg)
    identifiers |= {name.lower() for name in identifiers}
    components: set[str] = set()
    for lit in literals:
        for piece in re.split(r"[.:]", lit):
            if piece:
                components.add(piece)
    return {
        "literals": literals,
        "components": components,
        "identifiers": identifiers,
    }


def _component_known(component: str, names: dict[str, set[str]]) -> bool:
    if component == "*" or component.startswith("<"):
        return True  # documented wildcard (``<op>``, ``replan.*``)
    return (
        component in names["components"]
        or component in names["identifiers"]
        or component in names["literals"]
    )


def _dotted_known(token: str, names: dict[str, set[str]]) -> bool:
    if token in names["literals"]:
        return True
    return all(
        _component_known(piece, names) for piece in token.split(".")
    )


def check_references(
    path: Path, lines: list[str], names: dict[str, set[str]]
) -> list[str]:
    """Cross-check backticked metric/span/fault names against the code."""
    problems = []
    in_fence = False
    for lineno, line in enumerate(lines, 1):
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for span in _CODE_SPAN.findall(line):
            token = span.strip("`")
            if _METRIC.match(token):
                if token not in names["literals"]:
                    problems.append(
                        f"{path.relative_to(REPO)}:{lineno}: metric "
                        f"`{token}` does not exist in src/repro"
                    )
                continue
            fault = _FAULT.match(token)
            if fault is not None:
                site, kind = fault.group("site"), fault.group("kind")
                if not _dotted_known(site, names):
                    problems.append(
                        f"{path.relative_to(REPO)}:{lineno}: fault site "
                        f"`{site}` (in `{token}`) does not exist in src/repro"
                    )
                elif not _component_known(kind, names):
                    problems.append(
                        f"{path.relative_to(REPO)}:{lineno}: fault kind "
                        f"`{kind}` (in `{token}`) does not exist in src/repro"
                    )
                continue
            if not _SPAN.match(token):
                continue  # not a span-shaped token (prose, paths, ...)
            if token.startswith("repro."):
                continue  # module path, covered by imports not strings
            if token.rsplit(".", 1)[-1] in _FILE_EXT:
                continue  # a filename
            if not _dotted_known(token, names):
                problems.append(
                    f"{path.relative_to(REPO)}:{lineno}: span/name "
                    f"`{token}` does not exist in src/repro"
                )
    return problems


#: an innermost parenthesized aside: example values, not emitted names
_ASIDE = re.compile(r"\([^()]*\)")


def check_span_counters(
    path: Path, lines: list[str], names: dict[str, set[str]]
) -> list[str]:
    """Cross-check the span table's tags/counters column against the code."""
    problems = []
    column = None
    for lineno, line in enumerate(lines, 1):
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.lstrip().startswith("|"):
            column = None
            continue
        if column is None:
            if cells[0] == "Span" and "Tags / counters" in cells:
                column = cells.index("Tags / counters")
            continue
        if len(cells) <= column:
            continue
        text = cells[column]
        while _ASIDE.search(text):
            text = _ASIDE.sub("", text)
        for span in _CODE_SPAN.findall(text):
            token = span.strip("`")
            if token not in names["literals"] and token not in names["identifiers"]:
                problems.append(
                    f"{path.relative_to(REPO)}:{lineno}: span tag/counter "
                    f"`{token}` does not exist in src/repro"
                )
    return problems


def main() -> int:
    problems: list[str] = []
    files = doc_files()
    names = collect_code_names()
    for path in files:
        lines = path.read_text().splitlines()
        problems += check_links(path, lines)
        problems += check_fences(path, lines)
        if path.name in REFERENCE_CHECKED:
            problems += check_references(path, lines, names)
        if path.name == "OBSERVABILITY.md":
            problems += check_span_counters(path, lines, names)
    for problem in problems:
        print(problem)
    print(
        f"checked {len(files)} file(s): "
        + ("OK" if not problems else f"{len(problems)} problem(s)")
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
