#!/usr/bin/env python3
"""Documentation quality gate: docstring coverage + doc reference check.

Two complementary checks, both stdlib-only so CI can run them without
installing the scientific stack:

1. **Docstring coverage** — every public module, class, function and
   method under ``src/repro`` must carry a non-empty docstring (the
   same contract as ruff's D1/D419 rules, mirrored here so it can run
   without ruff and cover a few extra surfaces: ``examples/``,
   ``benchmarks/`` and ``tools/`` must at least have module
   docstrings, and every ``examples/`` docstring must state its
   expected runtime and what it produces).

2. **Reference check** — every repo path (``src/...``,
   ``benchmarks/...py``, ``examples/...py``, ...) and every dotted
   module/attribute reference (``repro.radio.generator``,
   ``station.fleet.run_fleet_campaign``) named in ``README.md`` or
   ``ARCHITECTURE.md`` must actually exist, so the docs cannot rot
   silently when modules move.

Exit status is non-zero when any check fails; findings are printed one
per line as ``<file>: <problem>``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = ("README.md", "ARCHITECTURE.md")
PACKAGES = (
    "sim",
    "radio",
    "uav",
    "uwb",
    "wifi",
    "link",
    "station",
    "core",
    "serve",
    "analysis",
)

#: Repo-relative path references worth existence-checking.
_PATH_RE = re.compile(
    r"\b((?:src|benchmarks|examples|tests|tools|\.github)/[\w./-]+\.(?:py|yml|json|md)"
    r"|BENCH_\w+\.json|[A-Z][A-Z_]+\.md|ARCHITECTURE\.md|README\.md)\b"
)

#: Dotted module/attribute references (optionally without the repro
#: prefix when they start with a known package name).
_DOTTED_RE = re.compile(r"`(repro(?:\.\w+)+|(?:%s)(?:\.\w+)+)`" % "|".join(PACKAGES))


def _iter_public_defs(tree: ast.Module):
    """Yield (lineno, qualified name) of public defs missing docstrings."""

    def walk(node, prefix, public):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                is_public = public and not child.name.startswith("_")
                doc = ast.get_docstring(child)
                if is_public and not (doc and doc.strip()):
                    yield child.lineno, f"{prefix}{child.name}"
                if isinstance(child, ast.ClassDef):
                    yield from walk(child, f"{prefix}{child.name}.", is_public)

    yield from walk(tree, "", True)


def check_docstrings() -> list:
    """Docstring coverage over the library, examples, benches and tools."""
    problems = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(REPO)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        doc = ast.get_docstring(tree)
        if not (doc and doc.strip()):
            problems.append(f"{rel}: missing module docstring")
        problems.extend(
            f"{rel}:{lineno}: public `{name}` has no docstring"
            for lineno, name in _iter_public_defs(tree)
        )
    for directory in ("examples", "benchmarks", "tools"):
        for path in sorted((REPO / directory).glob("*.py")):
            rel = path.relative_to(REPO)
            doc = ast.get_docstring(ast.parse(path.read_text(encoding="utf-8")))
            if not (doc and doc.strip()):
                problems.append(f"{rel}: missing module docstring")
            elif directory == "examples" and path.name != "__init__.py":
                lowered = doc.lower()
                if "runtime" not in lowered:
                    problems.append(
                        f"{rel}: example docstring must state its expected runtime"
                    )
                if not any(
                    word in lowered
                    for word in ("produces", "prints", "writes", "emits")
                ):
                    problems.append(
                        f"{rel}: example docstring must state what it produces"
                    )
    return problems


def _module_file(dotted: str):
    """The source file of the longest importable prefix of ``dotted``.

    Returns ``(path, remainder)`` where ``remainder`` holds the
    attribute segments that are not part of the module path, or
    ``(None, dotted)`` when even the top package does not resolve.
    """
    parts = dotted.split(".")
    if parts[0] != "repro":
        parts = ["repro", *parts]
    for split in range(len(parts), 0, -1):
        base = REPO / "src" / Path(*parts[:split])
        if (base.with_suffix(".py")).exists():
            return base.with_suffix(".py"), parts[split:]
        if (base / "__init__.py").exists():
            return base / "__init__.py", parts[split:]
    return None, parts[1:]


def check_references() -> list:
    """Every path/module named in the doc files must exist."""
    problems = []
    for doc_name in DOC_FILES:
        doc_path = REPO / doc_name
        if not doc_path.exists():
            problems.append(f"{doc_name}: file missing")
            continue
        text = doc_path.read_text(encoding="utf-8")
        for match in sorted(set(_PATH_RE.findall(text))):
            if not (REPO / match).exists():
                problems.append(f"{doc_name}: referenced path {match!r} not found")
        for dotted in sorted(set(_DOTTED_RE.findall(text))):
            module_path, attrs = _module_file(dotted)
            if module_path is None:
                problems.append(f"{doc_name}: module {dotted!r} not found")
                continue
            if not attrs:
                continue
            # One trailing attribute: accept any module-level def/class/
            # assignment with that name, or (for packages) a re-export —
            # the name standing alone in an import list or __all__.
            attr = attrs[0]
            source = module_path.read_text(encoding="utf-8")
            escaped = re.escape(attr)
            if not re.search(
                rf"^(?:def|class)\s+{escaped}\b|^{escaped}\s*[:=]"
                rf"|^\s*\"?{escaped}\"?,?$|\bimport\s+{escaped}\b",
                source,
                re.MULTILINE,
            ):
                problems.append(
                    f"{doc_name}: {dotted!r} — no `{attr}` in "
                    f"{module_path.relative_to(REPO)}"
                )
    return problems


def main() -> int:
    """Run both checks; print findings and return the exit status."""
    problems = check_docstrings() + check_references()
    for problem in problems:
        print(problem)
    if problems:
        print(f"\n{len(problems)} documentation problem(s)")
        return 1
    print("docs OK: docstring coverage and doc references are clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
