#!/usr/bin/env python3
"""Docs health check: resolve every relative link, run every example.

Two independent checks (CI runs both; each can run alone):

``python tools/check_docs.py``
    Scan ``README.md`` and ``docs/*.md`` for Markdown links and inline
    code references to repo paths, and fail if any *relative* target
    does not exist.  External links (``http://``, ``https://``,
    ``mailto:``) and pure in-page anchors are skipped; a relative link
    with an ``#anchor`` is checked for the file part only.  The same
    files' python code blocks are parsed, and every name their
    ``from repro... import ...`` and ``import repro...`` statements
    name must import, so a removed export cannot linger in the docs.

``python tools/check_docs.py --run-examples``
    Additionally execute every ``examples/*.py`` as a subprocess
    (honoring ``REPRO_BENCH_SCALE`` — CI sets 0.05 so the whole suite
    is a smoke pass) and fail on any non-zero exit.

The link pass also validates the checked-in paper manifest
(``paper.json``): it must load, resolve every artifact, and agree with
its own pinned fingerprints — so a registry or grid change that would
orphan the pins fails here, not at the next ``repro paper build``.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")

#: Markdown inline links: [text](target)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Schemes that are not filesystem targets.
_EXTERNAL = ("http://", "https://", "mailto:")

#: Fenced python blocks: ```python ... ```
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def iter_doc_files() -> List[Path]:
    docs = sorted((REPO_ROOT / "docs").glob("*.md"))
    return [REPO_ROOT / "README.md", *docs]


def check_links() -> List[str]:
    """Every broken relative link as ``file: target`` strings."""
    problems: List[str] = []
    for doc in iter_doc_files():
        text = doc.read_text()
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(_EXTERNAL):
                continue
            path_part, _, _anchor = target.partition("#")
            if not path_part:      # pure in-page anchor
                continue
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(REPO_ROOT)}: broken link -> {target}"
                )
    return problems


def _src_on_path() -> None:
    """Import ``repro`` from this checkout (no install needed)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _repro_imports(tree: ast.AST) -> Iterator[Tuple[str, str]]:
    """``(module, name)`` of every ``repro`` import in ``tree``; a
    plain ``import repro.x`` yields ``("repro.x", "")``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, ""


def _importable(module: str, name: str) -> bool:
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return False
    return not name or hasattr(imported, name)


def check_imports() -> List[str]:
    """Every ``repro`` name the docs' python blocks import that does
    not resolve, as ``file: from module import name`` strings."""
    _src_on_path()
    problems: List[str] = []
    checked = 0
    for doc in iter_doc_files():
        where = doc.relative_to(REPO_ROOT)
        for block in _PYTHON_BLOCK.findall(doc.read_text()):
            try:
                tree = ast.parse(block)
            except SyntaxError as exc:
                problems.append(f"{where}: python block does not parse: {exc}")
                continue
            for module, name in _repro_imports(tree):
                checked += 1
                if not _importable(module, name):
                    statement = (f"from {module} import {name}" if name
                                 else f"import {module}")
                    problems.append(f"{where}: {statement}")
    if not problems:
        print(f"import check: OK ({checked} names)")
    return problems


def check_manifest() -> List[str]:
    """Problems with the checked-in ``paper.json``, as strings.

    Loads it through the real manifest layer (``src`` on the path, no
    install needed), resolves every artifact, and checks the pinned
    fingerprints still describe the resolved grids.
    """
    _src_on_path()
    try:
        from repro.errors import ReproError
        from repro.paper import load_manifest
    except Exception as exc:  # pragma: no cover - broken checkout
        return [f"paper.json: cannot import repro.paper ({exc})"]
    try:
        manifest = load_manifest(REPO_ROOT / "paper.json")
        resolved = manifest.resolve()
        for artifact in resolved:
            artifact.check_pin()
    except ReproError as exc:
        return [f"paper.json: {exc}"]
    cells = sum(len(r.fingerprints) for r in resolved)
    print(f"paper manifest: OK ({len(resolved)} artifacts, "
          f"{cells} cells, pins consistent)")
    return []


def run_examples() -> List[Tuple[str, int, float]]:
    """Run every example; returns (name, returncode, seconds) rows."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    rows: List[Tuple[str, int, float]] = []
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(example)],
            env=env, cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        elapsed = time.perf_counter() - start
        rows.append((example.name, proc.returncode, elapsed))
        status = "ok" if proc.returncode == 0 else f"FAILED ({proc.returncode})"
        print(f"  {example.name:32s} {status:12s} {elapsed:6.1f}s", flush=True)
        if proc.returncode != 0:
            print(proc.stdout)
    return rows


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-examples", action="store_true",
                        help="also execute every examples/*.py "
                             "(REPRO_BENCH_SCALE scales the work)")
    args = parser.parse_args(argv)

    problems = check_links()
    checked = len(iter_doc_files())
    if problems:
        print(f"link check: {len(problems)} broken link(s) "
              f"in {checked} file(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"link check: OK ({checked} files)")

    import_problems = check_imports()
    if import_problems:
        print(f"import check: {len(import_problems)} name(s) do not "
              f"import:")
        for problem in import_problems:
            print(f"  {problem}")
        return 1

    manifest_problems = check_manifest()
    if manifest_problems:
        for problem in manifest_problems:
            print(problem)
        return 1

    if args.run_examples:
        scale = os.environ.get("REPRO_BENCH_SCALE", "1.0")
        print(f"running examples (REPRO_BENCH_SCALE={scale}):")
        rows = run_examples()
        failed = [name for name, code, _s in rows if code != 0]
        if failed:
            print(f"examples: {len(failed)} failed: {failed}")
            return 1
        print(f"examples: OK ({len(rows)} ran)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
