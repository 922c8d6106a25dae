"""The docs check's import pass (``tools/check_docs.py``).

Every ``repro`` name imported in a python block of ``README.md`` or
``docs/*.md`` must import, so a removed export cannot stay in the
docs unnoticed.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_docs_imports_resolve(check_docs):
    assert check_docs.check_imports() == []


def test_missing_names_are_reported(check_docs, tmp_path, monkeypatch):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "```python\n"
        "import repro.store\n"
        "from repro import MemoryStore, NoSuchStore\n"
        "import repro.no_such_module\n"
        "import json\n"
        "```\n"
        "```sh\n"
        "from repro import NotPython\n"
        "```\n"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "iter_doc_files", lambda: [doc])
    assert check_docs.check_imports() == [
        "doc.md: from repro import NoSuchStore",
        "doc.md: import repro.no_such_module",
    ]


def test_nested_and_aliased_imports_are_checked(check_docs, tmp_path,
                                                monkeypatch):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "```python\n"
        "import repro.store as rs\n"
        "def helper():\n"
        "    from repro.store.sqlite import SqliteStore as S, Gone\n"
        "    return S, Gone\n"
        "```\n"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "iter_doc_files", lambda: [doc])
    assert check_docs.check_imports() == [
        "doc.md: from repro.store.sqlite import Gone",
    ]


def test_unparsable_block_is_reported(check_docs, tmp_path, monkeypatch):
    doc = tmp_path / "doc.md"
    doc.write_text("```python\nfrom repro import (\n```\n")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "iter_doc_files", lambda: [doc])
    [problem] = check_docs.check_imports()
    assert problem.startswith("doc.md: python block does not parse")
