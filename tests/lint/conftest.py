"""Fixtures for the repro-lint test suite.

The ``tools`` package lives at the repo root (not under ``src/``), so
tests put the root on ``sys.path`` before importing it.  The central
fixture, ``lint_tree``, writes fixture sources into a miniature
``src/repro/...`` tree in ``tmp_path`` and lints it with the tree as
the scope root — exactly how rule scopes resolve against the real repo.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.lint.engine import lint_paths  # noqa: E402


@pytest.fixture
def repo_root() -> Path:
    """The repository root directory."""
    return REPO_ROOT


@pytest.fixture
def lint_tree(tmp_path):
    """Write ``{relpath: source}`` fixtures and lint them.

    Returns a callable: ``lint_tree({"src/repro/engine/dense.py": "..."})``
    gives the sorted list of findings for that miniature tree.
    """

    def run(files: "dict[str, str]"):
        for relpath, source in files.items():
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source))
        findings, _ = lint_paths([tmp_path], root=tmp_path)
        return findings

    return run
