"""Regression: the docstring gate keeps its CI-visible behaviour.

CI runs the docstring and link gates through ``python -m tools.lint
--all``; this pins that entry point's output lines and exit codes for the
docstring gate: the clean summary line, one ``module.symbol: message``
line per violation, the stderr summary, and the consolidated exit code 2.
The link gate's counterparts live in ``tests/lint/test_check_links.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from tools.lint import cli, docstrings
from tools.lint.docstrings import MODULES, docstring_gate

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_lint(*args: str) -> "subprocess.CompletedProcess[str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "tools.lint", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


def test_lint_all_clean_output_and_exit_code():
    completed = run_lint("--all")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lint_line, docstring_line, link_line = completed.stdout.splitlines()
    assert lint_line.startswith("repro-lint: ") and lint_line.endswith(", clean")
    assert docstring_line == f"docstring check: {len(MODULES)} modules clean"
    assert link_line.startswith("link check: 2 markdown file(s), ")
    assert link_line.endswith(" python file(s) clean")
    assert completed.stderr == ""


def test_docstring_gate_violation_lines_keep_the_legacy_shape():
    # run the real gate in-process, then simulate one violation to pin
    # the line format the legacy script printed
    result = docstring_gate()
    assert result.ok
    assert result.clean_message == f"docstring check: {len(MODULES)} modules clean"
    assert result.failure_summary.endswith("docstring violation(s)")


def test_docstring_gate_covers_the_lint_relevant_modules():
    # the gate's module list is the public API surface; the modules the
    # lint rules guard must stay on it so both gates move together
    for module in (
        "repro.beeping.noise",
        "repro.engine.base",
        "repro.engine.native.backend",
        "repro.sweeps.engine",
        "repro.service.app",
    ):
        assert module in MODULES


def test_docstring_violations_exit_two_through_the_cli(
    tmp_path, monkeypatch, capsys
):
    # a scratch package with a missing docstring, put on the gate's
    # module list and run through the consolidated entry point
    pkg = tmp_path / "scratchpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        '"""A scratch package for the docstring gate test."""\n\n'
        "def undocumented():\n    return 1\n"
    )
    empty = tmp_path / "no_sources"
    empty.mkdir()
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(docstrings, "MODULES", ("scratchpkg",))
    assert cli.main([str(empty), "--all"]) == 2
    out, err = capsys.readouterr()
    assert "scratchpkg.undocumented: missing function docstring" in out.splitlines()
    assert not any(line.startswith("docstring check:") for line in out.splitlines())
    assert err.splitlines() == [
        "1 docstring violation(s)",
        "lint: FAILED gate(s): docstrings",
    ]
