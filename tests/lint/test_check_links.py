"""Coverage for the link gate: markdown links and docstring citations.

Exercises the :mod:`tools.lint.links` logic directly — broken links,
anchor stripping, external/code-fence skipping, repo-relative paths
cited in docstrings and rule ``backing_test`` fields — and its surface
through the consolidated ``python -m tools.lint`` entry point: output
lines and exit codes (0 clean, 2 broken or usage error).
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

from tools.lint import cli, engine
from tools.lint.links import broken_citations, broken_links, links_gate

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_script(*args: str) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(
        [sys.executable, "-m", "tools.lint", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def run_links_through_cli(
    tmp_path, monkeypatch, link_path, citation_path=None
) -> int:
    """``python -m tools.lint --all`` in-process, links gate on ``link_path``.

    The AST rules run over an empty directory so only the link (and the
    real docstring) gate can report; docstring citations are checked
    under ``citation_path`` (none by default).
    """
    empty = tmp_path / "no_sources"
    empty.mkdir(exist_ok=True)
    monkeypatch.setattr(cli, "DEFAULT_LINK_PATHS", (str(link_path),))
    monkeypatch.setattr(
        cli, "DEFAULT_CITATION_PATHS", (str(citation_path or empty),)
    )
    return cli.main([str(empty), "--all"])


def write_module(path: Path, docstring: str) -> Path:
    """A python module whose function docstring is ``docstring``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        '"""Fixture module."""\n\n\ndef f():\n'
        f'    """{docstring}"""\n'
    )
    return path


# ------------------------------------------------------------- link logic


def test_broken_relative_link_is_reported(tmp_path):
    md = tmp_path / "doc.md"
    md.write_text("see [missing](nope/gone.md) for details\n")
    findings = broken_links(md)
    assert len(findings) == 1
    assert findings[0].render() == f"{md}: broken link -> nope/gone.md"


def test_existing_relative_link_and_directory_resolve(tmp_path):
    (tmp_path / "other.md").write_text("hi\n")
    (tmp_path / "sub").mkdir()
    md = tmp_path / "doc.md"
    md.write_text("[a](other.md) and [d](sub) and ![img](other.md)\n")
    assert broken_links(md) == []


def test_anchor_is_stripped_before_resolution(tmp_path):
    (tmp_path / "other.md").write_text("# Section\n")
    md = tmp_path / "doc.md"
    md.write_text(
        "[ok](other.md#section) [self](#local) [bad](gone.md#x)\n"
    )
    findings = broken_links(md)
    # pure-anchor links are skipped; anchors never hide a broken target
    assert [f.message for f in findings] == ["broken link -> gone.md#x"]


def test_external_targets_and_code_fences_are_skipped(tmp_path):
    md = tmp_path / "doc.md"
    md.write_text(
        "[x](https://example.com/a) [m](mailto:a@b.c)\n"
        "```\n[fake](not/a/file.md)\n```\n"
    )
    assert broken_links(md) == []


def test_unreadable_file_is_one_finding(tmp_path):
    findings = broken_links(tmp_path / "absent.md")
    assert len(findings) == 1
    assert "unreadable" in findings[0].message


def test_gate_expands_directories_recursively(tmp_path):
    nested = tmp_path / "docs" / "deep"
    nested.mkdir(parents=True)
    (nested / "page.md").write_text("[bad](missing.md)\n")
    result = links_gate([tmp_path / "docs"])
    assert not result.ok
    assert result.failure_summary == "1 broken link(s)"


# ------------------------------------------------------------- entry point


def test_cli_exit_zero_and_message_on_clean_tree(tmp_path, monkeypatch, capsys):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.md").write_text("plain text, no links\n")
    assert run_links_through_cli(tmp_path, monkeypatch, docs) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == (
        "link check: 1 markdown file(s), 0 python file(s) clean"
    )
    assert err == ""


def test_cli_exit_two_with_line_per_broken_link(tmp_path, monkeypatch, capsys):
    md = tmp_path / "bad.md"
    md.write_text("[x](gone.md)\n[y](also/gone.md)\n")
    assert run_links_through_cli(tmp_path, monkeypatch, md) == 2
    out, err = capsys.readouterr()
    assert f"{md}: broken link -> gone.md" in out.splitlines()
    assert f"{md}: broken link -> also/gone.md" in out.splitlines()
    assert err.splitlines() == ["2 broken link(s)", "lint: FAILED gate(s): links"]


def test_script_usage_error_exits_two():
    completed = run_script("--no-such-option")
    assert completed.returncode == 2
    assert completed.stderr.startswith("usage: python -m tools.lint")


def test_repo_readme_and_docs_are_clean():
    result = links_gate([REPO_ROOT / "README.md", REPO_ROOT / "docs"])
    assert result.ok, [finding.render() for finding in result.findings]
    assert result.clean_message == (
        "link check: 2 markdown file(s), 0 python file(s) clean"
    )


# ------------------------------------------------------- docstring citations


def test_cited_missing_file_is_reported_on_its_line(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "kept.py").write_text("")
    source = write_module(
        tmp_path / "tools" / "mod.py",
        "Runs ``src/pkg/kept.py``.\n\n    Backed by tests/gone/test_x.py::TestY.\n    ",
    )
    findings = broken_citations(source, tmp_path)
    assert [finding.render() for finding in findings] == [
        f"{source}:7: broken citation -> tests/gone/test_x.py"
    ]


def test_existing_files_directories_and_prose_pass(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "GUIDE.md").write_text("")
    (tmp_path / "src" / "repro").mkdir(parents=True)
    source = write_module(
        tmp_path / "src" / "mod.py",
        "See docs/GUIDE.md (section 2), the ``src/repro/...`` tree, "
        "tests/ and perfbench/tests/x.py; repro/tests/y.py is not "
        "repo-relative.",
    )
    assert broken_citations(source, tmp_path) == []


def test_citations_outside_docstrings_are_ignored(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        '"""Fixture module."""\n\nPATH = "src/not/there.py"  # tests/no.py\n'
    )
    assert broken_citations(source, tmp_path) == []


def test_rule_backing_test_citations_are_checked(tmp_path, monkeypatch):
    monkeypatch.setitem(
        engine._RULES,
        "SPAWN-001",
        dataclasses.replace(
            engine.get_rule("SPAWN-001"),
            backing_test="tests/engine/test_deleted_backend.py (spawn workers)",
        ),
    )
    result = links_gate([], [], root=REPO_ROOT)
    assert [finding.render() for finding in result.findings] == [
        "rule SPAWN-001 backing_test: broken citation -> "
        "tests/engine/test_deleted_backend.py"
    ]


def test_cli_exit_two_on_broken_citation(tmp_path, monkeypatch, capsys):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.md").write_text("plain text\n")
    source = write_module(
        tmp_path / "src" / "mod.py", "Cites src/repro/engine/removed/ here."
    )
    assert run_links_through_cli(tmp_path, monkeypatch, docs, source) == 2
    out, err = capsys.readouterr()
    assert (
        f"{source}:5: broken citation -> src/repro/engine/removed/"
        in out.splitlines()
    )
    assert err.splitlines() == ["1 broken link(s)", "lint: FAILED gate(s): links"]
