"""The link gate: markdown links and docstring citations must resolve.

It runs through ``python -m tools.lint --all``; its output lines and
exit code are pinned by ``tests/lint/test_check_links.py``.  File
discovery (:mod:`tools.lint.walker`) and reporting
(:class:`~tools.lint.reporter.Reporter`) are shared with the other
gates.

Two kinds of reference are checked:

* inline markdown links and images (``[text](target)``): every
  **relative** target must resolve to an existing file or directory
  (anchors are stripped; external ``http(s)``/``mailto`` targets are
  skipped — CI stays hermetic);
* repo-relative paths (``src/…``, ``tests/…``, ``benchmarks/…``,
  ``docs/…``, ``tools/…``) cited in python docstrings and in the lint
  rules' ``backing_test`` fields: each must name an existing file or
  directory under the repo root, so a citation cannot outlive the file
  it points at.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, Sequence

from .reporter import Finding, GateResult
from .walker import iter_markdown_files, iter_python_files

__all__ = ["links_gate", "broken_links", "broken_citations"]

#: Inline markdown link/image: ``[text](target)`` (no reference style).
LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Targets that are not local files.
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")

#: A repo-root-relative path cited in prose: a top-level source tree,
#: then path characters, ending on a name character or ``/`` (so
#: trailing punctuation and ``...`` ellipses stay outside the match).
CITATION_PATTERN = re.compile(
    r"(?<![\w./-])(?:src|tests|benchmarks|docs|tools)/[\w./-]*[\w/]"
)

#: AST nodes that carry a docstring.
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def broken_links(markdown: Path) -> "list[Finding]":
    """All unresolvable relative link targets in one markdown file."""
    problems: "list[Finding]" = []
    try:
        text = markdown.read_text()
    except OSError as error:
        return [Finding(str(markdown), 0, "", f"unreadable ({error})")]
    # fenced code blocks routinely contain )(-heavy pseudo-links; skip them
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for match in LINK_PATTERN.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (markdown.parent / relative).resolve()
        if not resolved.exists():
            problems.append(
                Finding(str(markdown), 0, "", f"broken link -> {target}")
            )
    return problems


def _missing_citations(
    text: str, location: str, line: int, root: Path
) -> Iterator[Finding]:
    """Findings for every cited path in ``text`` absent under ``root``.

    ``line`` is where ``text`` starts; each finding is placed on the
    line of its own citation.
    """
    for match in CITATION_PATTERN.finditer(text):
        if not (root / match.group()).exists():
            yield Finding(
                location,
                line + text.count("\n", 0, match.start()) if line else 0,
                "",
                f"broken citation -> {match.group()}",
            )


def broken_citations(source: Path, root: Path) -> "list[Finding]":
    """All docstring citations in one python file that ``root`` lacks."""
    try:
        tree = ast.parse(source.read_text(), filename=str(source))
    except (OSError, SyntaxError, ValueError) as error:
        return [Finding(str(source), 0, "", f"unreadable ({error})")]
    problems: "list[Finding]" = []
    for node in ast.walk(tree):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            problems.extend(
                _missing_citations(
                    first.value.value, str(source), first.lineno, root
                )
            )
    return sorted(problems)


def _backing_test_citations(root: Path) -> "list[Finding]":
    """Lint rules whose ``backing_test`` cites a path ``root`` lacks."""
    from .engine import registered_rules

    problems: "list[Finding]" = []
    for entry in registered_rules():
        problems.extend(
            _missing_citations(
                entry.backing_test, f"rule {entry.id} backing_test", 0, root
            )
        )
    return problems


def links_gate(
    paths: "Sequence[str | Path]",
    citation_paths: "Sequence[str | Path]" = (),
    root: "Path | None" = None,
) -> GateResult:
    """Check markdown under ``paths`` and citations; package the outcome.

    Docstring citations in the python files under ``citation_paths``,
    and the registered lint rules' ``backing_test`` citations, are
    resolved against ``root`` — both are skipped when ``root`` is
    ``None``.
    """
    files = iter_markdown_files(paths)
    problems: "list[Finding]" = []
    for markdown in files:
        problems.extend(broken_links(markdown))
    sources: "list[Path]" = []
    if root is not None:
        sources = iter_python_files(citation_paths)
        for source in sources:
            problems.extend(broken_citations(source, root))
        problems.extend(_backing_test_citations(root))
    return GateResult(
        name="links",
        findings=problems,
        clean_message=(
            f"link check: {len(files)} markdown file(s), "
            f"{len(sources)} python file(s) clean"
        ),
        failure_summary=f"{len(problems)} broken link(s)",
    )

