"""Bench e14: Section 1.4: code-length comparison.

Regenerates the e14 tables (see the claims map in docs/ARCHITECTURE.md)
and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_e14_code_lengths(benchmark):
    """Regenerate and time experiment e14."""
    tables = run_and_print(benchmark, get_experiment("e14"))
    assert tables and all(table.rows for table in tables)
