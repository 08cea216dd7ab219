"""Bench e07: Corollary 12: CONGEST at O(Delta^2 log n).

Regenerates the e07 tables (see the claims map in docs/ARCHITECTURE.md)
and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_e07_congest(benchmark):
    """Regenerate and time experiment e07."""
    tables = run_and_print(benchmark, get_experiment("e07"))
    assert tables and all(table.rows for table in tables)
