"""Bench e13: Theorem 22: matching lower bound.

Regenerates the e13 tables (see the claims map in docs/ARCHITECTURE.md)
and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_e13_matching_lb(benchmark):
    """Regenerate and time experiment e13."""
    tables = run_and_print(benchmark, get_experiment("e13"))
    assert tables and all(table.rows for table in tables)
