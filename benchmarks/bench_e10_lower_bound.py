"""Bench e10: Lemma 14: Omega(Delta^2 B) lower bound.

Regenerates the e10 tables (see the claims map in docs/ARCHITECTURE.md)
and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_e10_lower_bound(benchmark):
    """Regenerate and time experiment e10."""
    tables = run_and_print(benchmark, get_experiment("e10"))
    assert tables and all(table.rows for table in tables)
