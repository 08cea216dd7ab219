"""Bench e06: Theorem 11: O(Delta log n) simulation overhead.

Regenerates the e06 tables (see the claims map in docs/ARCHITECTURE.md)
and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_e06_simulation_overhead(benchmark):
    """Regenerate and time experiment e06."""
    tables = run_and_print(benchmark, get_experiment("e06"))
    assert tables and all(table.rows for table in tables)
