"""Bench e15: Sections 1.2-1.3: overhead landscape.

Regenerates the e15 tables (see the claims map in docs/ARCHITECTURE.md)
and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_e15_landscape(benchmark):
    """Regenerate and time experiment e15."""
    tables = run_and_print(benchmark, get_experiment("e15"))
    assert tables and all(table.rows for table in tables)
