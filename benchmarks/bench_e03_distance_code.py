"""Bench e03: Lemma 6: distance-code minimum distance.

Regenerates the e03 tables (see the claims map in docs/ARCHITECTURE.md)
and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_e03_distance_code(benchmark):
    """Regenerate and time experiment e03."""
    tables = run_and_print(benchmark, get_experiment("e03"))
    assert tables and all(table.rows for table in tables)
