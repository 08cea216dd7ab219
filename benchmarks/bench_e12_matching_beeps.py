"""Bench e12: Theorem 21: matching over noisy beeps.

Regenerates the e12 tables (see the claims map in docs/ARCHITECTURE.md)
and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_e12_matching_beeps(benchmark):
    """Regenerate and time experiment e12."""
    tables = run_and_print(benchmark, get_experiment("e12"))
    assert tables and all(table.rows for table in tables)
