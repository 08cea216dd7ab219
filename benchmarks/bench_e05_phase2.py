"""Bench e05: Lemma 10: phase-2 message recovery.

Regenerates the e05 tables (see the claims map in docs/ARCHITECTURE.md)
and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_e05_phase2(benchmark):
    """Regenerate and time experiment e05."""
    tables = run_and_print(benchmark, get_experiment("e05"))
    assert tables and all(table.rows for table in tables)
