"""Bench e04: Lemmas 8-9: phase-1 set recovery under noise.

Regenerates the e04 tables (see the claims map in docs/ARCHITECTURE.md)
and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_e04_phase1(benchmark):
    """Regenerate and time experiment e04."""
    tables = run_and_print(benchmark, get_experiment("e04"))
    assert tables and all(table.rows for table in tables)
