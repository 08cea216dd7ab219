"""Bench e09: Lemma 15: Local Broadcast upper bounds.

Regenerates the e09 tables (see the claims map in docs/ARCHITECTURE.md)
and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_e09_local_broadcast(benchmark):
    """Regenerate and time experiment e09."""
    tables = run_and_print(benchmark, get_experiment("e09"))
    assert tables and all(table.rows for table in tables)
