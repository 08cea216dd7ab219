"""Bench e11: Lemmas 17-20: matching in Broadcast CONGEST.

Regenerates the e11 tables (see the claims map in docs/ARCHITECTURE.md)
and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_e11_matching_congest(benchmark):
    """Regenerate and time experiment e11."""
    tables = run_and_print(benchmark, get_experiment("e11"))
    assert tables and all(table.rows for table in tables)
