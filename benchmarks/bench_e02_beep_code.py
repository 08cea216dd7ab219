"""Bench e02: Theorem 4: beep-code decodability census.

Regenerates the e02 tables (see the claims map in docs/ARCHITECTURE.md)
and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_e02_beep_code(benchmark):
    """Regenerate and time experiment e02."""
    tables = run_and_print(benchmark, get_experiment("e02"))
    assert tables and all(table.rows for table in tables)
