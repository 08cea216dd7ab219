"""Bench e01: Figure 1: the combined-code construction.

Regenerates the e01 tables (see the claims map in docs/ARCHITECTURE.md)
and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_e01_combined_code(benchmark):
    """Regenerate and time experiment e01."""
    tables = run_and_print(benchmark, get_experiment("e01"))
    assert tables and all(table.rows for table in tables)
