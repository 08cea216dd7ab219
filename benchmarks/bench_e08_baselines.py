"""Bench e08: Section 1.3: ours vs TDMA baselines.

Regenerates the e08 tables (see the claims map in docs/ARCHITECTURE.md)
and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_e08_baselines(benchmark):
    """Regenerate and time experiment e08."""
    tables = run_and_print(benchmark, get_experiment("e08"))
    assert tables and all(table.rows for table in tables)
