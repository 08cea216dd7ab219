"""Bench a01: Ablation: practical constant calibration.

Regenerates the a01 ablation tables (see the claims map in
docs/ARCHITECTURE.md) and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_a01_constant_calibration(benchmark):
    """Regenerate and time ablation a01."""
    tables = run_and_print(benchmark, get_experiment("a01"))
    assert tables and all(table.rows for table in tables)
