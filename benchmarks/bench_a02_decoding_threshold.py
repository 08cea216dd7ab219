"""Bench a02: Ablation: phase-1 threshold factor.

Regenerates the a02 ablation tables (see the claims map in
docs/ARCHITECTURE.md) and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_a02_decoding_threshold(benchmark):
    """Regenerate and time ablation a02."""
    tables = run_and_print(benchmark, get_experiment("a02"))
    assert tables and all(table.rows for table in tables)
