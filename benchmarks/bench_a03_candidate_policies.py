"""Bench a03: Ablation: candidate-set decoding policies.

Regenerates the a03 ablation tables (see the claims map in
docs/ARCHITECTURE.md) and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_a03_candidate_policies(benchmark):
    """Regenerate and time ablation a03."""
    tables = run_and_print(benchmark, get_experiment("a03"))
    assert tables and all(table.rows for table in tables)
