"""Bench every registered experiment: regenerate its tables, time one run.

One benchmark per spec in :func:`repro.experiments.all_specs` (see the
claims map in docs/ARCHITECTURE.md), each timing a single quick-profile
run::

    PYTHONPATH=src python -m pytest benchmarks/bench_experiments.py -s
"""

from __future__ import annotations

import pytest

from repro.experiments import all_specs

from conftest import run_and_print


@pytest.mark.parametrize("spec", all_specs(), ids=lambda spec: spec.id)
def test_experiment(benchmark, spec):
    """Regenerate and time one experiment."""
    tables = run_and_print(benchmark, spec)
    assert tables and all(table.rows for table in tables)
