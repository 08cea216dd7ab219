"""Bench e16: Section 7 — polylog MIS vs poly-Delta matching.

Regenerates the e16 table (see the claims map in docs/ARCHITECTURE.md)
and times one full quick-mode run.
"""

from __future__ import annotations

from repro.experiments import get_experiment

from conftest import run_and_print


def test_e16_polylog_contrast(benchmark):
    """Regenerate and time experiment e16."""
    tables = run_and_print(benchmark, get_experiment("e16"))
    assert tables and all(table.rows for table in tables)
