"""Shared helpers for the benchmark suite.

``bench_experiments.py`` regenerates each experiment of the claims map in
``docs/ARCHITECTURE.md`` via pytest-benchmark and prints its tables (run
with ``-s`` to see them inline; they are also what
``python -m repro.experiments`` prints).

The standalone ``BENCH_*.json``-writing scripts additionally share
:func:`host_metadata`, so every benchmark document carries the same
host-provenance block (CPU count, library versions, platform) and
numbers from different machines are never compared blind.
"""

from __future__ import annotations

import os
import platform
import shutil

from repro.experiments import ExperimentSpec, Table


def host_metadata() -> dict:
    """The host-provenance block embedded in every ``BENCH_*.json``.

    Benchmark numbers are only comparable with their execution context:
    CPU count bounds multi-process speedups, and library versions move
    kernel throughput between runs of the *same* code.
    """
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
        "release": platform.release(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cc": _compiler_version(),
    }


def _compiler_version() -> "str | None":
    """First line of ``cc --version``, or ``None`` on compiler-less hosts.

    The toolchain is part of the host description: result files that
    carry this block are compared field by field across runs.
    """
    import subprocess

    cc = shutil.which(os.environ.get("CC") or "cc")
    if cc is None:
        return None
    try:
        probe = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    if probe.returncode != 0 or not probe.stdout:
        return None
    return probe.stdout.splitlines()[0].strip()


def run_and_print(
    benchmark, spec: ExperimentSpec, profile: str = "quick", seed: int = 0
) -> list[Table]:
    """Benchmark one experiment spec (single round) and print its tables."""
    ctx = spec.make_context(profile=profile, seed=seed)
    tables = benchmark.pedantic(spec, args=(ctx,), rounds=1, iterations=1)
    for table in tables:
        print()
        print(table.render())
    return tables
