"""Tests for the per-process resident-memory guard (repro.memguard)."""

from __future__ import annotations

import pytest

from repro.errors import MemoryBudgetError, ReproError
from repro.memguard import MemoryGuard, current_rss, peak_rss


class TestRssSampling:
    def test_current_rss_positive(self):
        # A running Python interpreter always has a multi-MB resident set.
        assert current_rss() > 1 << 20

    def test_peak_rss_at_least_current(self):
        # The high-water mark can only lag a concurrent allocation, never
        # sit below a *previously observed* current figure.
        observed = current_rss()
        assert peak_rss() >= observed * 0.5  # tolerate procfs rounding

    def test_samples_track_allocations(self):
        import numpy as np

        before = current_rss()
        block = np.ones(64 << 20, dtype=np.uint8)  # 64 MB touched
        after = current_rss()
        assert after - before > 32 << 20
        del block


class TestMemoryGuard:
    def test_no_budget_never_raises(self):
        guard = MemoryGuard(None)
        for _ in range(3):
            assert guard.check() > 0
        assert guard.budget_bytes is None
        assert guard.observed_peak > 0

    def test_generous_budget_passes(self):
        guard = MemoryGuard(1 << 40, label="test worker")
        assert guard.check("setup") > 0

    def test_tiny_budget_raises_with_context(self):
        guard = MemoryGuard(1024, label="job worker 3")
        with pytest.raises(MemoryBudgetError, match="job worker 3 after load"):
            guard.check("after load")

    def test_error_is_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            MemoryGuard(1).check()

    def test_error_message_mentions_budget(self):
        with pytest.raises(MemoryBudgetError, match="exceeds the 0.0 MB budget"):
            MemoryGuard(1).check()

    def test_observed_peak_tracks_maximum(self):
        guard = MemoryGuard(None)
        first = guard.check()
        second = guard.check()
        assert guard.observed_peak >= max(first, second)

    @pytest.mark.parametrize("budget", [0, -1, -(1 << 30)])
    def test_nonpositive_budget_rejected(self, budget):
        with pytest.raises(ValueError):
            MemoryGuard(budget)
