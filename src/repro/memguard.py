"""Per-process resident-memory guard for worker processes.

A long-running worker process (for example a service job worker) that
silently outgrows its memory share gets OOM-killed by the kernel,
taking the whole run — and possibly unrelated processes — with it.
:class:`MemoryGuard` turns that failure mode into a clean, catchable
:class:`~repro.errors.MemoryBudgetError`: callers sprinkle
:meth:`MemoryGuard.check` around their big allocations, and the guard
raises as soon as the process's resident set exceeds its budget.

RSS is read from ``/proc/self/status`` (``VmRSS``) where procfs exists,
falling back to ``resource.getrusage`` peak figures elsewhere, so the
guard is dependency-free (no ``psutil``).
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path

from .errors import MemoryBudgetError

__all__ = ["MemoryGuard", "current_rss", "peak_rss"]

_PROC_STATUS = Path("/proc/self/status")


def _proc_status_kib(field: str) -> "int | None":
    """Read one ``kB`` field (e.g. ``VmRSS``) from ``/proc/self/status``."""
    try:
        text = _PROC_STATUS.read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith(field + ":"):
            parts = line.split()
            if len(parts) >= 2 and parts[1].isdigit():
                return int(parts[1])
    return None


def _maxrss_bytes() -> int:
    """Peak RSS from ``getrusage`` (kibibytes on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return int(peak)
    return int(peak) * 1024


def current_rss() -> int:
    """The process's current resident set size, in bytes.

    Uses ``VmRSS`` from procfs when available; otherwise the best
    portable approximation is the ``getrusage`` high-water mark (an
    over-estimate of *current* use, which only makes the guard stricter).
    """
    kib = _proc_status_kib("VmRSS")
    if kib is not None:
        return kib * 1024
    return _maxrss_bytes()  # pragma: no cover - non-procfs platforms


def peak_rss() -> int:
    """The process's high-water resident set size, in bytes."""
    kib = _proc_status_kib("VmHWM")
    if kib is not None:
        return kib * 1024
    return _maxrss_bytes()  # pragma: no cover - non-procfs platforms


class MemoryGuard:
    """Raises :class:`MemoryBudgetError` once RSS exceeds a byte budget.

    Parameters
    ----------
    budget_bytes:
        The resident-set ceiling for this process.  ``None`` disables
        enforcement (checks still track the observed peak), so callers
        can thread one guard object through unconditionally.
    label:
        Human-readable owner (e.g. ``"job worker 3"``) included in the
        error message.
    """

    def __init__(self, budget_bytes: "int | None", label: str = "process") -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        self._budget = budget_bytes
        self._label = label
        self._observed_peak = 0

    @property
    def budget_bytes(self) -> "int | None":
        """The configured ceiling (``None`` = tracking only)."""
        return self._budget

    @property
    def observed_peak(self) -> int:
        """The largest RSS seen by any :meth:`check` call, in bytes."""
        return self._observed_peak

    def check(self, context: str = "") -> int:
        """Sample RSS, remember the peak, and enforce the budget.

        Returns the sampled RSS in bytes; raises
        :class:`MemoryBudgetError` when it exceeds the budget.  The
        optional ``context`` names the checkpoint (e.g. ``"after halo
        merge"``) so the error pinpoints which allocation tipped over.
        """
        rss = current_rss()
        if rss > self._observed_peak:
            self._observed_peak = rss
        if self._budget is not None and rss > self._budget:
            where = f" {context}" if context else ""
            raise MemoryBudgetError(
                f"{self._label}{where}: resident set "
                f"{rss / 1e6:.1f} MB exceeds the "
                f"{self._budget / 1e6:.1f} MB budget"
            )
        return rss
