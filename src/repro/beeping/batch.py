"""Vectorised executor for schedule-driven beeping phases.

The code-transmission phases of Algorithm 1 are *oblivious*: every device's
beep pattern for the whole phase is fixed before the phase starts (it is a
codeword).  For those phases the entire execution reduces to a carrier-sense
primitive over the whole schedule at once, which is orders of magnitude
faster than the per-round engine while being bit-identical to it (the noise
model keys flips by global round number, and the equivalence is
property-tested in ``tests/beeping/test_batch.py``).

Execution is delegated to a pluggable :class:`~repro.engine.
SimulationBackend` — the scipy-CSR/numpy ``"dense"`` path or the ``uint64``
``"bitpacked"`` path, selected per call, process-wide, or automatically by
schedule size (see :mod:`repro.engine`).

Dynamic networks plug in *above* the backends: when the topology is a
:class:`~repro.beeping.noise.DynamicTopology`, the runners here split the
schedule at epoch boundaries and execute each segment against that epoch's
masked static topology (noise keying stays global-round, so the split is
invisible to the flip stream).  Backends therefore only ever see static
topologies, and the bit-identity invariant across dense / bit-packed /
batched execution extends to churn scenarios with no per-backend code.
"""

from __future__ import annotations

import numpy as np

from ..engine import SimulationBackend, resolve_backend
from ..graphs import Topology
from .noise import DynamicTopology, NoiseModel

__all__ = ["run_schedule", "run_schedule_batch"]


def run_schedule(
    topology: Topology | DynamicTopology,
    schedule: np.ndarray,
    channel: NoiseModel | None = None,
    start_round: int = 0,
    backend: str | SimulationBackend | None = None,
) -> np.ndarray:
    """Execute a fixed beep schedule and return what every device hears.

    Parameters
    ----------
    topology:
        The network — a static :class:`~repro.graphs.Topology` or a
        :class:`~repro.beeping.noise.DynamicTopology` churn schedule
        (executed epoch segment by epoch segment against its masks).
    schedule:
        Boolean ``(n, rounds)`` matrix; ``schedule[v, t]`` means device
        ``v`` beeps in phase round ``t`` (and listens otherwise).
    channel:
        Noise model (noiseless by default).
    start_round:
        Global round number of the phase's first round; keys the noise
        stream (and the churn epochs) so chained phases reproduce the
        per-round engine exactly.
    backend:
        Execution backend: a name (``"dense"``, ``"bitpacked"``), an
        instance, ``"auto"``, or ``None`` for the process default.  All
        backends return bit-identical heard matrices.

    Returns
    -------
    numpy.ndarray
        Boolean ``(n, rounds)`` matrix of heard bits: own beep or
        neighbours' OR, passed through the channel.
    """
    schedule = np.asarray(schedule, dtype=bool)
    rounds = schedule.shape[1] if schedule.ndim == 2 else None
    resolved = resolve_backend(backend, topology=topology, rounds=rounds)
    if not isinstance(topology, DynamicTopology):
        return resolved.run_schedule(topology, schedule, channel, start_round)
    if schedule.ndim != 2:
        raise ValueError(
            "dynamic topologies need an (n, rounds) schedule, got shape "
            f"{schedule.shape}"
        )
    heard = np.empty_like(schedule)
    for start, stop in topology.segments(start_round, schedule.shape[1]):
        lo = start - start_round
        hi = stop - start_round
        heard[:, lo:hi] = resolved.run_schedule(
            topology.topology_at(start), schedule[:, lo:hi], channel, start
        )
    return heard


def run_schedule_batch(
    topology: Topology | DynamicTopology,
    schedules: np.ndarray,
    channels,
    start_rounds,
    backend: str | SimulationBackend | None = None,
) -> np.ndarray:
    """Execute R replica schedules over one shared topology in one call.

    ``schedules`` is boolean ``(R, n, rounds)``; ``channels`` and
    ``start_rounds`` are per-replica sequences of length R.  Static
    topologies go straight to the backend's replica-batched kernel.  A
    :class:`~repro.beeping.noise.DynamicTopology` is executed epoch
    segment by epoch segment when every replica shares one start round
    (the common case — :class:`~repro.core.round_simulator.BatchedSession`
    advances replicas in lock-step), and replica by replica otherwise,
    since differing starts put epoch boundaries at different columns.
    Either way the result is bit-identical to R separate
    :func:`run_schedule` calls.
    """
    schedules = np.asarray(schedules, dtype=bool)
    if schedules.ndim != 3:
        raise ValueError(
            f"schedules must be (R, n, rounds), got shape {schedules.shape}"
        )
    replicas = schedules.shape[0]
    if len(channels) != replicas or len(start_rounds) != replicas:
        raise ValueError(
            f"{replicas} schedules need {replicas} channels and start "
            f"rounds, got {len(channels)} and {len(start_rounds)}"
        )
    resolved = resolve_backend(
        backend, topology=topology, rounds=schedules.shape[2]
    )
    if not isinstance(topology, DynamicTopology):
        return resolved.run_schedule_batch(
            topology, schedules, channels, start_rounds
        )
    starts = [int(start) for start in start_rounds]
    if len(set(starts)) > 1:
        heard = np.empty_like(schedules)
        for index in range(replicas):
            heard[index] = run_schedule(
                topology,
                schedules[index],
                channels[index],
                starts[index],
                backend=resolved,
            )
        return heard
    start_round = starts[0] if starts else 0
    heard = np.empty_like(schedules)
    for start, stop in topology.segments(start_round, schedules.shape[2]):
        lo = start - start_round
        hi = stop - start_round
        heard[:, :, lo:hi] = resolved.run_schedule_batch(
            topology.topology_at(start),
            schedules[:, :, lo:hi],
            channels,
            [start] * replicas,
        )
    return heard
