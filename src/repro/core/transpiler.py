"""Theorem 11 / Corollary 12: running message-passing algorithms on beeps.

:class:`BeepSimulator` drives per-node Broadcast CONGEST algorithms exactly
like :class:`~repro.congest.BroadcastCongestNetwork`, except every
communication round is realised by Algorithm 1 on the (noisy) beeping
substrate.  Nodes consume whatever they *decoded* — when a simulated round
fails (a low-probability event), downstream state diverges exactly as it
would on a real network, which is what the end-to-end experiments measure.

CONGEST algorithms run through :class:`~repro.core.congest_wrapper.
CongestViaBroadcast` at the additional ``Δ``-factor of Corollary 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..beeping.noise import NoiseModel
from ..congest.algorithm import BroadcastCongestAlgorithm, CongestAlgorithm
from ..congest.context import NodeContext
from ..congest.model import check_message
from ..congest.runtime import resolve_runtime
from ..congest.vectorized import (
    ObjectAlgorithmsAdapter,
    VectorContext,
    VectorizedBroadcastAlgorithm,
    check_plane,
    plane_width,
    plane_words,
)
from ..engine import SimulationBackend
from ..errors import ConfigurationError
from ..graphs import Topology
from ..rng import derive_rng
from .congest_wrapper import wrap_congest_algorithms
from .parameters import CandidatePolicy, SimulationParameters
from .round_simulator import BroadcastSession
from .stats import SimulationStats

__all__ = ["TranspiledRunResult", "BeepSimulator"]


@dataclass(frozen=True)
class TranspiledRunResult:
    """Outcome of a full simulated execution.

    Attributes
    ----------
    outputs:
        Per-node algorithm outputs.
    finished:
        Whether every node terminated within the round budget.
    stats:
        Round/failure accounting, including the measured overhead (beeping
        rounds per simulated round — the Theorem 11 quantity).
    """

    outputs: list[object]
    finished: bool
    stats: SimulationStats


class BeepSimulator:
    """Runs Broadcast CONGEST / CONGEST algorithms over a beeping network.

    Parameters
    ----------
    topology:
        The network.
    params:
        Code parameters; defaults to
        :meth:`SimulationParameters.for_network` with practical constants
        for the given noise rate.
    eps:
        Channel noise rate (used only when ``params`` is omitted).
    seed:
        Master seed for codes, noise, and per-node local randomness.
    ids:
        Node identifiers (default ``0..n-1``).
    policy, num_decoys:
        Candidate enumeration policy for the decoders.
    gamma:
        Message-size multiplier ``γ`` when deriving default parameters.
    backend:
        Execution backend for the beeping phases (see :mod:`repro.engine`).
    channel:
        Override the noise channel (defaults to the one implied by the
        parameters' noise rate) — the failure-injection seam.
    """

    def __init__(
        self,
        topology: Topology,
        params: SimulationParameters | None = None,
        eps: float = 0.0,
        seed: int = 0,
        ids: Sequence[int] | None = None,
        policy: CandidatePolicy = CandidatePolicy.ORACLE_WITH_DECOYS,
        num_decoys: int = 16,
        gamma: int = 4,
        backend: str | SimulationBackend | None = None,
        channel: "NoiseModel | None" = None,
    ) -> None:
        n = topology.num_nodes
        if n < 2:
            raise ConfigurationError("simulation needs at least 2 nodes")
        if params is None:
            params = SimulationParameters.for_network(
                num_nodes=n,
                max_degree=topology.max_degree,
                eps=eps,
                gamma=gamma,
            )
        if ids is None:
            ids = list(range(n))
        if len(ids) != n or len(set(ids)) != n:
            raise ConfigurationError("ids must be unique, one per node")
        self._topology = topology
        self._params = params
        self._seed = seed
        self._ids = list(ids)
        # All per-execution state — codes, channel, backend, decoder
        # matrices — is built once here and amortised across every
        # simulated round of every run.
        self._session = BroadcastSession(
            topology,
            params,
            seed,
            policy=policy,
            num_decoys=num_decoys,
            backend=backend,
            channel=channel,
        )

    @property
    def params(self) -> SimulationParameters:
        """The code parameters in force."""
        return self._params

    @property
    def topology(self) -> Topology:
        """The network topology."""
        return self._topology

    @property
    def session(self) -> BroadcastSession:
        """The amortised round engine driving the simulation."""
        return self._session

    def run_broadcast_congest(
        self,
        algorithms: "Sequence[BroadcastCongestAlgorithm] | VectorizedBroadcastAlgorithm",
        max_rounds: int,
        runtime: str | None = None,
    ) -> TranspiledRunResult:
        """Simulate a Broadcast CONGEST execution end-to-end (Theorem 11).

        ``algorithms`` is either the classic per-node object sequence or
        one whole-network :class:`~repro.congest.vectorized.
        VectorizedBroadcastAlgorithm`.  Object sequences run under the
        runtime selected by ``runtime`` (default: the process default) —
        the vectorized host loop wraps them in an
        :class:`~repro.congest.vectorized.ObjectAlgorithmsAdapter`, and
        both host paths feed the beeping session identical broadcasts,
        so results are bit-identical either way.
        """
        if isinstance(algorithms, VectorizedBroadcastAlgorithm):
            return self._run_columnar(algorithms, max_rounds)
        if resolve_runtime(runtime) == "vectorized":
            return self._run_columnar(
                ObjectAlgorithmsAdapter(algorithms), max_rounds
            )
        n = self._topology.num_nodes
        if len(algorithms) != n:
            raise ConfigurationError(f"got {len(algorithms)} algorithms for {n} nodes")
        for index, algorithm in enumerate(algorithms):
            algorithm.setup(self._context(index))
        stats = SimulationStats()
        round_offset = 0
        for round_index in range(max_rounds):
            if all(a.finished for a in algorithms):
                break
            broadcasts: list[int | None] = []
            for algorithm in algorithms:
                message = None if algorithm.finished else algorithm.broadcast(round_index)
                if message is not None:
                    check_message(message, self._params.message_bits)
                broadcasts.append(message)
            outcome = self._session.run_round(
                broadcasts, round_offset=round_offset
            )
            round_offset += outcome.beep_rounds_used
            stats.record_round(
                beep_rounds=outcome.beep_rounds_used,
                success=outcome.success,
                phase1_errors=outcome.phase1_errors,
                phase2_errors=outcome.phase2_errors,
                r_collision=outcome.r_collision,
            )
            for index, algorithm in enumerate(algorithms):
                if not algorithm.finished:
                    algorithm.receive(round_index, list(outcome.decoded[index]))
        return TranspiledRunResult(
            outputs=[a.output() for a in algorithms],
            finished=all(a.finished for a in algorithms),
            stats=stats,
        )

    def run_congest(
        self,
        algorithms: Sequence[CongestAlgorithm],
        max_rounds: int,
        payload_bits: int | None = None,
        runtime: str | None = None,
    ) -> TranspiledRunResult:
        """Simulate a CONGEST execution via Corollary 12.

        Each CONGEST round costs ``Δ`` simulated Broadcast CONGEST rounds
        (plus one initial ID-discovery round); ``max_rounds`` counts
        *CONGEST* rounds.  ``runtime`` selects the host loop exactly as
        in :meth:`run_broadcast_congest`.
        """
        wrapped = wrap_congest_algorithms(
            algorithms,
            ids=self._ids,
            message_bits=self._params.message_bits,
            payload_bits=payload_bits,
        )
        bc_budget = 1 + max_rounds * max(1, self._topology.max_degree)
        return self.run_broadcast_congest(wrapped, bc_budget, runtime=runtime)

    def _run_columnar(
        self, algorithm: VectorizedBroadcastAlgorithm, max_rounds: int
    ) -> TranspiledRunResult:
        """The vectorized host loop over the amortised beeping session.

        The simulated substrate is identical — the same
        :meth:`~repro.core.round_simulator.BroadcastSession.run_round`
        stream of broadcasts — only the host side (collection, budget
        enforcement, inbox construction, termination) runs columnar.
        """
        n = self._topology.num_nodes
        message_bits = self._params.message_bits
        width = plane_width(message_bits)
        net = VectorContext(
            topology=self._topology,
            ids=np.asarray(self._ids, dtype=np.int64),
            num_nodes=n,
            max_degree=self._topology.max_degree,
            degrees=self._topology.degrees,
            message_bits=message_bits,
            seed=self._seed,
        )
        algorithm.setup(net)
        stats = SimulationStats()
        round_offset = 0
        live = int(n - np.count_nonzero(algorithm.finished_mask()))
        for round_index in range(max_rounds):
            if live == 0:
                break
            messages, active = algorithm.broadcast_step(round_index)
            active = np.asarray(active, dtype=bool)
            words = plane_words(np.asarray(messages), message_bits)
            check_plane(words, active, message_bits)
            broadcasts: list[int | None] = [None] * n
            for node in np.flatnonzero(active):
                broadcasts[node] = sum(
                    int(words[node, word]) << (64 * word) for word in range(width)
                )
            outcome = self._session.run_round(broadcasts, round_offset=round_offset)
            round_offset += outcome.beep_rounds_used
            stats.record_round(
                beep_rounds=outcome.beep_rounds_used,
                success=outcome.success,
                phase1_errors=outcome.phase1_errors,
                phase2_errors=outcome.phase2_errors,
                r_collision=outcome.r_collision,
            )
            lengths = [len(decoded) for decoded in outcome.decoded]
            indptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
            inbox = np.zeros((int(indptr[-1]), width), dtype=np.uint64)
            cursor = 0
            for decoded in outcome.decoded:
                for message in decoded:
                    for word in range(width):
                        inbox[cursor, word] = (message >> (64 * word)) & (
                            0xFFFFFFFFFFFFFFFF
                        )
                    cursor += 1
            algorithm.receive_step(round_index, indptr, inbox)
            live = int(n - np.count_nonzero(algorithm.finished_mask()))
        return TranspiledRunResult(
            outputs=algorithm.outputs(),
            finished=live == 0,
            stats=stats,
        )

    def _context(self, index: int) -> NodeContext:
        return NodeContext(
            index=index,
            node_id=self._ids[index],
            num_nodes=self._topology.num_nodes,
            max_degree=self._topology.max_degree,
            degree=int(self._topology.degrees[index]),
            message_bits=self._params.message_bits,
            rng=derive_rng(self._seed, "node-local", index),
            neighbor_ids=None,
        )
