"""The bit-packed backend: 64 rounds per machine word.

Schedules are packed along the round axis into ``uint64`` words
(:mod:`~repro.engine.packing`), the OR-of-neighbours is computed with a
single segmented ``bitwise_or.reduceat`` over the CSR neighbour arrays
(64 rounds per word-OR instead of one integer multiply-add per round), and
windowed noise is XORed in straight from
:meth:`~repro.beeping.noise.WindowedNoise.flip_words` — the channel's
packed Philox flips in this module's word layout, never unpacked to
booleans — so the heard matrix is bit-identical to
:class:`~repro.engine.dense.DenseBackend` under every channel, for every
``start_round``, including phases that straddle noise-window boundaries.

For the per-round :meth:`neighbor_or` primitive the backend uses the
topology's row-bitmap adjacency (:attr:`~repro.graphs.Topology.
packed_adjacency`): node ``v`` hears a beep iff ``adjacency_words[v] &
beep_words`` is non-zero anywhere, which beats the CSR matvec on dense
neighbourhoods.  On sparse graphs the bitmap's ``Theta(n^2 / 8)`` bytes
are never materialised — the vector runs through the same segmented CSR
reduction as schedules, one packed column wide (bit-identical).

The replica-batched entry point generalises the packed schedule with a
replica axis: ``R`` replicas stack into one ``(R * n, words)`` word
matrix, the OR-of-neighbours becomes a single segmented reduction over a
replicated CSR (the neighbour arrays shifted by ``r * n`` per replica),
and each windowed replica XORs its own ``flip_words`` into its row
block — the per-replica Philox streams are exactly those of
:meth:`run_schedule`, so every replica slice is bit-identical to its
standalone execution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .base import (
    SimulationBackend,
    normalize_batch_args,
    validate_schedule,
    validate_schedule_batch,
)
from .packing import WORD_BITS, pack_rows, pack_vector, unpack_rows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..beeping.noise import NoiseModel
    from ..graphs import Topology

__all__ = ["BitpackedBackend"]


def _flip_block_types() -> tuple[type, ...]:
    """The exact channel types whose flips can be packed-XORed directly.

    These are the windowed channels whose ``apply`` is exactly
    ``received ^ flip_block(...)`` — for them the backend XORs the packed
    ``flip_words`` into its words instead of unpacking the heard bits.
    Exact types only: a subclass may override ``apply``, and then only
    the generic boolean fallback honours it.
    """
    from ..beeping.noise import (
        AdversarialNoise,
        BernoulliNoise,
        HeterogeneousNoise,
    )

    return (BernoulliNoise, HeterogeneousNoise, AdversarialNoise)


class BitpackedBackend(SimulationBackend):
    """Packed-word execution: OR/XOR on ``uint64`` words, 64 rounds at a time."""

    name = "bitpacked"

    def run_schedule(
        self,
        topology: "Topology",
        schedule: np.ndarray,
        channel: "NoiseModel | None" = None,
        start_round: int = 0,
    ) -> np.ndarray:
        from ..beeping.noise import NoiselessChannel

        if channel is None:
            channel = NoiselessChannel()
        schedule = validate_schedule(topology, schedule)
        n, rounds = schedule.shape
        packed = pack_rows(schedule)
        received = self.neighbor_or_words(topology, packed)
        np.bitwise_or(received, packed, out=received)
        # Exact-type checks: a subclass may override apply(), in which case
        # only the generic fallback below is guaranteed to honour it.
        if type(channel) is NoiselessChannel:
            return unpack_rows(received, rounds)
        if type(channel) in _flip_block_types():
            np.bitwise_xor(
                received, channel.flip_words(start_round, rounds, n), out=received
            )
            return unpack_rows(received, rounds)
        # Unknown channel: it only understands boolean matrices, so hop out
        # of the packed domain and let it apply itself as usual.
        return channel.apply(unpack_rows(received, rounds), start_round)

    #: Packed working-set budget per batched sub-chunk, in uint64 words.
    #: Gathers over a packed matrix larger than the cache hierarchy cost
    #: more than the per-call overhead they save, so oversized batches
    #: are processed in replica chunks whose packed schedule stays within
    #: this budget (results are per-replica independent, hence identical).
    #: 2^16 words = 512 KiB keeps a chunk inside typical L2/L3 slices.
    _BATCH_CHUNK_WORDS = 1 << 16

    def run_schedule_batch(
        self,
        topology: "Topology",
        schedules: np.ndarray,
        channels: "NoiseModel | Sequence[NoiseModel] | None" = None,
        start_rounds: "int | Sequence[int] | None" = None,
    ) -> np.ndarray:
        """Replica-axis packed execution: one segmented OR, packed flip XORs."""
        schedules = validate_schedule_batch(topology, schedules)
        replicas, n, rounds = schedules.shape
        channel_list, start_list = normalize_batch_args(
            replicas, channels, start_rounds
        )
        if replicas == 0:
            return np.zeros_like(schedules)
        from ..beeping.noise import NoiselessChannel

        flip_types = _flip_block_types()
        packed = pack_rows(schedules.reshape(replicas * n, rounds))
        received = self.neighbor_or_words(topology, packed, replicas=replicas)
        np.bitwise_or(received, packed, out=received)
        # Channel dispatch mirrors run_schedule per replica (exact-type
        # checks for the same subclass-override reason); each windowed
        # replica XORs its packed Philox flips into its own row block.
        for r in range(replicas):
            if type(channel_list[r]) in flip_types:
                block = received[r * n : (r + 1) * n]
                np.bitwise_xor(
                    block,
                    channel_list[r].flip_words(start_list[r], rounds, n),
                    out=block,
                )
        heard = unpack_rows(received, rounds).reshape(replicas, n, rounds)
        for r in range(replicas):
            channel = channel_list[r]
            if type(channel) is NoiselessChannel or type(channel) in flip_types:
                continue
            # Unknown channel: it only understands boolean matrices, so it
            # applies itself to the unpacked replica slice as usual.
            heard[r] = channel.apply(heard[r], start_list[r])
        return heard

    @staticmethod
    def neighbor_or_words(
        topology: "Topology", packed: np.ndarray, replicas: int = 1
    ) -> np.ndarray:
        """Per-node OR of neighbours' packed rows, via segmented reduction.

        ``packed`` is the ``(replicas * n, words)`` packed schedule —
        replica ``r`` owns rows ``r * n .. (r + 1) * n`` — and the result
        is the same-shaped matrix whose row for node ``v`` of replica
        ``r`` is the OR of the rows of ``v``'s neighbours *within that
        replica* (zeros for isolated nodes).  All replicas share one
        segmented ``bitwise_or.reduceat`` over the CSR neighbour arrays
        replicated with a ``r * n`` shift per replica; batches whose
        packed words exceed :data:`_BATCH_CHUNK_WORDS` run the gather in
        replica chunks so its working set stays cache-resident (replicas
        are independent, so chunking cannot change a bit).
        """
        adjacency = topology.adjacency
        indptr = adjacency.indptr
        indices = adjacency.indices
        out = np.zeros_like(packed)
        if indices.size == 0 or packed.shape[1] == 0:
            return out
        n = indptr.shape[0] - 1
        # The chunk working set is the gathered matrix (one row per
        # directed edge) plus the replica's packed rows, so budget both —
        # on dense neighbourhoods the edge term dominates.
        words_per_replica = max(1, (n + indices.size) * packed.shape[1])
        chunk = max(1, BitpackedBackend._BATCH_CHUNK_WORDS // words_per_replica)
        degrees = np.diff(indptr)
        populated_nodes = np.flatnonzero(degrees)
        starts = indptr[:-1]
        for lo in range(0, replicas, chunk):
            hi = min(lo + chunk, replicas)
            count = hi - lo
            if count == 1:
                stacked_indices = indices if lo == 0 else indices + lo * n
                chunk_starts = starts[populated_nodes]
                chunk_rows = populated_nodes + lo * n
            else:
                node_shift = (
                    np.arange(lo, hi, dtype=np.int64) * n
                )[:, None]
                edge_shift = (
                    np.arange(count, dtype=np.int64) * indices.size
                )[:, None]
                stacked_indices = (indices[None, :] + node_shift).ravel()
                stacked_starts = (starts[None, :] + edge_shift).ravel()
                populated = (
                    populated_nodes[None, :]
                    + (np.arange(count, dtype=np.int64) * n)[:, None]
                ).ravel()
                chunk_starts = stacked_starts.reshape(count, n)[
                    :, populated_nodes
                ].ravel()
                chunk_rows = populated + lo * n
            gathered = packed[stacked_indices]
            # reduceat over only the non-empty CSR segments: consecutive
            # populated starts delimit exactly one node's neighbour block
            # (empty segments between them contribute no indices), and
            # isolated nodes keep their zero rows.
            out[chunk_rows] = np.bitwise_or.reduceat(
                gathered, chunk_starts, axis=0
            )
        return out

    def neighbor_or(self, topology: "Topology", beeps: np.ndarray) -> np.ndarray:
        from ..errors import ConfigurationError

        beeps = np.asarray(beeps, dtype=bool)
        if beeps.ndim != 1:
            # Matrix form: same packed path as schedule execution.
            schedule = validate_schedule(topology, beeps)
            return unpack_rows(
                self.neighbor_or_words(topology, pack_rows(schedule)),
                schedule.shape[1],
            )
        if beeps.shape[0] != topology.num_nodes:
            raise ConfigurationError(
                f"beep vector has {beeps.shape[0]} rows, expected "
                f"{topology.num_nodes}"
            )
        n = topology.num_nodes
        # The row-bitmap AND is only worth its Theta(n^2 / 8) bytes on
        # dense neighbourhoods (same bar as the "auto" heuristic); on a
        # sparse million-node zoo graph materialising it would dwarf the
        # graph itself, so reuse it only if it already exists and fall
        # back to the one-column segmented CSR path (bit-identical).
        if (
            "packed_adjacency" in topology.__dict__
            or 2 * topology.num_edges * WORD_BITS >= n * n
        ):
            words = pack_vector(beeps)
            hits = topology.packed_adjacency & words[np.newaxis, :]
            return hits.any(axis=1)
        packed = pack_rows(beeps[:, np.newaxis])
        return unpack_rows(self.neighbor_or_words(topology, packed), 1)[:, 0]
