"""The native backend: packed-word execution inside a compiled C kernel.

:class:`NativeBackend` runs the same algorithm as
:class:`~repro.engine.bitpacked.BitpackedBackend` — pack the schedule
along the round axis into ``uint64`` words, OR each node's neighbours'
rows over the CSR adjacency, XOR the packed Philox flip words — but the
inner loops live in ``kernel.c`` (built by
:mod:`~repro.engine.native.build`) instead of numpy.  The hot path is a
single fused C pass per node row: ``(self | OR-of-neighbours) ^ flips``
unpacked straight into the boolean heard matrix, so the packed received
matrix of the bitpacked pipeline is never materialised and the output is
written once with streaming stores.  Because every stage is
integer/boolean arithmetic over the exact packing.py layout the heard
matrices are **bit-identical** to dense/bitpacked on every input — all
channels, all ``start_round`` offsets, every replica count.

The Philox flip streams themselves still come from
:meth:`~repro.beeping.noise.WindowedNoise.flip_block`, the boolean view of
the channel's packed ``flip_words`` (numpy's Philox is already compiled,
and sharing the generator is what makes bit-identity a structural
property rather than a reimplementation risk).

On hosts where the kernel cannot be built (no C compiler) the backend
emits a one-time :class:`RuntimeWarning` and delegates every call to the
bit-packed backend: results are unchanged, only throughput differs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence
import warnings

import numpy as np

from ...errors import ConfigurationError
from ..base import (
    SimulationBackend,
    normalize_batch_args,
    validate_schedule,
    validate_schedule_batch,
)
from ..bitpacked import BitpackedBackend, _flip_block_types
from ..packing import words_for
from .build import NativeUnavailableError, load_kernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    import ctypes

    from ...beeping.noise import NoiseModel
    from ...graphs import Topology

__all__ = ["NativeBackend", "csr_or_words", "pack_rows_native", "unpack_rows_native"]

#: Delegate for every call when the kernel is unavailable (stateless, so
#: a private instance is as good as the registry singleton).
_FALLBACK = BitpackedBackend()

#: One fallback warning per process: the condition is host-wide, not
#: per-call, and a sweep would otherwise emit it thousands of times.
_WARNED_FALLBACK = False


def _kernel_or_none() -> "ctypes.CDLL | None":
    """The loaded kernel, or ``None`` (warning once) when unavailable."""
    global _WARNED_FALLBACK
    try:
        return load_kernel()
    except NativeUnavailableError as error:
        if not _WARNED_FALLBACK:
            warnings.warn(
                f"native backend unavailable ({error}); "
                "falling back to the bit-packed backend (bit-identical)",
                RuntimeWarning,
                stacklevel=3,
            )
            _WARNED_FALLBACK = True
        return None


def pack_rows_native(kernel: "ctypes.CDLL", matrix: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(rows, width)`` matrix into ``uint64`` words in C."""
    rows, width = matrix.shape
    words = words_for(width)
    out = np.empty((rows, words), dtype=np.uint64)
    if rows and words:
        bits = np.ascontiguousarray(matrix, dtype=bool)
        kernel.repro_pack_rows(bits.ctypes.data, out.ctypes.data, rows, width)
    return out


def unpack_rows_native(
    kernel: "ctypes.CDLL", packed: np.ndarray, width: int
) -> np.ndarray:
    """Unpack ``(rows, words)`` ``uint64`` back to boolean ``(rows, width)``."""
    rows = packed.shape[0]
    bits = np.empty((rows, width), dtype=np.uint8)
    if rows and width:
        packed = np.ascontiguousarray(packed, dtype=np.uint64)
        kernel.repro_unpack_rows(packed.ctypes.data, bits.ctypes.data, rows, width)
    return bits.view(np.bool_)


def _xor_flips(
    kernel: "ctypes.CDLL", received: np.ndarray, flips: np.ndarray
) -> None:
    """XOR a boolean flip matrix into packed ``received`` rows, in place.

    ``received`` may be a contiguous row-block view (the per-replica
    slice of a batch); the kernel packs ``flips`` on the fly, so no
    intermediate flip-word matrix is materialised.
    """
    rows, width = flips.shape
    if rows and width:
        flips = np.ascontiguousarray(flips, dtype=bool)
        kernel.repro_xor_flips(received.ctypes.data, flips.ctypes.data, rows, width)


def _csr_arrays(
    indptr: np.ndarray, indices: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, str]":
    """CSR index arrays as one of the kernel's two ABI dtypes.

    scipy builds CSR indices as int32 or int64 depending on size; the
    kernel ships both variants so neither ever pays a conversion copy.
    """
    if indices.dtype == np.int32 and indptr.dtype == np.int32:
        return (
            np.ascontiguousarray(indptr, dtype=np.int32),
            np.ascontiguousarray(indices, dtype=np.int32),
            "i32",
        )
    return (
        np.ascontiguousarray(indptr, dtype=np.int64),
        np.ascontiguousarray(indices, dtype=np.int64),
        "i64",
    )


def csr_or_words(
    kernel: "ctypes.CDLL",
    indptr: np.ndarray,
    indices: np.ndarray,
    packed: np.ndarray,
    n: int,
    replicas: int = 1,
    include_self: bool = False,
    out_rows: "int | None" = None,
) -> np.ndarray:
    """Replica-batched neighbour-OR over a CSR adjacency, in C.

    ``packed`` is the ``(replicas * n, words)`` packed schedule; the
    result row for node ``v`` of replica ``r`` is the OR of ``v``'s CSR
    neighbours' rows within that replica — seeded with ``v``'s own row
    when ``include_self`` (the fused ``neighbours | self`` of schedule
    execution), zeros otherwise (the bare carrier-sense primitive).

    Shard workers call this with their *rectangular* shard CSR: ``n``
    local rows whose indices address the wider stacked ``[local | halo]``
    column space of ``packed``; ``out_rows`` (= ``n``) then sizes the
    result independently of ``packed``'s row count.
    """
    words = packed.shape[1]
    rows = packed.shape[0] if out_rows is None else out_rows
    if words == 0 or rows == 0:
        return np.zeros((rows, words), dtype=np.uint64)
    out = np.empty((rows, words), dtype=np.uint64)
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    indptr, indices, variant = _csr_arrays(indptr, indices)
    csr_or = getattr(kernel, f"repro_csr_or_batch_{variant}")
    csr_or(
        indptr.ctypes.data,
        indices.ctypes.data,
        packed.ctypes.data,
        out.ctypes.data,
        n,
        replicas,
        words,
        1 if include_self else 0,
    )
    return out


class NativeBackend(SimulationBackend):
    """Compiled-kernel execution: the packed hot loop in C, via ctypes."""

    name = "native"

    def run_schedule(
        self,
        topology: "Topology",
        schedule: np.ndarray,
        channel: "NoiseModel | None" = None,
        start_round: int = 0,
    ) -> np.ndarray:
        from ...beeping.noise import NoiselessChannel

        kernel = _kernel_or_none()
        if kernel is None:
            return _FALLBACK.run_schedule(topology, schedule, channel, start_round)
        if channel is None:
            channel = NoiselessChannel()
        schedule = validate_schedule(topology, schedule)
        rounds = schedule.shape[1]
        heard = self._heard_flat(
            kernel, topology, schedule, 1, [channel], [start_round], rounds
        )
        # Exact-type checks, mirroring BitpackedBackend: a subclass may
        # override apply(), and then only the generic fallback honours it.
        if (
            type(channel) is NoiselessChannel
            or type(channel) in _flip_block_types()
        ):
            return heard
        return channel.apply(heard, start_round)

    def run_schedule_batch(
        self,
        topology: "Topology",
        schedules: np.ndarray,
        channels: "NoiseModel | Sequence[NoiseModel] | None" = None,
        start_rounds: "int | Sequence[int] | None" = None,
    ) -> np.ndarray:
        """Replica-axis execution: one fused C pass over all replicas."""
        from ...beeping.noise import NoiselessChannel

        kernel = _kernel_or_none()
        if kernel is None:
            return _FALLBACK.run_schedule_batch(
                topology, schedules, channels, start_rounds
            )
        schedules = validate_schedule_batch(topology, schedules)
        replicas, n, rounds = schedules.shape
        channel_list, start_list = normalize_batch_args(
            replicas, channels, start_rounds
        )
        if replicas == 0:
            return np.zeros_like(schedules)
        heard = self._heard_flat(
            kernel,
            topology,
            schedules.reshape(replicas * n, rounds),
            replicas,
            channel_list,
            start_list,
            rounds,
        ).reshape(replicas, n, rounds)
        flip_types = _flip_block_types()
        for r in range(replicas):
            channel = channel_list[r]
            if type(channel) is NoiselessChannel or type(channel) in flip_types:
                continue
            # Unknown channel: it only understands boolean matrices, so it
            # applies itself to the unpacked replica slice as usual.
            heard[r] = channel.apply(heard[r], start_list[r])
        return heard

    def neighbor_or(self, topology: "Topology", beeps: np.ndarray) -> np.ndarray:
        kernel = _kernel_or_none()
        if kernel is None:
            return _FALLBACK.neighbor_or(topology, beeps)
        beeps = np.asarray(beeps, dtype=bool)
        adjacency = topology.adjacency
        if beeps.ndim != 1:
            schedule = validate_schedule(topology, beeps)
            received = csr_or_words(
                kernel,
                adjacency.indptr,
                adjacency.indices,
                pack_rows_native(kernel, schedule),
                topology.num_nodes,
            )
            return unpack_rows_native(kernel, received, schedule.shape[1])
        if beeps.shape[0] != topology.num_nodes:
            raise ConfigurationError(
                f"beep vector has {beeps.shape[0]} rows, expected "
                f"{topology.num_nodes}"
            )
        received = csr_or_words(
            kernel,
            adjacency.indptr,
            adjacency.indices,
            pack_rows_native(kernel, beeps[:, np.newaxis]),
            topology.num_nodes,
        )
        return unpack_rows_native(kernel, received, 1)[:, 0]

    @staticmethod
    def _heard_flat(
        kernel: "ctypes.CDLL",
        topology: "Topology",
        flat: np.ndarray,
        replicas: int,
        channel_list: "list[NoiseModel]",
        start_list: "list[int]",
        rounds: int,
    ) -> np.ndarray:
        """The ``(replicas * n, rounds)`` heard matrix, flip channels applied.

        Noiseless and flip-type channels are fully handled here (they are
        the packed-domain channels); callers apply any other channel to
        the unpacked result themselves.  Schedules up to the kernel's
        fused-word limit run the single-pass fused kernel; longer ones
        fall back to the separate pack / OR / XOR / unpack passes
        (bit-identical — the fusion only removes intermediate stores).
        """
        n = topology.num_nodes
        adjacency = topology.adjacency
        flip_types = _flip_block_types()
        words = words_for(rounds)
        if 0 < words <= kernel.repro_max_fused_words():
            packed = pack_rows_native(kernel, flat)
            flags = np.zeros(replicas, dtype=np.uint8)
            flips = None
            for r in range(replicas):
                if type(channel_list[r]) in flip_types:
                    if flips is None:
                        # Only flagged replica blocks are written (and
                        # read by the kernel): noiseless replicas' pages
                        # are never touched.
                        flips = np.empty((replicas * n, rounds), dtype=bool)
                    flips[r * n : (r + 1) * n] = channel_list[r].flip_block(
                        start_list[r], rounds, n
                    )
                    flags[r] = 1
            out = np.empty((replicas * n, rounds), dtype=np.uint8)
            indptr, indices, variant = _csr_arrays(
                adjacency.indptr, adjacency.indices
            )
            heard_batch = getattr(kernel, f"repro_heard_batch_{variant}")
            heard_batch(
                indptr.ctypes.data,
                indices.ctypes.data,
                packed.ctypes.data,
                flips.ctypes.data if flips is not None else None,
                flags.ctypes.data,
                out.ctypes.data,
                n,
                replicas,
                words,
                rounds,
                1,
            )
            return out.view(np.bool_)
        received = csr_or_words(
            kernel,
            adjacency.indptr,
            adjacency.indices,
            pack_rows_native(kernel, flat),
            n,
            replicas=replicas,
            include_self=True,
        )
        if rounds:
            for r in range(replicas):
                if type(channel_list[r]) in flip_types:
                    # Row-block slices of a C-contiguous matrix are
                    # contiguous, so the kernel XORs each replica's
                    # Philox flips straight into its slice.
                    _xor_flips(
                        kernel,
                        received[r * n : (r + 1) * n],
                        channel_list[r].flip_block(start_list[r], rounds, n),
                    )
        return unpack_rows_native(kernel, received, rounds)
