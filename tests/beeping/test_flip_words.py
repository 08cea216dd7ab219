"""Packed flip windows must equal the float-threshold windows, bit for bit.

:class:`~repro.beeping.noise.WindowedNoise` generates each 4096-round
window by comparing raw Philox words against the integer threshold
``ceil(eps * 2**53) << 11`` and packing the result along the round axis.
These tests pin that path against a test-local copy of the float path it
replaced — ``Generator(Philox(key, counter=[0, 0, w, 0])).random((4096,
n)) < eps``, transposed — draw by draw, and pin :meth:`flip_words` to the
:func:`repro.engine.packing.pack_rows` layout of that oracle for offsets
and lengths that straddle one and two window boundaries.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.beeping.noise import (
    AdversarialNoise,
    BernoulliNoise,
    HeterogeneousNoise,
    _flip_threshold,
    unreliable_zone,
)
from repro.engine.packing import pack_rows
from repro.errors import ConfigurationError

_WINDOW = 4096

#: Odd width: rows never align with bytes or words of the raw stream.
N = 13


def _window_generator(channel, window: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=channel._key, counter=[0, 0, np.uint64(window), 0])
    )


@lru_cache(maxsize=None)
def _float_window(key: tuple, window: int, n: int, eps: tuple) -> np.ndarray:
    """The float path: a ``(4096, n)`` uniform matrix compared against eps."""
    generator = np.random.Generator(
        np.random.Philox(key=np.array(key, dtype=np.uint64),
                         counter=[0, 0, np.uint64(window), 0])
    )
    return generator.random((_WINDOW, n)) < np.array(eps)[None, :]


def _adversarial_window(channel, window: int, n: int) -> np.ndarray:
    """The burst placement of AdversarialNoise, as the bool window it builds."""
    block = np.zeros((_WINDOW, n), dtype=bool)
    budget = int(channel.eps * _WINDOW * n)
    if budget == 0:
        return block
    rng = _window_generator(channel, window)
    full, remainder = divmod(budget, n)
    round_order = np.argsort(rng.random(_WINDOW), kind="stable")
    block[round_order[:full]] = True
    if remainder:
        node_order = np.argsort(rng.random(n), kind="stable")
        block[round_order[full], node_order[:remainder]] = True
    return block


def _column_eps(channel, n: int) -> tuple:
    if isinstance(channel, HeterogeneousNoise):
        return tuple(channel.eps_vector)
    return (channel.eps,) * n


def oracle_block(channel, round_index: int, rounds: int, n: int) -> np.ndarray:
    """The boolean ``(n, rounds)`` flips of the float path, window by window."""
    out = np.empty((n, rounds), dtype=bool)
    position = 0
    while position < rounds:
        window, offset = divmod(round_index + position, _WINDOW)
        take = min(_WINDOW - offset, rounds - position)
        if isinstance(channel, AdversarialNoise):
            block = _adversarial_window(channel, window, n)
        else:
            block = _float_window(
                tuple(int(k) for k in channel._key), window, n,
                _column_eps(channel, n),
            )
        out[:, position : position + take] = block[offset : offset + take].T
        position += take
    return out


def _zone(n: int = N) -> HeterogeneousNoise:
    # eps_cold = 0: most columns never flip (threshold 0).
    return unreliable_zone(n, frac=0.3, eps_hot=0.35, eps_cold=0.0, seed=5)


def _mixed(n: int = N) -> HeterogeneousNoise:
    # Every kind of column at once: zero, dyadic, and nextafter(0.5, 0).
    rates = [0.0, 0.25, 0.125, 2.0**-10, np.nextafter(0.5, 0.0), 0.05, 0.3]
    return HeterogeneousNoise([rates[v % len(rates)] for v in range(n)], seed=8)


THRESHOLD_CHANNELS = {
    "bernoulli": lambda: BernoulliNoise(0.05, seed=3),
    "zone": _zone,
    "mixed": _mixed,
    "dyadic-quarter": lambda: BernoulliNoise(0.25, seed=4),
    "dyadic-eighth": lambda: BernoulliNoise(0.125, seed=4),
    "dyadic-2^-10": lambda: BernoulliNoise(2.0**-10, seed=4),
    "below-half": lambda: BernoulliNoise(float(np.nextafter(0.5, 0.0)), seed=6),
}

ALL_CHANNELS = dict(
    THRESHOLD_CHANNELS, adversarial=lambda: AdversarialNoise(0.1, seed=9)
)


class TestNumpyUniformIsShiftedRaw:
    """The fact the integer threshold rests on."""

    @pytest.mark.parametrize("window", [0, 7, 2**32 + 3])
    def test_random_is_raw_shifted_by_11(self, window):
        key = np.array([0x1234_5678_9ABC, 42], dtype=np.uint64)
        counter = [0, 0, np.uint64(window), 0]
        uniforms = np.random.Generator(
            np.random.Philox(key=key, counter=counter)
        ).random(4000)
        raw = np.random.Philox(key=key, counter=counter).random_raw(4000)
        assert np.array_equal(uniforms, (raw >> np.uint64(11)) * 2.0**-53)


class TestThresholdBoundary:
    """``raw < ceil(eps * 2**53) << 11`` iff ``(raw >> 11) * 2**-53 < eps``."""

    @pytest.mark.parametrize(
        "eps",
        [0.0, 0.25, 0.125, 2.0**-10, float(np.nextafter(0.5, 0.0)), 0.05, 0.3,
         1e-300],
    )
    def test_raw_words_at_the_boundary(self, eps):
        threshold = _flip_threshold(eps)
        mantissa = int(np.ceil(eps * 2.0**53))
        candidates = {0, 1, 2**64 - 1}
        for m in (mantissa - 1, mantissa, mantissa + 1):
            if 0 <= m < 2**53:
                candidates |= {m << 11, (m << 11) + 2047, max(0, (m << 11) - 1)}
        raw = np.array(sorted(candidates), dtype=np.uint64)
        by_float = (raw >> np.uint64(11)) * 2.0**-53 < eps
        assert np.array_equal(raw < threshold, by_float)


class TestWindowsMatchFloatOracle:
    @pytest.mark.parametrize("name", sorted(THRESHOLD_CHANNELS))
    @pytest.mark.parametrize("window", [0, 1, 2**32 + 3])
    def test_whole_window(self, name, window):
        channel = THRESHOLD_CHANNELS[name]()
        start = window * _WINDOW
        expected = oracle_block(channel, start, _WINDOW, N)
        assert np.array_equal(channel.flip_block(start, _WINDOW, N), expected)
        assert np.array_equal(
            channel.flip_words(start, _WINDOW, N), pack_rows(expected)
        )

    def test_zero_rate_columns_never_flip(self):
        channel = _zone()
        silent = channel.eps_vector == 0.0
        assert silent.any() and not silent.all()
        flips = channel.flip_block(0, 2 * _WINDOW, N)
        assert not flips[silent].any()
        assert flips[~silent].any()

    def test_cache_holds_packed_words(self):
        channel = BernoulliNoise(0.05, seed=3)
        channel.flip_block(5, 10, N)
        words = channel._window_cache.get((0, N))
        assert words.shape == (N, _WINDOW // 64)
        assert words.dtype == np.uint64


OFFSETS = [0, 1, 63, 64, 65, 4031, 4095, 4096, 4097, 8191]
LENGTHS = [0, 1, 63, 64, 65, 4096, 9000]


class TestFlipWordsLayout:
    def test_word_constants_match_packing(self):
        from repro.beeping import noise
        from repro.engine import packing

        assert noise._WORD_BITS == packing.WORD_BITS
        assert noise._WINDOW == _WINDOW
        assert noise._WINDOW % noise._CHUNK == 0 and noise._CHUNK % 64 == 0

    def test_grid_includes_multi_window_straddles(self):
        spans = {
            (t + r - 1) // _WINDOW - t // _WINDOW + 1
            for t in OFFSETS
            for r in LENGTHS
            if r
        }
        assert {2, 3} <= spans

    @pytest.mark.parametrize("name", sorted(ALL_CHANNELS))
    def test_words_are_pack_rows_of_oracle(self, name):
        channel = ALL_CHANNELS[name]()
        for t in OFFSETS:
            for r in LENGTHS:
                expected = oracle_block(channel, t, r, N)
                words = channel.flip_words(t, r, N)
                assert words.shape == (N, -(-r // 64)), (t, r)
                assert np.array_equal(words, pack_rows(expected)), (t, r)
                assert np.array_equal(channel.flip_block(t, r, N), expected), (t, r)
                if r % 64:
                    pad = words[:, -1] >> np.uint64(r % 64)
                    assert not pad.any(), (t, r)

    @pytest.mark.parametrize("name", sorted(ALL_CHANNELS))
    def test_apply_is_xor_of_flip_block(self, name):
        channel = ALL_CHANNELS[name]()
        received = np.random.default_rng(0).random((N, 200)) < 0.5
        expected = received ^ oracle_block(channel, 4000, 200, N)
        assert np.array_equal(channel.apply(received, 4000), expected)
        assert np.array_equal(channel.apply(received[:, 96], 4096), expected[:, 96])


class TestNegativeArguments:
    @pytest.mark.parametrize("name", sorted(ALL_CHANNELS))
    @pytest.mark.parametrize(
        "call",
        [
            lambda c: c.flip_block(-1, 4, N),
            lambda c: c.flip_block(0, -3, N),
            lambda c: c.flip_words(-1, 4, N),
            lambda c: c.flip_words(0, -3, N),
            lambda c: c.flip_words(-64, 0, N),
            lambda c: c.apply(np.zeros(N, dtype=bool), -5),
            lambda c: c.apply(np.zeros((N, 3), dtype=bool), -5),
        ],
    )
    def test_raise_configuration_error(self, name, call):
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            call(ALL_CHANNELS[name]())
