"""Tests for the round engine: its exact kernels, BatchedSession, and the oracle.

Sessions build schedules and decode through the fast kernels of
:mod:`repro.core.round_simulator`; the reference encoder/decoder are the
specification.  Three contracts are pinned here:

* the kernels (schedule building, phase-1 threshold decode, phase-2
  nearest-codeword decode) equal their reference implementations value
  for value;
* a whole :class:`BroadcastSession` round equals :func:`reference_round`,
  the same round replayed through the reference functions (same draws in
  the same order, same beeping executions), across policies, noise
  rates, backends, silent nodes, dynamic topologies, non-default
  channels and a full Theorem 21 matching run;
* outcome ``r`` of a batched round is *bit-identical* — decoded
  multisets, accepted sets, error counters, collision flags — to what
  the ``r``-th standalone :class:`BroadcastSession` returns on the same
  messages, for every policy, channel, backend and round offset.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import make_matching_algorithms
from repro.beeping.batch import run_schedule
from repro.beeping.noise import AdversarialNoise, DynamicTopology, HeterogeneousNoise
from repro.core.encoder import build_phase_schedules
from repro.core.decoder import phase1_decode, phase2_decode
from repro.core.parameters import CandidatePolicy, SimulationParameters
from repro.core.round_simulator import (
    BatchedSession,
    BroadcastSession,
    RoundOutcome,
    _DISTANCE_ROW_CACHE_LIMIT,
    _build_phase_schedules_fast,
    _candidate_set,
    _draw_r_values,
    _phase1_decode_fast,
    _phase2_decode_fast,
    _with_message_decoys,
)
from repro.core.transpiler import BeepSimulator
from repro.errors import ConfigurationError
from repro.graphs import Topology, path_graph, random_regular_graph, star_graph
from repro.lru import LRUDict
from repro.rng import derive_rng, random_bits


def assert_outcomes_equal(a, b):
    """Field-by-field equality of two RoundOutcomes."""
    assert a.decoded == b.decoded
    assert np.array_equal(a.per_node_success, b.per_node_success)
    assert a.success == b.success
    assert a.beep_rounds_used == b.beep_rounds_used
    assert a.phase1_errors == b.phase1_errors
    assert a.phase2_errors == b.phase2_errors
    assert a.r_collision == b.r_collision
    assert a.accepted_sets == b.accepted_sets


def random_messages(rng, n, message_bits, hole_every=0):
    """A per-node message list, with None holes when hole_every > 0."""
    return [
        None
        if hole_every and v % hole_every == 0
        else random_bits(rng, message_bits)
        for v in range(n)
    ]


class TestBitIdentityWithPerSeedSessions:
    @pytest.mark.parametrize("backend", ["dense", "bitpacked"])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_multi_round_chaining(self, backend, eps):
        topology = Topology(random_regular_graph(12, 3, seed=7))
        params = SimulationParameters.for_network(12, 3, eps=eps)
        seeds = [11, 23, 37]
        batched = BatchedSession(topology, params, seeds, backend=backend)
        singles = [
            BroadcastSession(topology, params, seed, backend=backend)
            for seed in seeds
        ]
        rng = derive_rng(0, "messages")
        for round_index in range(3):
            batch = [
                random_messages(rng, 12, params.message_bits, hole_every=round_index + 3)
                for _ in seeds
            ]
            outcomes = batched.run_round(batch)
            for replica, (single, messages) in enumerate(zip(singles, batch)):
                assert_outcomes_equal(outcomes[replica], single.run_round(messages))

    @pytest.mark.parametrize(
        "policy",
        [CandidatePolicy.ORACLE_WITH_DECOYS, CandidatePolicy.IN_FLIGHT],
    )
    def test_policies(self, policy):
        topology = Topology(star_graph(8))
        params = SimulationParameters.for_network(8, 7, eps=0.05)
        seeds = [1, 2]
        batched = BatchedSession(
            topology, params, seeds, policy=policy, backend="bitpacked"
        )
        singles = [
            BroadcastSession(topology, params, seed, policy=policy, backend="bitpacked")
            for seed in seeds
        ]
        rng = derive_rng(3, "messages")
        batch = [random_messages(rng, 8, params.message_bits) for _ in seeds]
        for replica, outcome in enumerate(batched.run_round(batch)):
            assert_outcomes_equal(outcome, singles[replica].run_round(batch[replica]))

    def test_exhaustive_policy(self):
        topology = Topology(path_graph(4))
        params = SimulationParameters(message_bits=2, max_degree=2, eps=0.0, c=3)
        seeds = [5, 9]
        batched = BatchedSession(
            topology, params, seeds, policy=CandidatePolicy.EXHAUSTIVE
        )
        singles = [
            BroadcastSession(topology, params, seed, policy=CandidatePolicy.EXHAUSTIVE)
            for seed in seeds
        ]
        batch = [[1, None, 3, 0], [2, 2, None, 1]]
        for replica, outcome in enumerate(batched.run_round(batch)):
            assert_outcomes_equal(outcome, singles[replica].run_round(batch[replica]))

    def test_run_many_and_reset(self):
        topology = Topology(path_graph(5))
        params = SimulationParameters.for_network(5, 2, eps=0.0)
        batched = BatchedSession(topology, params, [4, 8])
        rng = derive_rng(1, "messages")
        rounds = [
            [random_messages(rng, 5, params.message_bits) for _ in range(2)]
            for _ in range(2)
        ]
        first = batched.run_many(rounds)
        batched.reset()
        again = batched.run_many(rounds)
        for round_outcomes, replay in zip(first, again):
            for outcome, outcome_again in zip(round_outcomes, replay):
                assert_outcomes_equal(outcome, outcome_again)

    def test_explicit_round_offset(self):
        topology = Topology(path_graph(5))
        params = SimulationParameters.for_network(5, 2, eps=0.1)
        batched = BatchedSession(topology, params, [4, 8])
        single = BroadcastSession(topology, params, 4)
        messages = [[1, 2, 3, 0, 1], [2, 1, 0, 3, 2]]
        offset = 5000
        outcomes = batched.run_round(messages, round_offset=offset)
        assert_outcomes_equal(
            outcomes[0], single.run_round(messages[0], round_offset=offset)
        )


class TestBatchedSessionValidation:
    def test_needs_seeds(self):
        topology = Topology(path_graph(4))
        params = SimulationParameters.for_network(4, 2, eps=0.0)
        with pytest.raises(ConfigurationError):
            BatchedSession(topology, params, [])

    def test_replica_count_enforced(self):
        topology = Topology(path_graph(4))
        params = SimulationParameters.for_network(4, 2, eps=0.0)
        batched = BatchedSession(topology, params, [0, 1])
        with pytest.raises(ConfigurationError):
            batched.run_round([[1, 2, 3, 0]])

    def test_properties(self):
        topology = Topology(path_graph(4))
        params = SimulationParameters.for_network(4, 2, eps=0.0)
        batched = BatchedSession(topology, params, [0, 1, 2])
        assert batched.num_replicas == 3
        assert batched.seeds == (0, 1, 2)
        assert batched.topology is topology
        assert batched.params is params
        assert len(batched.sessions) == 3


class TestFastKernels:
    def test_schedule_builder_matches_reference(self):
        params = SimulationParameters.for_network(16, 4, eps=0.05)
        codes = params.combined_code(seed=13)
        rng = derive_rng(7, "inputs")
        n = 16
        r_values = [random_bits(rng, params.r_bits) for _ in range(n)]
        messages = [
            None if v % 5 == 0 else random_bits(rng, params.message_bits)
            for v in range(n)
        ]
        reference = build_phase_schedules(codes, r_values, messages)
        fast = _build_phase_schedules_fast(
            codes, r_values, messages, LRUDict(64)
        )
        assert np.array_equal(reference[0], fast[0])
        assert np.array_equal(reference[1], fast[1])

    def test_schedule_builder_all_silent(self):
        params = SimulationParameters.for_network(4, 2, eps=0.0)
        codes = params.combined_code(seed=1)
        fast = _build_phase_schedules_fast(codes, [0, 1, 2, 3], [None] * 4, LRUDict(8))
        assert not fast[0].any() and not fast[1].any()

    def test_phase1_fast_matches_reference(self):
        params = SimulationParameters.for_network(12, 3, eps=0.1)
        codes = params.combined_code(seed=3)
        rng = derive_rng(9, "heard")
        heard = rng.random((12, codes.length)) < 0.4
        candidates = [random_bits(rng, params.r_bits) for _ in range(20)]
        reference = phase1_decode(codes.beep_code, heard, candidates, params.eps)
        fast = _phase1_decode_fast(codes.beep_code, heard, candidates, params.eps)
        assert reference == fast
        assert _phase1_decode_fast(codes.beep_code, heard, [], params.eps) == [
            set() for _ in range(12)
        ]

    def test_phase2_fast_matches_reference(self):
        params = SimulationParameters.for_network(12, 3, eps=0.1)
        codes = params.combined_code(seed=5)
        rng = derive_rng(11, "heard2")
        heard = rng.random((12, codes.length)) < 0.5
        r_pool = [random_bits(rng, params.r_bits) for _ in range(8)]
        accepted = [
            {r_pool[int(i)] for i in rng.choice(8, size=int(rng.integers(0, 4)), replace=False)}
            for _ in range(12)
        ]
        message_candidates = sorted(
            {random_bits(rng, params.message_bits) for _ in range(10)}
        )
        reference = phase2_decode(codes, heard, accepted, message_candidates)
        fast = _phase2_decode_fast(codes, heard, accepted, message_candidates)
        assert reference == fast

    def test_phase2_fast_single_candidate_margin(self):
        params = SimulationParameters.for_network(6, 2, eps=0.0)
        codes = params.combined_code(seed=2)
        rng = derive_rng(13, "heard3")
        heard = rng.random((6, codes.length)) < 0.5
        accepted = [{random_bits(rng, params.r_bits)} for _ in range(6)]
        reference = phase2_decode(codes, heard, accepted, [3])
        fast = _phase2_decode_fast(codes, heard, accepted, [3])
        assert reference == fast

    @pytest.mark.parametrize("decode", [phase1_decode, _phase1_decode_fast])
    def test_phase1_rejects_wrong_heard_shape(self, decode):
        params = SimulationParameters.for_network(6, 2, eps=0.0)
        codes = params.combined_code(seed=2)
        for heard in (
            np.zeros((6, codes.length + 1), dtype=bool),
            np.zeros(codes.length, dtype=bool),
        ):
            with pytest.raises(ConfigurationError, match="heard matrix"):
                decode(codes.beep_code, heard, [1, 2], params.eps)

    @pytest.mark.parametrize("decode", [phase1_decode, _phase1_decode_fast])
    def test_phase1_rejects_wrong_codeword_matrix(self, decode):
        params = SimulationParameters.for_network(6, 2, eps=0.0)
        codes = params.combined_code(seed=2)
        heard = np.zeros((6, codes.length), dtype=bool)
        matrix = codes.beep_code.encode_many([1, 2, 3])
        with pytest.raises(ConfigurationError, match="codeword matrix"):
            decode(codes.beep_code, heard, [1, 2], params.eps, codeword_matrix=matrix)

    @pytest.mark.parametrize("decode", [phase2_decode, _phase2_decode_fast])
    def test_phase2_rejects_wrong_codeword_matrix(self, decode):
        params = SimulationParameters.for_network(6, 2, eps=0.0)
        codes = params.combined_code(seed=2)
        heard = np.zeros((6, codes.length), dtype=bool)
        accepted = [{1}] + [set() for _ in range(5)]
        matrix = np.zeros((2, codes.distance_code.length + 1), dtype=bool)
        with pytest.raises(ConfigurationError, match="codeword matrix"):
            decode(codes, heard, accepted, [0, 1], codeword_matrix=matrix)


class TestDistanceRowCacheBound:
    def test_session_distance_rows_stay_bounded(self):
        """Regression: the per-session distance-row cache is LRU-bounded.

        Rounds with a stream of fresh messages (plus fresh decoys) must
        not grow the cache past its limit — recurring messages stay
        resident, one-shot rows get evicted.
        """
        topology = Topology(path_graph(6))
        params = SimulationParameters.for_network(6, 2, eps=0.0)
        session = BroadcastSession(topology, params, 0)
        assert session._distance_rows.limit == _DISTANCE_ROW_CACHE_LIMIT
        # Shrink the bound so a short run exercises eviction.
        session._distance_rows.limit = 8
        rng = derive_rng(17, "messages")
        for _ in range(6):
            session.run_round(
                [random_bits(rng, params.message_bits) for _ in range(6)]
            )
        assert len(session._distance_rows) <= 8

    def test_batched_replicas_have_independent_bounded_caches(self):
        topology = Topology(path_graph(6))
        params = SimulationParameters.for_network(6, 2, eps=0.0)
        batched = BatchedSession(topology, params, [0, 1])
        rng = derive_rng(19, "messages")
        for _ in range(3):
            batched.run_round(
                [
                    [random_bits(rng, params.message_bits) for _ in range(6)]
                    for _ in range(2)
                ]
            )
        for session in batched.sessions:
            assert len(session._distance_rows) <= _DISTANCE_ROW_CACHE_LIMIT
            assert len(session._distance_rows) > 0


POLICIES = [
    CandidatePolicy.ORACLE_WITH_DECOYS,
    CandidatePolicy.IN_FLIGHT,
    CandidatePolicy.EXHAUSTIVE,
]


def reference_round(
    session: BroadcastSession,
    seed: int,
    messages,
    *,
    policy: CandidatePolicy,
    num_decoys: int = 16,
    round_offset: int = 0,
) -> RoundOutcome:
    """One Algorithm 1 round decoded by the reference encoder/decoder.

    ``seed``, ``policy`` and ``num_decoys`` must be the ones ``session``
    was built with.  The per-round stream is consumed in the session's
    order (``r_v`` values, candidate decoys, message decoys) and both
    phases run through :func:`~repro.beeping.batch.run_schedule` on the
    session's channel and backend; the session itself is left untouched.
    """
    topology = session.topology
    params = session.params
    codes = session.codes
    n = topology.num_nodes
    b = codes.length
    r_space = 1 << params.r_bits

    round_rng = derive_rng(seed, "round-randomness", round_offset)
    r_values = [int(r) for r in _draw_r_values(round_rng, n, r_space)]
    participating = [message is not None for message in messages]
    phase1, phase2 = build_phase_schedules(codes, r_values, messages)
    heard1 = run_schedule(
        topology, phase1, session.channel,
        start_round=round_offset, backend=session.backend,
    )
    heard2 = run_schedule(
        topology, phase2, session.channel,
        start_round=round_offset + b, backend=session.backend,
    )

    in_flight = sorted({r_values[v] for v in range(n) if participating[v]})
    candidates = _candidate_set(
        policy, in_flight, r_space, params.r_bits, num_decoys, round_rng
    )
    accepted_raw = phase1_decode(codes.beep_code, heard1, candidates, params.eps)
    accepted = [
        accepted_raw[v] - ({r_values[v]} if participating[v] else set())
        for v in range(n)
    ]

    message_candidates = sorted(
        {messages[v] for v in range(n) if participating[v]}
    )
    if policy is CandidatePolicy.ORACLE_WITH_DECOYS and message_candidates:
        message_candidates = _with_message_decoys(
            message_candidates, params.message_bits, num_decoys, round_rng
        )
    if policy is CandidatePolicy.EXHAUSTIVE:
        message_candidates = list(range(1 << params.message_bits))
    decoded_maps = (
        phase2_decode(codes, heard2, accepted, message_candidates)
        if message_candidates
        else [{} for _ in range(n)]
    )

    # Ground truth: the adjacency active at the round's first beeping round.
    truth_topology = (
        topology.topology_at(round_offset)
        if isinstance(topology, DynamicTopology)
        else topology
    )
    neighbours = [
        [int(u) for u in truth_topology.neighbors[v] if participating[int(u)]]
        for v in range(n)
    ]
    true_sets = [{r_values[u] for u in neighbours[v]} for v in range(n)]
    decoded = [
        sorted(entry.message for entry in decoded_maps[v].values())
        for v in range(n)
    ]
    per_node_success = np.asarray(
        [decoded[v] == sorted(messages[u] for u in neighbours[v]) for v in range(n)],
        dtype=bool,
    )
    transmitted = [r_values[v] for v in range(n) if participating[v]]
    return RoundOutcome(
        decoded=decoded,
        per_node_success=per_node_success,
        success=bool(per_node_success.all()),
        beep_rounds_used=2 * b,
        phase1_errors=sum(accepted[v] != true_sets[v] for v in range(n)),
        phase2_errors=sum(
            accepted[v] == true_sets[v] and not per_node_success[v]
            for v in range(n)
        ),
        r_collision=len(set(transmitted)) != len(transmitted),
        accepted_sets=accepted,
    )


def assert_session_matches_reference(
    topology, params, seed, policy, *, backend=None, channel=None, rounds=3,
    start=0, hole_every=3,
):
    """Chain ``rounds`` session rounds, each checked against the reference."""
    session = BroadcastSession(
        topology, params, seed, policy=policy, backend=backend, channel=channel
    )
    rng = derive_rng(seed, "oracle-messages")
    offset = start
    for round_index in range(rounds):
        messages = random_messages(
            rng, topology.num_nodes, params.message_bits,
            hole_every=hole_every + round_index,
        )
        expected = reference_round(
            session, seed, messages, policy=policy, round_offset=offset
        )
        outcome = session.run_round(messages, round_offset=offset)
        assert_outcomes_equal(outcome, expected)
        offset += outcome.beep_rounds_used
    return session


def small_params(eps: float) -> SimulationParameters:
    """Codes small enough for the exhaustive scan (r_bits = 12, B = 3)."""
    return SimulationParameters(message_bits=3, max_degree=3, eps=eps, c=4)


class TestSessionMatchesReferenceRound:
    @pytest.mark.parametrize("backend", ["dense", "bitpacked"])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_policies_noise_and_backends(self, policy, eps, backend):
        topology = Topology(random_regular_graph(10, 3, seed=4))
        assert_session_matches_reference(
            topology, small_params(eps), 21, policy, backend=backend
        )

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_noise_window_boundary(self, policy):
        """A phase straddling a 4096-round noise window still agrees."""
        topology = Topology(random_regular_graph(10, 3, seed=6))
        params = small_params(0.1)
        b = params.combined_code(0).length
        assert_session_matches_reference(
            topology, params, 5, policy, rounds=2, start=4096 - b - b // 2
        )

    def test_all_silent_round(self):
        topology = Topology(random_regular_graph(8, 3, seed=2))
        params = small_params(0.1)
        for policy in POLICIES:
            session = BroadcastSession(topology, params, 3, policy=policy)
            messages = [None] * 8
            assert_outcomes_equal(
                session.run_round(messages, round_offset=0),
                reference_round(session, 3, messages, policy=policy),
            )

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_dynamic_topology(self, policy):
        base = Topology(random_regular_graph(12, 3, seed=8))
        params = small_params(0.1)
        b = params.combined_code(0).length
        # Epochs shorter than a phase, so masks change inside each round.
        dynamic = DynamicTopology(
            base, period=b // 3, churn=0.2, edge_failure=0.1, seed=9
        )
        assert_session_matches_reference(dynamic, params, 13, policy)

    @pytest.mark.parametrize(
        "make_channel",
        [
            lambda n: HeterogeneousNoise(
                [0.02 + 0.2 * (v % 3) / 3 for v in range(n)], seed=31
            ),
            lambda n: AdversarialNoise(0.1, seed=37),
        ],
        ids=["heterogeneous", "adversarial"],
    )
    @pytest.mark.parametrize("backend", ["dense", "bitpacked"])
    def test_non_default_channels(self, make_channel, backend):
        topology = Topology(random_regular_graph(12, 3, seed=10))
        for policy in POLICIES:
            assert_session_matches_reference(
                topology, small_params(0.1), 17, policy,
                backend=backend, channel=make_channel(12),
            )

    def test_for_network_params_and_decoys(self):
        """Default-sized codes (r_bits = 20) under the default policy."""
        topology = Topology(random_regular_graph(16, 4, seed=12))
        params = SimulationParameters.for_network(16, 4, eps=0.05)
        assert_session_matches_reference(
            topology, params, 40, CandidatePolicy.ORACLE_WITH_DECOYS, rounds=4,
            hole_every=5,
        )


class TestBeepSimulatorMatchesReference:
    def test_matching_run(self, monkeypatch):
        """A Theorem 21 matching run: the reference engine gives the same run."""
        n, degree, seed, eps = 12, 3, 7, 0.05
        topology = Topology(random_regular_graph(n, degree, seed=seed))
        _, budget = make_matching_algorithms(topology, value_exponent=3)
        params = SimulationParameters(
            message_bits=budget,
            max_degree=degree,
            eps=eps,
            c=SimulationParameters.for_network(n, degree, eps=eps).c,
        )

        def run(reference: bool):
            simulator = BeepSimulator(topology, params=params, seed=seed)
            if reference:
                session = simulator.session

                def reference_run_round(messages, round_offset=0):
                    return reference_round(
                        session, seed, messages,
                        policy=CandidatePolicy.ORACLE_WITH_DECOYS,
                        round_offset=round_offset,
                    )

                monkeypatch.setattr(session, "run_round", reference_run_round)
            nodes, _ = make_matching_algorithms(topology, value_exponent=3)
            return simulator.run_broadcast_congest(nodes, 60)

        expected = run(reference=True)
        result = run(reference=False)
        assert expected.stats.simulated_rounds > 0
        assert result.outputs == expected.outputs
        assert result.finished == expected.finished
        assert result.stats == expected.stats

