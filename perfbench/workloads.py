"""The four benchmark workloads, driven through the public API.

Each workload turns the benchmark seed into a deterministic sequence of
operations ("ops"); one op is one unit a user waits for.  Op ``j`` runs
case ``j % CASES`` of the seed: a case is an input derived from
``(workload, seed, case)`` by the benchmark's own hash, never by the
program, so a change to the program cannot change what it is fed.

Every op returns a digest of its simulated output (never of wall-clock
fields), which the runner compares with the expected digests stored in
``expected/``.  :meth:`Workload.reference` recomputes one op's digest
through an independent path of the program (another backend, runtime or
process), so seeds without stored digests are still checked for
bit-identity.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import shutil
import tempfile
import time
import urllib.request
from dataclasses import dataclass, field

# Seams are called through their modules, so traced runs see the wrappers.
from repro import algorithms, graphs, sweeps
from repro.core.parameters import SimulationParameters
from repro.core.transpiler import BeepSimulator
from repro.service import JobService, ServiceConfig

#: Distinct cases per seed; op ``j`` runs case ``j % CASES``.
CASES = 32


def case_seed(workload: str, seed: int, case: int) -> int:
    """The input seed of one case: a hash of ``(workload, seed, case)``."""
    digest = hashlib.sha256(f"perfbench|{workload}|{seed}|{case}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def digest_of(value: object) -> str:
    """Short SHA-256 of a canonical JSON rendering of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class OpResult:
    """What one op produced, as the runner needs it.

    ``case`` indexes the expected digests (``None``: no stored digest
    applies), ``latency`` marks ops that are latency samples, and
    ``timings`` carries the service's own per-job figures.
    """

    digest: str
    node_rounds: int
    valid: bool
    case: "int | None"
    latency: bool = True
    timings: dict = field(default_factory=dict)


class Workload:
    """Base class: a named op sequence over inputs derived from a seed."""

    name = ""
    #: Ops per mix cycle; a timed phase always ends on a cycle boundary.
    cycle = 1

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def case(self, j: int) -> "tuple[int, int]":
        """``(case index, input seed)`` of op ``j``."""
        case = j % CASES
        return case, case_seed(self.name, self.seed, case)

    def op_of_case(self, case: int) -> int:
        """The first op that runs ``case``."""
        return case

    def at_seed(self, seed: int) -> "Workload":
        """This workload, as set up, on the inputs of another seed."""
        other = copy.copy(self)
        other.seed = seed
        return other

    def setup(self) -> None:
        """Prepare what every op shares; by default, warm up on a tiny op.

        The warm-up pays one-time lazy initialisation (first-call imports
        and set-up inside the program) during set-up, where ``setup_s``
        measures it, instead of in the first timed op.
        """
        type(self)(self.seed, tiny=True).op(0)

    def reset(self) -> None:
        """Forget state a replay of the same ops must not see."""

    def close(self) -> None:
        """Release what :meth:`setup` acquired."""

    def op(self, j: int) -> OpResult:
        """Run op ``j`` and digest its simulated output."""
        raise NotImplementedError

    def reference(self, j: int) -> str:
        """Op ``j``'s digest recomputed through an independent path."""
        raise NotImplementedError


#: Simulated columns of a broadcast sweep point (no timing, no provenance).
BROADCAST_FIELDS = (
    "family", "params", "workload", "n", "eps", "noise_model", "churn",
    "gamma", "seed", "delta", "edges", "message_bits",
    "beep_rounds_per_round", "rounds", "successes", "success_rate",
    "phase1_node_errors", "phase2_node_errors", "r_collisions",
    "rounds_used", "messages_sent",
)

#: Simulated columns of an algorithm sweep point.
ALGORITHM_FIELDS = (
    "family", "params", "workload", "n", "seed", "delta", "edges",
    "message_bits", "rounds_used", "messages_sent", "output_size", "valid",
)


class SweepNoisy(Workload):
    """One broadcast grid point per op; noise models alternate."""

    name = "sweep-noisy"
    cycle = 2
    MODELS = ("bernoulli", "zone:0.25")

    def grid(self, j: int) -> dict:
        case, seed = self.case(j)
        return {
            "topologies": ["expander"],
            "sizes": [65 if self.tiny else 2016],
            "noises": [0.05],
            "noise_models": [self.MODELS[case % 2]],
            "seeds": [seed],
            "rounds": 2,
            "params": {"expander": {"degree": 4 if self.tiny else 8}},
        }

    def _digest(self, result) -> "tuple[str, dict]":
        [point] = result.points
        return digest_of({f: point[f] for f in BROADCAST_FIELDS}), point

    def op(self, j: int) -> OpResult:
        digest, point = self._digest(sweeps.run(self.grid(j)))
        rounds = point["rounds"]
        valid = (
            0 <= point["successes"] <= rounds
            and point["success_rate"] == point["successes"] / rounds
            and point["messages_sent"] == point["n"] * rounds
        )
        return OpResult(digest, point["n"] * rounds, valid, self.case(j)[0])

    def reference(self, j: int) -> str:
        return self._digest(sweeps.run(self.grid(j), backend="dense"))[0]


class BeepsMatching(Workload):
    """One Theorem 21 maximal-matching run over noisy beeps per op."""

    name = "beeps-matching"
    EPS = 0.05
    VALUE_EXPONENT = 3
    MAX_ROUNDS = 200

    def _run(self, j: int, backend: "str | None"):
        n, degree = (16, 3) if self.tiny else (256, 4)
        seed = self.case(j)[1]
        topology = graphs.Topology(graphs.random_regular_graph(n, degree, seed=seed))
        ids = list(range(n))
        nodes, budget = algorithms.make_matching_algorithms(
            topology, ids, value_exponent=self.VALUE_EXPONENT
        )
        params = SimulationParameters(
            message_bits=budget,
            max_degree=degree,
            eps=self.EPS,
            c=SimulationParameters.for_network(n, degree, eps=self.EPS).c,
        )
        simulator = BeepSimulator(topology, params=params, seed=seed,
                                  backend=backend)
        result = simulator.run_broadcast_congest(nodes, self.MAX_ROUNDS)
        ok, _ = algorithms.check_matching(topology, ids, result.outputs)
        stats = result.stats
        record = {
            "outputs": result.outputs,
            "finished": result.finished,
            "stats": [stats.simulated_rounds, stats.beep_rounds,
                      stats.failed_rounds, stats.phase1_node_errors,
                      stats.phase2_node_errors, stats.r_collisions],
        }
        return digest_of(record), n * stats.simulated_rounds, ok and result.finished

    def op(self, j: int) -> OpResult:
        digest, node_rounds, valid = self._run(j, None)
        return OpResult(digest, node_rounds, valid, self.case(j)[0])

    def reference(self, j: int) -> str:
        return self._run(j, "dense")[0]


class CongestAlgorithms(Workload):
    """One algorithm sweep point per op: {matching, mis} x {expander, powerlaw}."""

    name = "congest-algorithms"
    cycle = 4
    COMBOS = (("expander", "matching"), ("expander", "mis"),
              ("powerlaw", "matching"), ("powerlaw", "mis"))

    def grid(self, j: int) -> dict:
        case, seed = self.case(j)
        family, workload = self.COMBOS[case % 4]
        grid = {
            "topologies": [family],
            "workloads": [workload],
            "sizes": [256 if self.tiny else 32768],
            "noises": [0.0],
            "seeds": [seed],
        }
        if family == "expander":
            grid["params"] = {"expander": {"degree": 3}}
        return grid

    def _digest(self, result) -> "tuple[str, dict]":
        [point] = result.points
        return digest_of({f: point[f] for f in ALGORITHM_FIELDS}), point

    def op(self, j: int) -> OpResult:
        digest, point = self._digest(sweeps.run(self.grid(j)))
        return OpResult(digest, point["n"] * point["rounds_used"],
                        point["valid"] is True, self.case(j)[0])

    def reference(self, j: int) -> str:
        return self._digest(sweeps.run(self.grid(j), runtime="reference"))[0]


def _http(url: str, payload: "dict | None" = None) -> bytes:
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=data,
                                     method="GET" if data is None else "POST")
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.read()


def _document_digest(document: dict) -> str:
    """Digest of a sweep result document minus its wall-clock fields."""
    points = [{k: v for k, v in point.items() if k != "elapsed"}
              for point in document["points"]]
    return digest_of({**document, "points": points})


class ServiceJobs(Workload):
    """A closed-loop client of one in-process job server.

    Even ops submit a fresh small sweep (a new seed each time); odd ops
    resubmit an earlier payload exactly, which the server must answer
    from the existing job.  Each submission is followed by polling to a
    terminal state and a result fetch.
    """

    name = "service-jobs"
    cycle = 2
    POLL_S = 0.02

    def __init__(self, seed: int, tiny: bool = False, workdir: str = ".") -> None:
        super().__init__(seed, tiny)
        self.workdir = workdir
        self.service: "JobService | None" = None
        self.store_dir: "str | None" = None

    def setup(self) -> None:
        self.store_dir = tempfile.mkdtemp(prefix="service-", dir=self.workdir)
        self.service = JobService(ServiceConfig(
            host="127.0.0.1", port=0, store_dir=self.store_dir,
            jobs=min(2, len(os.sched_getaffinity(0))),
        ))
        self.service.start_background()
        _http(f"{self.service.url}/v1/health")
        self.fresh: list[tuple[dict, str, str]] = []  # payload, job id, digest
        self.pick = random.Random(case_seed(self.name, self.seed, -1))

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    def reset(self) -> None:
        self.close()
        self.setup()

    def at_seed(self, seed: int) -> "ServiceJobs":
        other = super().at_seed(seed)
        other.fresh = []
        other.pick = random.Random(case_seed(self.name, seed, -1))
        return other

    def op_of_case(self, case: int) -> int:
        return 2 * case  # fresh job ``case`` is op ``2 * case``

    def payload(self, fresh: int) -> dict:
        return {
            "kind": "sweep",
            "grid": {
                "topologies": ["torus"],
                "sizes": [16 if self.tiny else 64],
                "noises": [0.0, 0.05],
                "rounds": 2,
                "seeds": [case_seed(self.name, self.seed, fresh)],
            },
        }

    def submit(self, payload: dict) -> dict:
        """``POST /v1/jobs``."""
        return json.loads(_http(f"{self.service.url}/v1/jobs", payload))

    def wait(self, job_id: str) -> dict:
        """Poll ``GET /v1/jobs/<id>`` until the job is terminal."""
        while True:
            state = json.loads(_http(f"{self.service.url}/v1/jobs/{job_id}"))
            if state["state"] in ("done", "failed"):
                return state
            time.sleep(self.POLL_S)

    def fetch(self, job_id: str) -> dict:
        """``GET /v1/jobs/<id>/result``."""
        return json.loads(_http(f"{self.service.url}/v1/jobs/{job_id}/result"))

    def op(self, j: int) -> OpResult:
        duplicate = j % 2 == 1
        if duplicate:
            payload, original_id, original_digest = self.fresh[
                self.pick.randrange(len(self.fresh))
            ]
        else:
            payload = self.payload(j // 2)
        reply = self.submit(payload)
        job_id = reply["job_id"]
        state = self.wait(job_id)
        document = self.fetch(job_id)
        digest = _document_digest(document)
        valid = state["state"] == "done" and len(document["points"]) == 2
        if duplicate:
            deduped = reply["deduped"] and job_id == original_id
            valid = valid and deduped and digest == original_digest
            return OpResult(digest, 0, valid, None, latency=False,
                            timings={"service.deduped": float(deduped)})
        timings = {"service.queue_wait_s": state["started"] - state["created"],
                   "service.exec_s": state["finished"] - state["started"]}
        self.fresh.append((payload, job_id, digest))
        node_rounds = sum(p["n"] * p["rounds"] for p in document["points"])
        fresh = j // 2
        return OpResult(digest, node_rounds, valid,
                        fresh if fresh < CASES else None, timings=timings)

    def reference(self, j: int) -> str:
        grid = self.payload(j // 2)["grid"]
        return _document_digest(sweeps.run(grid).to_dict())


WORKLOADS = {cls.name: cls for cls in (SweepNoisy, BeepsMatching,
                                       CongestAlgorithms, ServiceJobs)}
