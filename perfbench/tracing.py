"""Outside-in tracing: spans around the public seams of each layer.

The benchmark never edits the program.  While an operation is traced,
:class:`Seams` swaps each seam — a public function or method of one
layer — for a thin wrapper that records a span (name, start, end,
parent, op id) or bumps a counter, and puts every original back
afterwards.  Functions are replaced wherever a caller looks them up: in
every loaded ``repro`` module namespace that holds the original object,
so ``from .decoder import phase1_decode`` call sites are traced too.

A layer's self time is the duration of its spans minus the time covered
by their child spans; work behind private helpers stays in the self time
of the nearest traced caller.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter
from functools import cached_property
from typing import Callable

#: Layer metric names, in report order.  ``_s`` metrics are self time.
LAYER_TIMES = (
    "graphs.build_s",
    "codes.build_s",
    "codes.encode_s",
    "beeping.flips_s",
    "engine.kernel_s",
    "core.round_s",
    "core.phase1_s",
    "core.phase2_s",
    "core.schedules_s",
    "core.transpiler_s",
    "congest.runtime_s",
    "algorithms.verify_s",
    "sweeps.self_s",
)

#: Counter names recorded at the same seams.
LAYER_COUNTS = (
    "graphs.edges",
    "codes.codewords",
    "rng.derive_rng_calls",
    "beeping.flip_cells",
    "engine.cells",
    "core.rounds",
    "congest.rounds",
    "congest.messages",
)


class Tracer:
    """In-memory spans and counters for the operations of one run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, label, start_ns, end_ns, parent, op]
        self.counts: Counter = Counter()
        self.op: "int | None" = None
        self._stack: list[int] = []
        # Only the benchmark's own thread is traced; server threads of the
        # service workload are measured by the client's timings instead.
        self._thread = threading.get_ident()

    def span(self, layer: str, label: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call records one span attributed to ``layer``."""
        tracer = self

        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            stack = tracer._stack
            record = [layer, label, time.perf_counter_ns(), 0,
                      stack[-1] if stack else -1, tracer.op]
            index = len(tracer.spans)
            tracer.spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = time.perf_counter_ns()

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, amount: int) -> None:
        """Add ``amount`` to counter ``key`` (benchmark thread only)."""
        if threading.get_ident() == self._thread:
            self.counts[key] += amount

    def self_times(self) -> dict:
        """Per-layer self seconds: span time minus time covered by children."""
        child = [0] * len(self.spans)
        for layer, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for index, (layer, _, start, end, _, _) in enumerate(self.spans):
            totals[layer] += (end - start - child[index]) / 1e9
        return dict(totals)

    def write_chrome_trace(self, path, origin_ns: int) -> None:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto) of all spans."""
        events = [
            {
                "name": label,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin_ns) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"op": op, "parent": parent},
            }
            for layer, label, start, end, parent, op in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle,
                      separators=(",", ":"))


class Seams:
    """Install and remove the tracing wrappers around every layer seam."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    # -- patching helpers -------------------------------------------------

    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _function(self, fn: Callable, wrapper: Callable) -> None:
        """Replace ``fn`` in every ``repro`` module namespace that holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def _method(self, cls: type, name: str, layer: str,
                count: "Callable | None" = None) -> None:
        raw = cls.__dict__[name]
        label = f"{cls.__name__}.{name}"
        if isinstance(raw, cached_property):
            wrapped = cached_property(self._traced(layer, label, raw.func, count))
            wrapped.__set_name__(cls, name)
        else:
            wrapped = self._traced(layer, label, raw, count)
        self._set(cls, name, wrapped)

    def _traced(self, layer: str, label: str, fn: Callable,
                count: "Callable | None") -> Callable:
        tracer = self.tracer
        traced = tracer.span(layer, label, fn)
        if count is None:
            return traced

        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            for key, amount in count(args, kwargs, result):
                tracer.count(key, amount)
            return result

        return counted

    def _counter(self, fn: Callable, key: str) -> Callable:
        tracer = self.tracer

        def counted(*args, **kwargs):
            tracer.count(key, 1)
            return fn(*args, **kwargs)

        return counted

    # -- the seams --------------------------------------------------------

    def install(self) -> None:
        """Wrap every seam (see the per-layer table in ``README.md``)."""
        from repro import rng, sweeps
        from repro.algorithms import verification
        from repro.beeping.noise import WindowedNoise
        from repro.codes import BeepCode, DistanceCode
        from repro.congest.vectorized import VectorizedBroadcastNetwork
        from repro.core import decoder, encoder
        from repro.core.parameters import SimulationParameters
        from repro.core.round_simulator import BatchedSession, BroadcastSession
        from repro.core.transpiler import BeepSimulator
        from repro.engine.bitpacked import BitpackedBackend
        from repro.engine.dense import DenseBackend
        from repro.graphs import Topology, build_family_graph, random_regular_graph

        for fn in (build_family_graph, random_regular_graph):
            self._function(fn, self.tracer.span("graphs.build_s", fn.__name__, fn))
        self._method(Topology, "__init__", "graphs.build_s",
                     lambda a, k, r: [("graphs.edges", a[0].num_edges)])
        self._method(Topology, "adjacency", "graphs.build_s")
        self._method(Topology, "neighbors", "graphs.build_s")

        self._method(SimulationParameters, "combined_code", "codes.build_s")
        self._method(BeepCode, "encode_many", "codes.encode_s")
        self._method(BeepCode, "encode_int", "codes.encode_s",
                     lambda a, k, r: [("codes.codewords", 1)])
        self._method(DistanceCode, "encode_int", "codes.encode_s",
                     lambda a, k, r: [("codes.codewords", 1)])
        self._function(rng.derive_rng,
                       self._counter(rng.derive_rng, "rng.derive_rng_calls"))

        self._method(WindowedNoise, "flip_block", "beeping.flips_s",
                     lambda a, k, r: [("beeping.flip_cells", r.size)])
        for backend in (DenseBackend, BitpackedBackend):
            for name in ("run_schedule", "run_schedule_batch"):
                self._method(backend, name, "engine.kernel_s",
                             lambda a, k, r: [("engine.cells", r.size)])

        self._method(BroadcastSession, "run_round", "core.round_s",
                     lambda a, k, r: [("core.rounds", 1)])
        self._method(BatchedSession, "run_round", "core.round_s",
                     lambda a, k, r: [("core.rounds", len(r))])
        for fn, layer in ((decoder.phase1_decode, "core.phase1_s"),
                          (decoder.phase2_decode, "core.phase2_s"),
                          (encoder.build_phase_schedules, "core.schedules_s")):
            self._function(fn, self.tracer.span(layer, fn.__name__, fn))
        self._method(BeepSimulator, "run_broadcast_congest", "core.transpiler_s")

        self._method(VectorizedBroadcastNetwork, "run", "congest.runtime_s",
                     lambda a, k, r: [("congest.rounds", r.rounds_used),
                                      ("congest.messages", r.messages_sent)])
        for fn in (verification.check_matching, verification.check_mis):
            self._function(fn, self.tracer.span("algorithms.verify_s",
                                                fn.__name__, fn))
        self._function(sweeps.run, self.tracer.span("sweeps.self_s",
                                                    "sweeps.run", sweeps.run))

        # The service runs jobs in worker processes; its client-side seams
        # are the benchmark's own HTTP calls.
        from workloads import ServiceJobs

        for name in ("submit", "wait", "fetch"):
            self._method(ServiceJobs, name, f"service.{name}_s")

    def remove(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
