"""End-to-end benchmark of the noisy-beeps simulator: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-noisy --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it wraps each layer's public
seams (see ``tracing.py``) and reports per-layer self time and counts,
the share of wall time the spans cover, and the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(host block, percentiles, per-layer shares) is written under
``.bench_out/`` together with the Chrome trace of a traced run.

Other modes: ``--record-digests`` (re)writes the expected digests of a
seed, ``--setup-probe`` is the child process that times set-up, and
``--compare A B`` warns when two result files come from different hosts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
#: Set-up is timed this many times per run (fresh processes); the median is reported.
SETUP_SAMPLES = 5
#: ``job_tail_s`` is this latency percentile, whatever the number of samples.
TAIL_PERCENTILE = 90
#: Seed whose stored digests every run checks, one op per mix slot.
STORED_SEED = 0
#: Hard stop for a timed phase that has not reached a cycle boundary.
GRACE_S = 60.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="sweep-noisy")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the self-check size)")
    parser.add_argument("--expected", type=Path, default=None,
                        help="expected-digest file (default: expected/<workload>.json)")
    parser.add_argument("--record-digests", action="store_true",
                        help="compute and store the expected digests of --seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar="RESULT", type=Path,
                        help="compare the host blocks of two result files")
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` on the path; fail unless the program is there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src}/repro")
    sys.path.insert(0, str(src))
    import workloads  # imports the program

    return workloads


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its children, in MB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def tail(samples: list) -> float:
    """The ``TAIL_PERCENTILE`` latency, interpolated between order statistics.

    The percentile is fixed, so a program fast enough to fit more ops in
    a run is measured at the same point of its latency distribution.
    """
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


class Done(NamedTuple):
    """One finished op: its index, wall and CPU seconds, and result (``None`` if it raised)."""

    index: int
    seconds: float
    cpu: float
    result: object


class Runner:
    """Drives one workload's ops, checks each output, and keeps the tallies."""

    def __init__(self, workload, expected: "list | None") -> None:
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, j: int):
        """Run op ``j`` once; a raise, invalid output or digest mismatch fails it."""
        self.attempted += 1
        try:
            result = self.workload.op(j)
        except Exception as error:  # an op failure is data, not a crash
            self.failures.append(f"op {j}: {type(error).__name__}: {error}")
            return None
        if not result.valid:
            self.failures.append(f"op {j}: output failed its validity check")
        elif (self.expected is not None and result.case is not None
              and result.case < len(self.expected)
              and result.digest != self.expected[result.case]):
            self.failures.append(
                f"op {j}: digest {result.digest} != expected "
                f"{self.expected[result.case]}")
        return result

    def timed(self, seconds: float, ops=None) -> "tuple[list[Done], float]":
        """Run ops for ``seconds`` (whole mix cycles), or exactly ``ops``."""
        cycle = self.workload.cycle
        done = []
        started = time.perf_counter()
        j = 0
        while True:
            if ops is not None and j >= len(ops):
                break
            index = j if ops is None else ops[j]
            op_cpu, op_started = cpu_seconds(), time.perf_counter()
            result = self.run(index)
            done.append(Done(index, time.perf_counter() - op_started,
                             cpu_seconds() - op_cpu, result))
            j += 1
            elapsed = time.perf_counter() - started
            if ops is None and elapsed >= seconds and (
                    j % cycle == 0 or elapsed >= seconds + GRACE_S):
                break
        return done, time.perf_counter() - started


def load_expected(args, seed: int):
    path = args.expected or HERE / "expected" / f"{args.workload}.json"
    if not path.is_file():
        return None
    table = json.loads(path.read_text())
    return table.get("tiny" if args.tiny else "full", {}).get(str(seed))


def check_stored_seed(runner: Runner, args) -> None:
    """Run one op per mix slot of ``STORED_SEED`` against its stored digests.

    Whatever ``--seed`` is, every run thus compares at least one op of
    each kind with a digest recorded from the program, not only with
    another path through the same layers.
    """
    expected = load_expected(args, STORED_SEED)
    if expected is None:
        raise SystemExit(f"error: no stored digests of seed {STORED_SEED} "
                         f"for {args.workload}")
    workload = runner.workload
    check = Runner(workload.at_seed(STORED_SEED), expected)
    for j in range(workload.cycle):
        check.run(j)
    runner.attempted += check.attempted
    runner.failures += [f"seed {STORED_SEED} {failure}" for failure in check.failures]


def record_digests(args, workloads, workload) -> int:
    """Compute the digest of every case of ``--seed`` and store it."""
    path = HERE / "expected" / f"{args.workload}.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    digests = [workload.op(workload.op_of_case(case)).digest
               for case in range(workloads.CASES)]
    table.setdefault("tiny" if args.tiny else "full", {})[str(args.seed)] = digests
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests for {args.workload} seed {args.seed}")
    return 0


def time_setup(args) -> "list[float]":
    """Set-up times of fresh processes: start to the first op being ready."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        probe = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                 cwd=ROOT)
        try:
            line = probe.stdout.readline()
            samples.append(time.perf_counter() - started)
            probe.stdout.read()
        finally:
            probe.wait(timeout=60)
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
    return samples


#: Fields of ``host_metadata()`` derived from the code, not the host.
CODE_FIELDS = ("native_kernel_hash",)


def host_block() -> "tuple[dict, dict]":
    """``benchmarks/conftest.host_metadata()`` plus ``nproc`` and BLAS threads.

    Returns ``(host, provenance)``: the code-derived fields go to
    ``provenance``, so a change to the code does not read as another host.
    """
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from conftest import host_metadata
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    block = host_metadata()
    block["nproc"] = len(os.sched_getaffinity(0))
    block["blas_threads"] = blas_threads()
    provenance = {key: block.pop(key) for key in CODE_FIELDS if key in block}
    return block, provenance


def blas_threads() -> "int | None":
    """Thread count of the loaded OpenBLAS, or ``None`` if it cannot be read."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "/" in line}
    libraries = [path for path in paths
                 if "blas" in os.path.basename(path).lower() and ".so" in path]
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts for spawn workers.

    Left alone it outlives this process, so a run would not have ended
    every process it started.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def compare(paths) -> int:
    """Warn when two result files come from different host blocks."""
    first, second = (json.loads(path.read_text())["host"] for path in paths)
    differing = sorted(key for key in set(first) | set(second)
                       if first.get(key) != second.get(key))
    if differing:
        print(f"WARNING: results come from different hosts; differing host "
              f"fields: {', '.join(differing)}")
        for key in differing:
            print(f"  {key}: {first.get(key)!r} vs {second.get(key)!r}")
        return 1
    print("host blocks match")
    return 0


def end_to_end(done: "list[Done]", cycle: int, wall: float, setup: list,
               rss: float) -> "tuple[dict, dict]":
    """The bounded metrics; rates are medians over whole mix cycles.

    Each cycle holds the full op mix, so its rates are comparable, and a
    median over cycles is not moved by a burst of load from outside that
    lasts less than half the run.
    """
    cycles = [done[i:i + cycle] for i in range(0, len(done) - cycle + 1, cycle)]

    def per_cycle(rate) -> float:
        return statistics.median(
            rate(ops, sum(op.seconds for op in ops)) for ops in cycles)

    latencies = [op.seconds for op in done if op.result and op.result.latency]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "node_rounds_per_s": (per_cycle(lambda ops, seconds: sum(
            op.result.node_rounds for op in ops if op.result) / seconds), "1/s"),
        "jobs_per_s": (per_cycle(lambda ops, seconds: len(ops) / seconds), "1/s"),
        "job_p50_s": (statistics.median(latencies) if latencies else 0.0, "s"),
        "job_tail_s": (tail(latencies), "s"),
        "cpu_s_per_job": (per_cycle(lambda ops, seconds: sum(
            op.cpu for op in ops) / len(ops)), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {
        "setup_samples_s": setup,
        "job_tail_percentile": TAIL_PERCENTILE,
        "latency_samples": len(latencies),
        "timed_wall_s": wall,
        "ops": len(done),
        "cycles": len(cycles),
        "op_seconds": [round(op.seconds, 4) for op in done],
    }
    return metrics, detail


def per_layer(tracer, done, traced_wall, plain_wall) -> "tuple[dict, dict]":
    ops = max(len(done), 1)
    self_times = tracer.self_times()
    metrics = {}
    for name in tracing.LAYER_TIMES:
        metrics[name] = (self_times.get(name, 0.0) / ops, "s/op")
    for name in tracing.LAYER_COUNTS:
        metrics[name] = (tracer.counts.get(name, 0) / ops, "count/op")
    for name in ("service.submit_s", "service.fetch_s"):
        metrics[name] = (self_times.get(name, 0.0) / ops, "s/job")
    service: dict = {}
    for op in done:
        for key, value in (op.result.timings if op.result else {}).items():
            service.setdefault(key, []).append(value)
    for key in ("service.queue_wait_s", "service.exec_s"):
        values = service.get(key, [])
        metrics[key] = (statistics.fmean(values) if values else 0.0, "s/job")
    deduped = service.get("service.deduped", [])
    metrics["service.dedupe_ratio"] = (
        statistics.fmean(deduped) if deduped else 0.0, "ratio")
    covered = sum(self_times.values())
    metrics["trace.uncovered_s"] = ((traced_wall - covered) / ops, "s/op")
    metrics["trace.coverage"] = (covered / traced_wall, "ratio")
    metrics["trace.overhead"] = (traced_wall / plain_wall - 1.0, "ratio")
    shares = {name: seconds / traced_wall for name, seconds in self_times.items()}
    detail = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
        "shares": dict(sorted(shares.items(), key=lambda item: -item[1])),
        "uncovered_share": 1.0 - covered / traced_wall,
        "spans": len(tracer.spans),
    }
    return metrics, detail


def main(argv=None) -> int:
    process_started = time.perf_counter()
    args = parse_args(argv)
    if args.compare:
        return compare(args.compare)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; known: "
                         f"{', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    options = {"workdir": str(OUT)} if args.workload == "service-jobs" else {}
    workload = cls(args.seed, tiny=args.tiny, **options)
    try:
        workload.setup()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.record_digests:
            return record_digests(args, workloads, workload)
        runner = Runner(workload, load_expected(args, args.seed))
        if args.trace:
            tracer = tracing.Tracer()
            seams = tracing.Seams(tracer)
            origin = time.perf_counter_ns()

            plain_run = runner.run

            def traced_op(j):
                tracer.op = j
                return plain_run(j)

            # An untraced warm-up op, a traced pass for half the time, then
            # the same ops untraced, each on a fresh workload state: the
            # wall-time difference between the two passes is the overhead.
            runner.run(0)
            workload.reset()
            runner.run = traced_op
            seams.install()
            try:
                done, traced_wall = runner.timed(args.seconds / 2)
            finally:
                seams.remove()
                runner.run = plain_run
            workload.reset()
            _, plain_wall = runner.timed(0, ops=[op.index for op in done])
            metrics, detail = per_layer(tracer, done, traced_wall, plain_wall)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write_chrome_trace(trace_path, origin)
            detail["chrome_trace"] = str(trace_path.relative_to(ROOT))
        else:
            done, wall = runner.timed(args.seconds)
            rss = peak_rss_mb()
            metrics, detail = end_to_end(done, workload.cycle, wall,
                                         time_setup(args), rss)
        check_stored_seed(runner, args)
        # Op 0 once more through an independent path of the program: the
        # output check for seeds without stored digests.
        runner.attempted += 1
        reference = workload.reference(0)
        first = next(op.result for op in done if op.index == 0)
        if first is None or reference != first.digest:
            runner.failures.append(
                f"op 0: digest {first and first.digest} != independent-path "
                f"digest {reference}")
    finally:
        workload.close()
        stop_resource_tracker()

    failed = len(runner.failures)
    host, provenance = host_block()
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "digests": "stored" if runner.expected is not None else "independent path only",
        "attempted": runner.attempted,
        "failed": failed,
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures[:20],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "detail": detail,
        "host": host,
        "provenance": provenance,
        "run_s": time.perf_counter() - process_started,
    }
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(document, indent=1) + "\n")
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": document["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
