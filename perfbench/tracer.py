"""Spans around the program's layer boundaries, recorded from outside.

:func:`install` wraps the public functions and methods where one layer
calls the next — processor handlers, adversary turns, the metrics ledger,
signing, verifying and digesting, routing and transport, history
recording, the runner, the batch engine and its kernels, the pool front
end, the service scheduler and the validators — without editing the
program: methods are replaced on their classes, functions on every module
that imported them.  Each call appends one span (name, parent, start,
end) to in-memory arrays; :func:`layer_metrics` turns them into per-layer
*self* times (a span's duration minus the time its child spans cover)
and counts, and :meth:`Tracer.dump` writes the spans out when the run ends.

:class:`PoolProbe` is the light instrument for the untraced run: it only
times ``run_tasks`` calls and the tasks they ran, which is where pool
dispatch cost is read (the traced run executes pool tasks in-process).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Iterator

#: Span name -> the per-layer self-time metric it is charged to.
SELF_TIME_METRICS = {
    "handler": "algorithms.handler_s",
    "adversary": "adversary.turn_s",
    "record_send": "core.metrics.record_send_s",
    "sign": "crypto.sign_s",
    "verify": "crypto.verify_s",
    "chain_verify": "crypto.verify_s",
    "digest": "crypto.digest_s",
    "digest_table": "crypto.digest_s",
    "route": "transport.route_s",
    "history": "core.history.append_s",
    "run": "core.runner.self_s",
    "run_batch": "core.batch.engine_s",
    "kernel": "core.batch.kernel_s",
    "sweep": "analysis.parallel.self_s",
    "batch_stripe": "analysis.parallel.self_s",
    "run_tasks": "analysis.parallel.self_s",
    "serve": "service.wave_loop_s",
    "stripe": "service.stripe_s",
    "validate": "validation.check_s",
    "bench_check": "bench.check_s",
    "root": "trace.unattributed_s",
}

#: Relative tolerance of the sum check: layer self times plus the
#: unattributed time must add up to the traced wall time within this share.
SUM_TOLERANCE = 0.01


class Tracer:
    """In-memory span store plus the counters read at layer boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter[str] = Counter()
        self.sums: Counter[str] = Counter()
        #: Span count and counters when the traced phase ended; the checks
        #: that run afterwards still pass through the wrappers.
        self.closed_at = 0
        self.closed_counts: dict[str, float] = {}

    def close(self) -> None:
        """Mark the end of the traced phase."""
        self.closed_at = len(self.end)
        self.closed_counts = {**self.counts, **self.sums}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str, post: Callable | None = None) -> Callable:
        """*fn* recording one span per call; *post* sees ``(result, args,
        kwargs, span index)`` after the call."""
        nid = self.name_id(name)
        add_name, add_parent = self.name.append, self.parent.append
        add_start, add_end = self.start.append, self.end.append
        ends, stack, clock = self.end, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(index)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if post is not None:
                post(result, args, kwargs, index)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index = len(self.end)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self.stack.pop()

    def parent_name(self, index: int) -> str | None:
        parent = self.parent[index]
        return self.names[self.name[parent]] if parent >= 0 else None

    def dump(self, path: str) -> None:
        """Write the traced phase's spans: the name table, then one array
        per field (span ``i`` is element ``i`` of each)."""
        import numpy as np

        size = self.closed_at
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32)[:size],
            parent=np.frombuffer(self.parent, dtype=np.int32)[:size],
            start=np.frombuffer(self.start, dtype=np.float64)[:size],
            end=np.frombuffer(self.end, dtype=np.float64)[:size],
        )


@contextlib.contextmanager
def no_span(name: str) -> Iterator[None]:
    yield


def replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind *original* in every loaded module that holds it by name."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the loaded program with *tracer*."""
    import repro.algorithms.registry  # noqa: F401  (loads every processor class)
    from repro.adversary.base import Adversary
    from repro.analysis import batchsweep, parallel
    from repro.approx import validation as approx_validation
    from repro.approx.coins import CoinSource
    from repro.core import batch, runner, validation
    from repro.core.history import History
    from repro.core.message import payload_digest
    from repro.core.metrics import MetricsLedger
    from repro.core.protocol import Processor
    from repro.crypto.chains import SignatureChain
    from repro.crypto.signatures import SharedDigestTable, SignatureService
    from repro.service import scheduler
    from repro.transport.base import LockstepTransport
    from repro.transport.faulty import FaultyTransport

    counts, sums = tracer.counts, tracer.sums

    def method(cls: type, attr: str, name: str, post: Callable | None = None) -> None:
        setattr(cls, attr, tracer.wrap(cls.__dict__[attr], name, post))

    def function(fn: Callable, name: str, post: Callable | None = None) -> None:
        replace_everywhere(fn, tracer.wrap(fn, name, post))

    for cls in subclasses(Processor):
        for attr in ("on_phase", "on_final"):
            if attr in cls.__dict__:
                method(cls, attr, "handler")

    def faulty_sends(result: Any, args: Any, kwargs: Any, index: int) -> None:
        if tracer.parent_name(index) != "adversary":
            counts["adversary.faulty_sends"] += len(result)

    for cls in subclasses(Adversary):
        if "on_phase" in cls.__dict__ and not getattr(cls.__dict__["on_phase"], "__isabstractmethod__", False):
            method(cls, "on_phase", "adversary", faulty_sends)

    method(MetricsLedger, "record_send", "record_send")
    method(SignatureService, "sign", "sign")
    method(SignatureService, "verify", "verify")
    method(SignatureChain, "verify", "chain_verify")
    function(payload_digest, "digest")

    table_digest = SharedDigestTable.digest

    def digest_via_table(self: Any, payload: Any) -> Any:
        hits = self.hits
        digest = table_digest(self, payload)
        if self.hits > hits:
            counts["crypto.digest_table_hits"] += 1
        else:
            counts["crypto.digest_table_misses"] += 1
        return digest

    SharedDigestTable.digest = tracer.wrap(digest_via_table, "digest_table")

    def routed(result: Any, args: Any, kwargs: Any, index: int) -> None:
        if tracer.parent_name(index) != "route":
            sent = args[0] if len(args) == 1 or isinstance(args[0], list) else args[2]
            counts["transport.envelopes"] += len(sent)

    function(runner._route_merged, "route", routed)
    function(runner._route_sorted, "route", routed)
    method(LockstepTransport, "deliver", "route", routed)
    method(FaultyTransport, "deliver", "route", routed)

    original_drain = FaultyTransport.drain_faults

    def drain(self: Any) -> Any:
        events = original_drain(self)
        counts["transport.faults_injected"] += len(events)
        return events

    FaultyTransport.drain_faults = drain

    def appended(result: Any, args: Any, kwargs: Any, index: int) -> None:
        counts["core.history.edges"] += len(args[0].phases[-1])

    method(History, "append_phase", "history", appended)

    def ran(result: Any, args: Any, kwargs: Any, index: int) -> None:
        counts["core.runner.runs"] += 1
        counts["core.metrics.messages"] += result.metrics.total_messages
        counts["core.metrics.signatures"] += result.metrics.total_signatures
        if kwargs.get("collect_telemetry"):
            counts["service.sample_reruns"] += 1
            sums["service.sample_s"] += tracer.end[index] - tracer.start[index]

    function(runner.run, "run", ran)

    def batched(result: Any, args: Any, kwargs: Any, index: int) -> None:
        stats = result.stats
        counts["core.batch.runs"] += stats.runs
        counts["core.batch.executed_runs"] += stats.unique_runs
        counts["core.batch.replicated_runs"] += stats.replicated_runs
        counts["core.batch.kernel_runs"] += stats.kernel_runs

    function(batch.run_batch, "run_batch", batched)
    for name in ("phase-king", "oral-messages"):
        kernel = batch.batch_kernel_for(name)
        if kernel is not None:
            batch.register_batch_kernel(name)(tracer.wrap(kernel, "kernel"))

    function(parallel.sweep_parallel, "sweep")
    method(batchsweep.BatchStripe, "run", "batch_stripe")
    function(parallel.run_tasks, "run_tasks")
    method(scheduler.Scheduler, "serve", "serve")
    method(scheduler.ServiceStripe, "run", "stripe")

    for fn in (
        validation.check_byzantine_agreement,
        approx_validation.check_run_conditions,
        approx_validation.check_epsilon_agreement,
        approx_validation.check_randomized_consensus,
        batch.kernel_agreement_ok,
    ):
        function(fn, "validate")

    original_flip = CoinSource.flip

    def flip(self: Any, lane: int, round_index: int) -> int:
        counts["approx.coin_flips"] += 1
        return original_flip(self, lane, round_index)

    CoinSource.flip = flip


def layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer self times and counts of the closed traced phase, and the
    sum check's findings."""
    import numpy as np

    size = tracer.closed_at
    name = np.frombuffer(tracer.name, dtype=np.int32)[:size]
    parent = np.frombuffer(tracer.parent, dtype=np.int32)[:size]
    duration = (np.frombuffer(tracer.end, dtype=np.float64)
                - np.frombuffer(tracer.start, dtype=np.float64))[:size]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    self_time = np.bincount(name, weights=duration - covered, minlength=len(tracer.names))
    calls = np.bincount(name, minlength=len(tracer.names))
    by_name = dict(zip(tracer.names, self_time.tolist()))
    spans = dict(zip(tracer.names, calls.tolist()))

    metrics = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    for span_name, seconds in by_name.items():
        metrics[SELF_TIME_METRICS[span_name]] += seconds
    metrics["algorithms.handler_calls"] = spans.get("handler", 0)
    metrics["crypto.sign_calls"] = spans.get("sign", 0)
    metrics["crypto.verify_calls"] = spans.get("verify", 0)
    metrics["crypto.digest_calls"] = spans.get("digest", 0)
    metrics.update({k: float(v) for k, v in tracer.closed_counts.items()})

    findings = []
    total = sum(by_name.values())
    if abs(total - wall_s) > SUM_TOLERANCE * wall_s:
        findings.append(f"sum check: layer self times {total:.6f}s vs traced wall {wall_s:.6f}s")
    if (duration < 0).any() or (covered > duration + 1e-9).any():
        findings.append("sum check: a span ends before it starts or its children overrun it")
    return metrics, findings


class PoolProbe:
    """Times ``run_tasks`` calls and the tasks inside them (untraced run).

    Pool dispatch is what a call spends beyond its tasks' own run time:
    ``wall - busy / workers_used``, where ``busy`` sums the tasks' run
    times as measured inside the worker processes.  Pool workers are
    forked, so the patched task classes are what they execute.
    """

    def __init__(self) -> None:
        self.dispatch_s = 0.0
        self.tasks = 0
        self.pools = 0
        self.retries = 0
        #: Submissions and distinct chunks of the ``run_tasks`` call in flight.
        self.submits = 0
        self.chunks: set[int] = set()

    def install(self) -> None:
        from repro.analysis import batchsweep, parallel

        probe = self
        original_run_tasks = parallel.run_tasks
        stripe_run = batchsweep.BatchStripe.run

        def timed_stripe(self: Any) -> Any:
            started = time.perf_counter()
            points, stats = stripe_run(self)
            stats["task_s"] = time.perf_counter() - started
            return points, stats

        batchsweep.BatchStripe.run = timed_stripe

        def run_tasks(tasks: Any, **kwargs: Any) -> Any:
            tasks = list(tasks)
            probe.submits, probe.chunks = 0, set()
            started = time.perf_counter()
            results = original_run_tasks(tasks, **kwargs)
            wall = time.perf_counter() - started
            probe.retries += probe.submits - len(probe.chunks)
            busy = sum(
                r.wall_s if hasattr(r, "wall_s") else r[1].get("task_s", 0.0)
                for r in results
            )
            workers = kwargs.get("workers") or parallel.default_workers()
            used = max(1, min(workers, len(tasks)))
            probe.dispatch_s += wall - busy / used
            probe.tasks += len(tasks)
            return results

        replace_everywhere(original_run_tasks, run_tasks)

        class CountingPool(parallel.ProcessPoolExecutor):
            def __init__(self, *args: Any, **kwargs: Any) -> None:
                probe.pools += 1
                super().__init__(*args, **kwargs)

            def submit(self, fn: Any, *args: Any, **kwargs: Any) -> Any:
                probe.submits += 1
                probe.chunks.add(id(args[0]) if args else 0)
                return super().submit(fn, *args, **kwargs)

        parallel.ProcessPoolExecutor = CountingPool

    def metrics(self) -> dict[str, float]:
        return {
            "analysis.parallel.dispatch_s": self.dispatch_s,
            "analysis.parallel.pools_created": self.pools,
            "analysis.parallel.tasks": self.tasks,
            "analysis.parallel.retries": self.retries,
        }


def calibration_s(samples: int = 3, iterations: int = 1_000_000) -> float:
    """Median time of a fixed pure-Python loop: the machine reference."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        total = 0
        for i in range(iterations):
            total += i * i % 7
        times.append(time.perf_counter() - started)
    times.sort()
    return times[len(times) // 2]


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its waited-for children."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0

