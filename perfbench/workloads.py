"""The four workloads: seeded inputs, one round of operations, and checks.

A workload object is built once per interpreter (that is the set-up the
benchmark times), then :meth:`run_round` is called until the run's time is
spent.  Every round attempts the same operations, so the share of failed
operations is the same in every run whatever its length.  The program is
driven only through ``repro.core.runner.run``,
``repro.analysis.parallel.sweep_parallel(batch=True)`` and
``repro.service.Scheduler.serve``; everything it receives is generated
here from the seed.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any

import checks
from repro.adversary.standard import (
    ComposedAdversary,
    EquivocatingTransmitter,
    RandomizedAdversary,
)
from repro.algorithms.registry import get
from repro.analysis.parallel import FAULT_FREE, sweep_parallel
from repro.core.runner import run
from repro.core.validation import check_byzantine_agreement
from repro.service import AgreementRequest, ScheduledRequest, Scheduler, reset_worker_cache
from repro.transport.faults import (
    CrashFault,
    FaultPlan,
    LinkDrop,
    Partition,
    ReceiveOmission,
    SendOmission,
)
from repro.transport.faulty import FaultyTransport

#: Pool size: the CLI default on a 2-core machine, never above the cores.
WORKERS = min(2, os.cpu_count() or 1)

#: Cap on violation strings kept per run (the count is what matters).
MAX_ERRORS = 20


@dataclass
class Tally:
    """What one interpreter's timed phase produced."""

    attempted: int = 0
    failed: int = 0
    #: Messages sent by correct processors in executed (not replicated) runs.
    messages: int = 0
    latencies: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: ``(operations, messages, seconds)`` of every round.
    rounds: list[tuple[int, int, float]] = field(default_factory=list)

    def error(self, found: list[str]) -> None:
        room = MAX_ERRORS - len(self.errors)
        if found and room > 0:
            self.errors.extend(found[:room])


# ---------------------------------------------------------------- adversaries

@dataclass(frozen=True)
class AdversarySpec:
    """A picklable recipe for a seeded Byzantine coalition of ``t`` processors.

    ``equivocate``: the transmitter tells each processor its own value, and
    the other ``t - 1`` faulty processors drop and garble at random.
    ``random``: ``t`` processors drop what they hear and say, at random,
    and now and then send junk.
    """

    kind: str
    faulty: tuple[int, ...]
    seed: int
    value_for: tuple[tuple[int, Any], ...] = ()

    def __call__(self, algorithm: Any) -> Any:
        if self.kind == "random":
            return RandomizedAdversary(self.faulty, self.seed)
        parts = [EquivocatingTransmitter(checks.TRANSMITTER, dict(self.value_for))]
        others = tuple(p for p in self.faulty if p != checks.TRANSMITTER)
        if others:
            parts.append(RandomizedAdversary(others, self.seed))
        return ComposedAdversary(parts)

    @property
    def transmitter_correct(self) -> bool:
        return checks.TRANSMITTER not in self.faulty


def seeded_adversary(
    rng: random.Random, kind: str, n: int, t: int, values: list[Any], span: int | None = None
) -> AdversarySpec:
    """A seeded coalition inside ``range(n)``; an equivocating transmitter
    assigns values to processors ``1 .. span - 1`` (default ``n``)."""
    if kind == "random":
        return AdversarySpec("random", tuple(sorted(rng.sample(range(n), t))), rng.randrange(1 << 31))
    others = sorted(rng.sample(range(1, n), t - 1))
    value_for = tuple((p, rng.choice(values[:2])) for p in range(1, span or n))
    return AdversarySpec("equivocate", (0, *others), rng.randrange(1 << 31), value_for)


def domain_values(algorithm: Any, rng: random.Random, count: int) -> list[Any]:
    """*count* distinct legal inputs: the binary domain, or seeded integers."""
    if algorithm.value_domain is not None:
        return sorted(algorithm.value_domain, key=repr)
    return rng.sample(range(1_000_000), count)


# ----------------------------------------------------------------- zoo-scalar

#: The nine exact-BA algorithms at sizes where each does real work.
ZOO = (
    ("dolev-strong", 12, 3, {}),
    ("active-set", 16, 3, {}),
    ("oral-messages", 8, 2, {}),
    ("algorithm-1", 13, 6, {}),
    ("algorithm-2", 9, 4, {}),
    ("algorithm-3", 40, 3, {"s": 4}),
    ("algorithm-5", 25, 3, {}),
    ("informed-algorithm-2", 20, 3, {}),
    ("phase-king", 17, 4, {}),
)
#: Fault-free runs per algorithm and round, and as many adversarial ones.
ZOO_VARIANTS = 4


class ZooScalar:
    """Closed loop of ``run`` calls with the history recorded.

    Per algorithm and round: :data:`ZOO_VARIANTS` fault-free runs and as
    many against seeded coalitions of ``t`` processors (half with an
    equivocating transmitter, half dropping and garbling at random).
    """

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.cases: list[tuple[Any, str, int, int, int | None, Any, AdversarySpec | None]] = []
        for name, n, t, params in ZOO:
            algorithm = get(name)(n, t, **params)
            values = domain_values(algorithm, rng, 4)
            s = params.get("s")
            for _ in range(ZOO_VARIANTS):
                self.cases.append((algorithm, name, n, t, s, rng.choice(values), None))
            for kind in ("equivocate", "random") * (ZOO_VARIANTS // 2):
                spec = seeded_adversary(rng, kind, n, t, values)
                self.cases.append((algorithm, name, n, t, s, rng.choice(values), spec))
        self.sample: list[Any] = []

    def run_round(self, tally: Tally, timer: Any) -> None:
        for algorithm, name, n, t, s, value, spec in self.cases:
            adversary = spec(algorithm) if spec is not None else None
            started = time.perf_counter()
            result = run(algorithm, value, adversary)
            verdict = check_byzantine_agreement(result)
            tally.latencies.append(time.perf_counter() - started)
            tally.attempted += 1
            tally.messages += result.metrics.messages_by_correct
            if not verdict.ok:
                tally.failed += 1
            with timer("bench_check"):
                own = checks.ba_violations(
                    result.decisions,
                    value,
                    transmitter_correct=spec is None or spec.transmitter_correct,
                )
                found = own + checks.bound_violations(
                    name, n, t, s, result.metrics.messages_by_correct,
                    result.metrics.last_active_phase,
                )
                found += checks.ledger_violations(
                    result.history, result.faulty, checks.ledger_of(result.metrics)
                )
                if verdict.ok == bool(own):
                    found.append(f"program verdict ok={verdict.ok} disagrees")
                tally.error([f"{name}: {f}" for f in found])
            if len(self.sample) < len(self.cases):
                self.sample.append((name, n, t, s, value, spec, result))

    def final_checks(self, tally: Tally) -> None:
        tally.error(negative_controls_zoo(self.sample))


def negative_controls_zoo(sample: list[Any]) -> list[str]:
    """Corrupted copies of real runs that each check must reject."""
    missed = []
    for name, n, t, s, value, spec, result in sample:
        transmitter_correct = spec is None or spec.transmitter_correct
        flipped = dict(result.decisions)
        pid = max(flipped)
        flipped[pid] = ("corrupt", flipped[pid])
        if not checks.ba_violations(flipped, value, transmitter_correct=transmitter_correct):
            missed.append(f"agreement control accepted on {name}")
        if transmitter_correct:
            wrong = {p: ("other", value) for p in result.decisions}
            if not checks.ba_violations(wrong, value, transmitter_correct=True):
                missed.append(f"validity control accepted on {name}")
        ledger = checks.ledger_of(result.metrics)
        ledger["signatures"] += 1
        if not checks.ledger_violations(result.history, result.faulty, ledger):
            missed.append(f"signature recount control accepted on {name}")
        bounds = checks.paper_bounds(name, n, t, s)
        if bounds is not None:
            over = int(bounds[0]) + 1
            if not checks.bound_violations(name, n, t, s, over, 1):
                missed.append(f"message bound control accepted on {name}")
            if not checks.bound_violations(name, n, t, s, 0, bounds[1] + 1):
                missed.append(f"phase bound control accepted on {name}")
    return missed


# ------------------------------------------------------------- sweep-distinct

#: Kernel algorithms (phase king, oral messages) and digest-table algorithms
#: (Dolev-Strong, active set) on distinct multivalued inputs.
SWEEP_DISTINCT = (
    ("phase-king", 13, 3, {}),
    ("oral-messages", 7, 2, {}),
    ("dolev-strong", 10, 3, {}),
    ("active-set", 13, 3, {}),
)
#: The paper's algorithms swept over seeded adversary columns.
SWEEP_ADVERSARIAL = (
    ("algorithm-1", 5, 2, {}),
    ("algorithm-2", 5, 2, {}),
    ("algorithm-3", 30, 2, {"s": 4}),
    ("algorithm-5", 16, 2, {}),
)
SWEEP_VALUES = 48
SWEEP_COLUMNS = 8


def factory(name: str, n: int, t: int, params: dict[str, Any]) -> Any:
    return functools.partial(get(name).build, n, t, **params)


class SweepDistinct:
    """Each round: two ``sweep_parallel(batch=True)`` calls with nothing to
    merge — distinct inputs for the kernel and digest-table groups, and
    adversary columns (never deduplicated) for the binary algorithms."""

    def __init__(self, seed: int, workers: int = WORKERS) -> None:
        rng = random.Random(seed)
        self.workers = workers
        self.distinct = [(dict(n=n, t=t, **p), factory(name, n, t, p)) for name, n, t, p in SWEEP_DISTINCT]
        self.values = rng.sample(range(1_000_000), SWEEP_VALUES)
        self.adversarial = [(dict(n=n, t=t, **p), factory(name, n, t, p)) for name, n, t, p in SWEEP_ADVERSARIAL]
        self.columns = []
        for index in range(SWEEP_COLUMNS):
            # One column serves every configuration: faulty pids inside the
            # smallest one, equivocation over every processor of the largest.
            kind = ("equivocate", "random")[index % 2]
            spec = seeded_adversary(rng, kind, 5, 2, [0, 1], span=30)
            self.columns.append((f"{kind}-{index}", spec))
        self.points: list[Any] = []
        self.rng = rng

    def run_round(self, tally: Tally, timer: Any) -> None:
        started = time.perf_counter()
        first = sweep_parallel(self.distinct, self.values, FAULT_FREE, batch=True, workers=self.workers)
        second = sweep_parallel(self.adversarial, (0, 1), self.columns, batch=True, workers=self.workers)
        elapsed = time.perf_counter() - started
        points = first + second
        tally.latencies.append(elapsed)
        tally.attempted += len(points)
        seen: set[Any] = set()
        with timer("bench_check"):
            for point in points:
                if not point.agreement_ok:
                    tally.failed += 1
                key = (point.algorithm, point.params, point.adversary, repr(point.value))
                if key not in seen:
                    seen.add(key)
                    tally.messages += point.messages
                tally.error(point_violations(point))
        if not self.points:
            self.points = points

    def final_checks(self, tally: Tally) -> None:
        """Seeded sample of batch and kernel points against scalar re-runs."""
        factories = {name: factory(name, n, t, p) for name, n, t, p in SWEEP_DISTINCT + SWEEP_ADVERSARIAL}
        columns = dict(self.columns)
        sample = self.rng.sample(self.points, 8)
        for point in sample:
            algorithm = factories[point.algorithm]()
            spec = columns.get(point.adversary)
            result = run(algorithm, point.value, spec(algorithm) if spec else None)
            found = checks.counter_violations(
                f"{point.algorithm} {point.adversary} v={point.value}",
                {"messages": point.messages, "signatures": point.signatures,
                 "phases_used": point.phases_used},
                {"messages": result.metrics.messages_by_correct,
                 "signatures": result.metrics.signatures_by_correct,
                 "phases_used": result.metrics.last_active_phase},
            )
            own = checks.ba_violations(
                result.decisions, point.value,
                transmitter_correct=spec is None or spec.transmitter_correct,
            )
            found += own
            if point.agreement_ok != (not own):
                found.append(f"{point.algorithm}: agreement_ok {point.agreement_ok} but re-run finds {own}")
            found += checks.ledger_violations(result.history, result.faulty, checks.ledger_of(result.metrics))
            tally.error(found)
            # Negative control: the comparison must notice one extra message.
            if not checks.counter_violations("control", {"messages": point.messages + 1},
                                             {"messages": result.metrics.messages_by_correct}):
                tally.error(["re-run comparison control accepted"])
        for point in self.points:
            if checks.paper_bounds(point.algorithm, point.n, point.t, point.param("s")) or (
                checks.fault_free_messages(point.algorithm, point.n, point.t) is not None
            ):
                heavy = dataclasses.replace(point, messages=10**6)
                if not point_violations(heavy):
                    tally.error([f"message-count control accepted on {point.algorithm}"])


def point_violations(point: Any) -> list[str]:
    """Paper bounds, and the closed-form fault-free counts of the kernels."""
    found = checks.bound_violations(
        point.algorithm, point.n, point.t, point.param("s"), point.messages, point.phases_used
    )
    exact = checks.fault_free_messages(point.algorithm, point.n, point.t)
    if exact is not None and point.messages != exact:
        found.append(f"{point.algorithm} n={point.n}: {point.messages} messages, closed form {exact}")
    return found


# ------------------------------------------------------------ service traffic

#: Request mix: ``(algorithm, n, t, params, weight)``.  Binary inputs for
#: the exact family; the approximate configuration carries seeded inputs.
SERVICE_MIX = (
    ("algorithm-3", 60, 2, (("s", 8),), 3),
    ("phase-king", 24, 2, (), 3),
    ("dolev-strong", 16, 2, (), 1),
    ("midpoint-approx", 8, 2, None, 1),
    ("ben-or", 11, 2, (("coin_scope", "common"),), 1),
)
#: Share of exact-family requests that carry a seeded benign fault plan.
FAULT_SHARE = 0.2

#: Single-processor partitions on Algorithm 3 (n=60, t=2, s=8) that every
#: round carries whatever the seed: ``(value, cut processor, first phase,
#: last phase, hits the misattribution)``.
#: ``excused_processors`` blames the senders whose messages to the cut
#: processor were dropped, never the cut processor, so the runs marked
#: ``True`` fail as ``ba_violation`` although BA holds among everyone but
#: the cut group.  The other two are single partitions it gets right.
KNOWN_PARTITIONS = (
    (0, 21, 4, 5, True),
    (1, 21, 4, 5, True),
    (0, 13, 5, 6, True),
    (1, 1, 1, 2, True),
    (0, 0, 1, 2, False),
    (1, 40, 2, 3, False),
)


def benign_plan(rng: random.Random, n: int, t: int, phases: int) -> FaultPlan:
    """Crash, omission and link faults on at most ``t`` processors.

    Each kind's effect stays with one processor, which the service's
    fault attribution excuses correctly; partitions are kept to the fixed
    :data:`KNOWN_PARTITIONS` so that the failed share never depends on
    the seed.
    """
    faults: list[Any] = []
    for pid in rng.sample(range(n), rng.randint(1, t)):
        kind = rng.choice(("crash", "omission_send", "omission_recv", "drop"))
        first = rng.randint(1, phases)
        if kind == "crash":
            recovery = rng.randint(first + 1, phases) if phases - first >= 2 and rng.random() < 0.3 else None
            faults.append(CrashFault(pid=pid, phase=first, recovery_phase=recovery))
        elif kind == "omission_send":
            faults.append(SendOmission(pid=pid, rate=rng.choice((0.5, 1.0)), first=first))
        elif kind == "omission_recv":
            faults.append(ReceiveOmission(pid=pid, rate=rng.choice((0.5, 1.0)), first=first))
        else:
            dst = rng.choice([q for q in range(n) if q != pid])
            faults.append(LinkDrop(src=pid, dst=dst, first=first))
    return FaultPlan(faults=tuple(faults), seed=rng.randrange(1 << 31))


def known_requests() -> list[tuple[AgreementRequest, bool]]:
    """The seed-independent partition requests, with whether each is
    expected to hit the misattribution."""
    return [
        (AgreementRequest(-1, "algorithm-3", 60, 2, value, (("s", 8),),
                          FaultPlan(faults=(Partition(group=(cut,), first=first, last=last),))),
         expected)
        for value, cut, first, last, expected in KNOWN_PARTITIONS
    ]


def apportion(total: int, weights: list[int]) -> list[int]:
    """Split *total* in proportion to *weights* (largest remainder), so a
    round's make-up is the same for every seed."""
    exact = [total * w / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def service_requests(seed: int, count: int) -> tuple[list[AgreementRequest], set[int]]:
    """*count* requests (the known partitions among them) and the ids of
    those expected to fail.  How many requests each configuration gets,
    and how many of those carry fault plans, is fixed; the seed draws the
    order, the inputs, the plans and the coin seeds."""
    rng = random.Random(seed)
    mix = []
    for name, n, t, params, weight in SERVICE_MIX:
        if params is None:
            inputs = tuple(round(rng.uniform(0.0, 100.0), 3) for _ in range(n))
            params = (("eps", 0.25), ("inputs", inputs))
        mix.append((name, n, t, params, get(name)(n, t, **dict(params))))
    known = known_requests()
    labels: list[Any] = [("known", k) for k in known]
    for item, share in zip(mix, apportion(count - len(known), [m[4] for m in SERVICE_MIX])):
        faulted = round(share * FAULT_SHARE) if get(item[0]).family == "exact" else 0
        labels += [("mix", item, True)] * faulted + [("mix", item, False)] * (share - faulted)
    rng.shuffle(labels)
    requests: list[AgreementRequest] = []
    expected_failures: set[int] = set()
    for index, label in enumerate(labels):
        if label[0] == "known":
            template, fails = label[1]
            requests.append(dataclasses.replace(template, request_id=index))
            if fails:
                expected_failures.add(index)
            continue
        (name, n, t, params, prototype), faulted = label[1], label[2]
        plan = benign_plan(rng, n, t, prototype.num_phases()) if faulted else None
        coin_seed = rng.randrange(1 << 62) if get(name).family == "randomized" else None
        requests.append(AgreementRequest(index, name, n, t, rng.randint(0, 1), params, plan, coin_seed))
    return requests, expected_failures


def outcome_violations(request: AgreementRequest, outcome: Any) -> list[str]:
    """The independent checks a service outcome must pass."""
    family = get(request.algorithm).family
    params = dict(request.params)
    label = f"request {request.request_id} {request.algorithm}"
    if family == "approx":
        found = checks.epsilon_violations(outcome.decided, params["eps"], params["inputs"])
    elif family == "randomized":
        found = checks.single_value_violations(outcome.decided)
    else:
        found = checks.decided_violations(
            outcome.decided, request.value,
            transmitter_unexcused=checks.TRANSMITTER not in outcome.excused,
        )
        found += checks.bound_violations(request.algorithm, request.n, request.t,
                                         params.get("s"), outcome.messages, outcome.phases_used)
        exact = checks.fault_free_messages(request.algorithm, request.n, request.t)
        if exact is not None and request.fault_plan is None and outcome.messages != exact:
            found.append(f"{outcome.messages} messages, closed form {exact}")
    return [f"{label}: {f}" for f in found]


def plan_excused(plan: FaultPlan | None) -> frozenset[int]:
    """The processors a fault plan names: the only ones whose behaviour a
    Byzantine adversary would have to take over to produce the run."""
    if plan is None:
        return frozenset()
    named: set[int] = set()
    for fault in plan.faults:
        if fault.kind == "partition":
            named.update(fault.group)
        elif fault.kind == "drop":
            named.add(fault.src)
        else:
            named.add(fault.pid)
    return frozenset(named)


def scalar_rerun(request: AgreementRequest) -> Any:
    """One request re-run through the scalar runner, history recorded."""
    algorithm = get(request.algorithm)(request.n, request.t, **dict(request.params))
    transport = FaultyTransport(request.fault_plan) if request.fault_plan is not None else None
    coins = algorithm.make_coin_source(request.coin_seed) if request.coin_seed is not None else None
    return algorithm, run(algorithm, request.value, transport=transport, coins=coins)


def rerun_violations(request: AgreementRequest, outcome: Any) -> list[str]:
    """A service outcome against a scalar re-run, with the benchmark's own
    reading of the fault plan."""
    algorithm, result = scalar_rerun(request)
    label = f"request {request.request_id} {request.algorithm}"
    excused = set(outcome.excused)
    rerun_decided = tuple(sorted({v for p, v in result.decisions.items() if p not in excused}, key=repr))
    found = checks.counter_violations(
        label,
        {"messages": outcome.messages, "signatures": outcome.signatures,
         "phases_used": outcome.phases_used, "decided": outcome.decided},
        {"messages": result.metrics.messages_by_correct,
         "signatures": result.metrics.signatures_by_correct,
         "phases_used": result.metrics.last_active_phase, "decided": rerun_decided},
    )
    found += checks.ledger_violations(result.history, (), checks.ledger_of(result.metrics))
    if get(request.algorithm).family == "exact":
        found += checks.ba_violations(result.decisions, request.value, transmitter_correct=True,
                                      excused=plan_excused(request.fault_plan))
    return found


class ServiceTraffic:
    """Requests served by :class:`repro.service.Scheduler`, in rounds.

    ``service-burst``: every request of a round is due at once and the
    scheduler has :data:`WORKERS` pool workers.  ``service-open``: Poisson
    arrivals at :attr:`rate` requests/s, one in-process worker, default
    scheduler settings.
    """

    def __init__(
        self, seed: int, *, count: int, rate: float | None, workers: int, cold_rounds: bool = False
    ) -> None:
        self.seed = seed
        #: Drop the in-process setup cache before each round, so that an
        #: in-process round starts as cold as the forked pool workers do.
        self.cold_rounds = cold_rounds
        self.requests, self.expected_failures = service_requests(seed, count)
        arrivals = [0.0] * count
        if rate is not None:
            # A Poisson process conditioned on `count` arrivals within
            # count / rate seconds: sorted uniform arrival times.  Every
            # seed then offers exactly the nominal rate over the round.
            rng = random.Random(seed ^ 0x5EED)
            arrivals = sorted(rng.uniform(0.0, count / rate) for _ in range(count))
        self.schedule = [ScheduledRequest(a, r) for a, r in zip(arrivals, self.requests)]
        self.rate = rate
        self.workers = workers
        self.report: Any = None
        self.reports: list[Any] = []

    def run_round(self, tally: Tally, timer: Any) -> None:
        if self.cold_rounds:
            reset_worker_cache()
        report = Scheduler(workers=self.workers).serve(self.schedule)
        self.reports.append(report)
        tally.attempted += len(report.outcomes)
        with timer("bench_check"):
            for request, outcome in zip(self.requests, report.outcomes):
                tally.latencies.append(outcome.latency_s)
                if not outcome.replicated:
                    tally.messages += outcome.messages
                if outcome.request_id != request.request_id:
                    tally.error([f"outcome {outcome.request_id} returned for request {request.request_id}"])
                elif not outcome.ok:
                    tally.failed += 1
                    if request.request_id not in self.expected_failures:
                        tally.error([f"request {request.request_id} {request.algorithm} failed: {outcome.verdict}"])
                else:
                    tally.error(outcome_violations(request, outcome))
        if self.report is None:
            self.report = report

    def final_checks(self, tally: Tally) -> None:
        """Scalar re-runs of a seeded sample (batch, kernel and replicated
        outcomes among them), the known partitions, and negative controls."""
        rng = random.Random(self.seed)
        outcomes = self.report.outcomes
        pairs = list(zip(self.requests, outcomes))
        kinds = [
            [p for p in pairs if p[1].kernel],
            [p for p in pairs if p[1].replicated and p[0].fault_plan is None],
            [p for p in pairs if p[0].fault_plan is not None and p[1].ok],
            [p for p in pairs if get(p[0].algorithm).family != "exact"],
        ]
        for group in kinds:
            for request, outcome in rng.sample(group, min(2, len(group))):
                tally.error(rerun_violations(request, outcome))
        for request, outcome in pairs:
            if request.request_id in self.expected_failures:
                _, result = scalar_rerun(request)
                cut = plan_excused(request.fault_plan)
                found = checks.ba_violations(result.decisions, request.value,
                                             transmitter_correct=True, excused=cut)
                tally.error([f"known partition request {request.request_id}: {f}" for f in found])
        tally.error(negative_controls_service(pairs))


def negative_controls_service(pairs: list[Any]) -> list[str]:
    """Corrupted copies of real outcomes that each check must reject."""
    missed = []
    for request, outcome in pairs:
        if not outcome.ok:
            continue
        family = get(request.algorithm).family
        if family == "exact":
            split = dataclasses.replace(outcome, decided=(0, 1))
            if not outcome_violations(request, split):
                missed.append("agreement control accepted")
            if checks.TRANSMITTER not in outcome.excused:
                wrong = dataclasses.replace(outcome, decided=(1 - request.value,))
                if not outcome_violations(request, wrong):
                    missed.append("validity control accepted")
            if request.algorithm == "algorithm-3":
                heavy = dataclasses.replace(outcome, messages=10**6)
                if not outcome_violations(request, heavy):
                    missed.append("Lemma 1 control accepted")
        elif family == "approx":
            lo = min(dict(request.params)["inputs"])
            for decided in ((outcome.decided[0], outcome.decided[0] + 1.0), (lo - 1.0,)):
                if not outcome_violations(request, dataclasses.replace(outcome, decided=decided)):
                    missed.append("eps-agreement control accepted")
        else:
            if not outcome_violations(request, dataclasses.replace(outcome, decided=(0, 1))):
                missed.append("Ben-Or single-value control accepted")
        if not checks.counter_violations("control", {"messages": outcome.messages},
                                         {"messages": outcome.messages + 1}):
            missed.append("re-run comparison control accepted")
    return sorted(set(missed))


# --------------------------------------------------------------- the registry

#: Requests per service round, and the open-loop offered rate (requests/s).
BURST_REQUESTS = 600
OPEN_REQUESTS = 120
OPEN_RATE = 8.0


def build(name: str, seed: int, *, in_process: bool = False) -> Any:
    """Set up workload *name*.  ``in_process`` keeps pool tasks in this
    interpreter, which the traced run needs to see inside them."""
    workers = 1 if in_process else WORKERS
    if name == "zoo-scalar":
        return ZooScalar(seed)
    if name == "sweep-distinct":
        return SweepDistinct(seed, workers)
    if name == "service-burst":
        return ServiceTraffic(seed, count=BURST_REQUESTS, rate=None, workers=workers, cold_rounds=in_process)
    if name == "service-open":
        return ServiceTraffic(seed, count=OPEN_REQUESTS, rate=OPEN_RATE, workers=1)
    raise KeyError(name)


def service_layers(workload: Any) -> dict[str, float]:
    """Scheduler figures read off the service reports of a traced run."""
    reports = getattr(workload, "reports", None)
    if not reports:
        return {}
    waits = sorted(o.queue_wait_s for r in reports for o in r.outcomes)
    waves = busy = lag = wall = 0.0
    for report in reports:
        windows: dict[tuple[float, float], float] = {}
        for outcome in report.outcomes:
            window = (outcome.start_s, outcome.finish_s)
            windows[window] = min(windows.get(window, outcome.arrival_s), outcome.arrival_s)
        waves += report.stats.waves
        busy += sum(finish - start for start, finish in windows)
        # How late each wave went out after its first request was due.
        lag += sum(start - first for (start, _), first in windows.items())
        wall += report.stats.wall_s
    return {
        "service.waves": waves,
        "service.queue_wait_p50_s": waits[len(waits) // 2],
        "service.dispatch_lag_s": lag / waves,
        "service.busy_share": busy / wall,
        "service.setup_cache_hits": float(sum(r.stats.setup_hits for r in reports)),
        "service.setup_cache_misses": float(sum(r.stats.setup_misses for r in reports)),
    }
