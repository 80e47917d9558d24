"""Output checks computed apart from the program under test.

Nothing here calls the program's validators, bound helpers or payload
walkers: the paper's closed forms are recomputed from ``n``, ``t`` and
``s``, signatures are recounted by a walk of this module's own, and the
agreement, validity and ε-agreement conditions are restated from the
definitions.  Every check function returns a list of violation strings
(empty when the output is right), so a negative control is simply a
corrupted output on which the list must be non-empty.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable, Mapping

from repro.crypto.signatures import Signature

#: The transmitter is processor 0 in every configuration the benchmark runs.
TRANSMITTER = 0


# --------------------------------------------------------------- paper bounds

def paper_bounds(name: str, n: int, t: int, s: int | None) -> tuple[Fraction, int] | None:
    """``(message bound, phase bound)`` from the paper, or ``None``.

    Theorem 3 (Algorithm 1): ``2t² + 2t`` messages, ``t + 2`` phases.
    Theorem 4 (Algorithm 2): ``5t² + 5t`` messages, ``3t + 3`` phases.
    Lemma 1 (Algorithm 3, chain sets of size ``s``):
    ``2n + 4tn/s + 3t²s`` messages, ``t + 2s + 3`` phases.
    """
    if name == "algorithm-1":
        return Fraction(2 * t * t + 2 * t), t + 2
    if name == "algorithm-2":
        return Fraction(5 * t * t + 5 * t), 3 * t + 3
    if name == "algorithm-3":
        assert s is not None, "Lemma 1 needs the chain-set size s"
        return 2 * n + Fraction(4 * t * n, s) + 3 * t * t * s, t + 2 * s + 3
    return None


def bound_violations(
    name: str, n: int, t: int, s: int | None, messages: int, phases: int
) -> list[str]:
    """Messages sent by correct processors and phases used, against the paper."""
    bounds = paper_bounds(name, n, t, s)
    if bounds is None:
        return []
    message_bound, phase_bound = bounds
    found = []
    if messages > message_bound:
        found.append(f"{name} n={n} t={t}: {messages} messages > bound {message_bound}")
    if phases > phase_bound:
        found.append(f"{name} n={n} t={t}: {phases} phases > bound {phase_bound}")
    return found


def fault_free_messages(name: str, n: int, t: int) -> int | None:
    """Exact fault-free message counts for the two kernel algorithms.

    Oral messages OM(t): the transmitter sends ``n - 1`` messages and each
    relay level multiplies by the remaining processors, so the total is
    ``sum_{k=1}^{t+1} prod_{i=1}^{k} (n - i)``.  Phase king: one
    transmitter phase of ``n - 1`` messages, then ``t + 1`` rounds of an
    all-to-all exchange plus the king's broadcast.
    """
    if name == "oral-messages":
        total, level = 0, 1
        for i in range(1, t + 2):
            level *= n - i
            total += level
        return total
    if name == "phase-king":
        return (n - 1) * (1 + (t + 1) * (n + 1))
    return None


# ------------------------------------------------------- signature recounting

def count_signatures(payload: Any) -> int:
    """Signatures appended anywhere inside *payload* (iterative walk)."""
    count = 0
    stack = [payload]
    while stack:
        item = stack.pop()
        if isinstance(item, Signature):
            count += 1
        elif isinstance(item, (tuple, list, set, frozenset)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif hasattr(item, "__dataclass_fields__"):
            stack.extend(getattr(item, name) for name in item.__dataclass_fields__)
    return count


def history_totals(history: Any, faulty: Iterable[int]) -> dict[str, int]:
    """Message and signature counts read off a recorded history.

    Phase 0 (the transmitter's private input) is not a message.  An edge
    label that merges several messages of one phase is a
    ``("composite-label", payloads)`` pair, as the paper's model folds
    everything one processor sends another in a phase into one label.
    """
    faulty = frozenset(faulty)
    totals = {"messages": 0, "signatures": 0, "messages_by_correct": 0,
              "signatures_by_correct": 0}
    for graph in history.phases[1:]:
        for edge in graph.edges():
            label = edge.label
            if (isinstance(label, tuple) and len(label) == 2
                    and label[0] == "composite-label"):
                payloads = label[1]
            else:
                payloads = (label,)
            signatures = sum(count_signatures(p) for p in payloads)
            totals["messages"] += len(payloads)
            totals["signatures"] += signatures
            if edge.src not in faulty:
                totals["messages_by_correct"] += len(payloads)
                totals["signatures_by_correct"] += signatures
    return totals


def ledger_violations(history: Any, faulty: Iterable[int], ledger: Mapping[str, int]) -> list[str]:
    """The recount of a history against the program's metrics ledger."""
    recount = history_totals(history, faulty)
    return [
        f"{key}: history recount {recount[key]} != ledger {ledger[key]}"
        for key in recount
        if recount[key] != ledger[key]
    ]


def ledger_of(metrics: Any) -> dict[str, int]:
    """The ledger counters :func:`ledger_violations` compares against."""
    return {
        "messages": metrics.messages_by_correct + metrics.messages_by_faulty,
        "signatures": metrics.signatures_by_correct + metrics.signatures_by_faulty,
        "messages_by_correct": metrics.messages_by_correct,
        "signatures_by_correct": metrics.signatures_by_correct,
    }


# ------------------------------------------------------------ BA conditions

def ba_violations(
    decisions: Mapping[int, Any],
    value: Any,
    *,
    transmitter_correct: bool,
    excused: Iterable[int] = (),
) -> list[str]:
    """Agreement among the unexcused correct processors, and validity
    whenever the transmitter is correct and unexcused."""
    excused = frozenset(excused)
    held = {pid: d for pid, d in decisions.items() if pid not in excused}
    found = []
    undecided = sorted(pid for pid, d in held.items() if d is None)
    if undecided:
        found.append(f"processors {undecided[:8]} never decided")
    values = {repr(d) for d in held.values() if d is not None}
    if len(values) > 1:
        found.append(f"agreement violated: decided {sorted(values)}")
    if transmitter_correct and TRANSMITTER not in excused:
        wrong = sorted(pid for pid, d in held.items() if d != value or type(d) is not type(value))
        if wrong:
            found.append(f"validity violated: transmitter sent {value!r}, {wrong[:8]} decided otherwise")
    return found


def decided_violations(decided: tuple, value: Any, *, transmitter_unexcused: bool) -> list[str]:
    """The same conditions on a service outcome's set of decided values."""
    if len(decided) != 1 or decided[0] is None:
        return [f"agreement violated: decided {list(decided)!r}"]
    if transmitter_unexcused and decided[0] != value:
        return [f"validity violated: transmitter sent {value!r}, decided {decided[0]!r}"]
    return []


def epsilon_violations(decided: tuple, eps: float, inputs: tuple[float, ...]) -> list[str]:
    """ε-agreement inside the range of the inputs."""
    if not decided or any(not isinstance(v, float) or v != v for v in decided):
        return [f"no finite decision: {list(decided)!r}"]
    found = []
    if max(decided) - min(decided) > eps:
        found.append(f"eps-agreement violated: spread {max(decided) - min(decided)} > {eps}")
    if min(decided) < min(inputs) or max(decided) > max(inputs):
        found.append(f"decision outside input range [{min(inputs)}, {max(inputs)}]")
    return found


def single_value_violations(decided: tuple) -> list[str]:
    """Ben-Or: exactly one binary value decided."""
    if len(decided) != 1 or decided[0] not in (0, 1):
        return [f"Ben-Or decided {list(decided)!r}, not a single binary value"]
    return []


def counter_violations(label: str, seen: Mapping[str, Any], rerun: Mapping[str, Any]) -> list[str]:
    """A batch, kernel or service outcome against its scalar re-run."""
    return [
        f"{label}: {key} {seen[key]!r} != scalar re-run {rerun[key]!r}"
        for key in seen
        if seen[key] != rerun[key] or repr(seen[key]) != repr(rerun[key])
    ]
