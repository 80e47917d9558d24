"""One fresh interpreter of a benchmark run.

Usage (from ``run.py``): ``child.py WORKLOAD SEED MODE SECONDS``, where
MODE is ``setup`` (set up, report, exit), ``timed`` (the untraced timed
phase), ``probe`` (untraced, with the pool-dispatch probe) or ``traced``
(spans at every layer boundary, pool tasks run in-process).  The child
prints ``READY`` once set-up is done — the parent times interpreter start
to that line — and a JSON result as its last line.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    name, seed, mode, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4])

    import tracer as tracing
    import workloads

    workload = workloads.build(name, seed, in_process=mode == "traced")
    print("READY", flush=True)
    if mode == "setup":
        return 0

    result: dict = {}
    timer = tracing.no_span
    spans = probe = None
    if mode == "probe":
        probe = tracing.PoolProbe()
        probe.install()
    elif mode == "traced":
        spans = tracing.Tracer()
        tracing.install(spans)
        timer = spans.span

    if name == "service-open":
        nominal = workloads.OPEN_REQUESTS / workloads.OPEN_RATE
        rounds = max(1, int(seconds // nominal))
    else:
        rounds = None
    tally = workloads.Tally()
    started = time.perf_counter()
    with timer("root"):
        while True:
            round_started = time.perf_counter()
            attempted, messages = tally.attempted, tally.messages
            workload.run_round(tally, timer)
            tally.rounds.append((tally.attempted - attempted, tally.messages - messages,
                                 time.perf_counter() - round_started))
            if rounds is not None:
                if len(tally.rounds) >= rounds:
                    break
            elif time.perf_counter() - started >= seconds:
                break
    wall = time.perf_counter() - started
    if spans is not None:
        spans.close()

    workload.final_checks(tally)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        messages=tally.messages,
        timed_s=wall,
        rounds=tally.rounds,
        latencies=tally.latencies,
        errors=tally.errors,
        peak_rss_mb=tracing.peak_rss_mb(),
    )
    if probe is not None:
        result["layers"] = probe.metrics()
    if spans is not None:
        layers, findings = tracing.layer_metrics(spans, wall)
        layers.update(workloads.service_layers(workload))
        result["layers"] = layers
        result["errors"] += findings
        result["spans"] = spans.closed_at
        out = sys.argv[5] if len(sys.argv) > 5 else None
        if out:
            spans.dump(out)
    result["calibration_s"] = tracing.calibration_s()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
