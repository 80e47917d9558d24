"""The repository's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload zoo-scalar --seed 1 --seconds 10 --trace 0

Run from the repository root.  Every timed phase runs in a fresh
interpreter (see ``child.py``), so process-global state starts cold, as
for a CLI user.  ``--trace 0`` prints the end-to-end metrics; ``--trace
1`` prints the per-layer metrics of a traced run next to an untraced one.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("zoo-scalar", "sweep-distinct", "service-burst", "service-open")

#: Set-up is timed in every child; these extra children only set up.
SETUP_ONLY_CHILDREN = 7
#: Children that run the timed phase; the run's seconds are split among them.
TIMED_CHILDREN = 2
#: The whole run is abandoned (non-zero exit, no result) after this long.
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "messages_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "algorithms.handler_s": ("s", "lower"),
    "algorithms.handler_calls": ("count", "lower"),
    "adversary.turn_s": ("s", "lower"),
    "adversary.faulty_sends": ("count", "lower"),
    "core.metrics.record_send_s": ("s", "lower"),
    "core.metrics.messages": ("count", "lower"),
    "core.metrics.signatures": ("count", "lower"),
    "crypto.sign_s": ("s", "lower"),
    "crypto.verify_s": ("s", "lower"),
    "crypto.digest_s": ("s", "lower"),
    "crypto.sign_calls": ("count", "lower"),
    "crypto.verify_calls": ("count", "lower"),
    "crypto.digest_calls": ("count", "lower"),
    "crypto.digest_table_hits": ("count", "higher"),
    "crypto.digest_table_misses": ("count", "lower"),
    "transport.route_s": ("s", "lower"),
    "transport.envelopes": ("count", "lower"),
    "transport.faults_injected": ("count", "lower"),
    "core.history.append_s": ("s", "lower"),
    "core.history.edges": ("count", "lower"),
    "core.runner.self_s": ("s", "lower"),
    "core.runner.runs": ("count", "lower"),
    "core.batch.engine_s": ("s", "lower"),
    "core.batch.runs": ("count", "higher"),
    "core.batch.executed_runs": ("count", "lower"),
    "core.batch.replicated_runs": ("count", "higher"),
    "core.batch.kernel_runs": ("count", "higher"),
    "core.batch.kernel_s": ("s", "lower"),
    "core.batch.executed_share": ("ratio", "lower"),
    "analysis.parallel.self_s": ("s", "lower"),
    "analysis.parallel.dispatch_s": ("s", "lower"),
    "analysis.parallel.pools_created": ("count", "lower"),
    "analysis.parallel.tasks": ("count", "lower"),
    "analysis.parallel.retries": ("count", "lower"),
    "service.waves": ("count", "lower"),
    "service.wave_loop_s": ("s", "lower"),
    "service.stripe_s": ("s", "lower"),
    "service.queue_wait_p50_s": ("s", "lower"),
    "service.dispatch_lag_s": ("s", "lower"),
    "service.busy_share": ("ratio", "lower"),
    "service.sample_reruns": ("count", "lower"),
    "service.sample_s": ("s", "lower"),
    "service.setup_cache_hits": ("count", "higher"),
    "service.setup_cache_misses": ("count", "lower"),
    "validation.check_s": ("s", "lower"),
    "approx.coin_flips": ("count", "lower"),
    "bench.check_s": ("s", "lower"),
    "machine.calibration_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: Pool figures come from the untraced run (the traced one is in-process).
FROM_PROBE = (
    "analysis.parallel.dispatch_s",
    "analysis.parallel.pools_created",
    "analysis.parallel.tasks",
    "analysis.parallel.retries",
)


class BenchError(Exception):
    """A child failed, or the environment cannot run the benchmark."""


class Deadline(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, mode: str, seconds: float, out: str = "") -> tuple[float, dict]:
    """Run one child; return its set-up time and its JSON result."""
    command = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode, repr(seconds)]
    if out:
        command.append(out)
    started = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env())
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"{mode} child for {workload} exited with code {code}")
    if mode == "setup":
        return setup_s, {}
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} child for {workload} printed no result")
    return setup_s, json.loads(lines[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th decile (linear interpolation); a lone value is its own."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setups: list[float] = []
    spawn(workload, seed, "setup", 0.0)  # page-cache warm-up, not counted
    for _ in range(SETUP_ONLY_CHILDREN):
        setups.append(spawn(workload, seed, "setup", 0.0)[0])
    results = []
    for _ in range(TIMED_CHILDREN):
        setup_s, result = spawn(workload, seed, "timed", seconds / TIMED_CHILDREN)
        setups.append(setup_s)
        results.append(result)
    rounds = [x for r in results for x in r["rounds"]]
    latencies = [x for r in results for x in r["latencies"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "runs_per_s": statistics.median(ops / seconds for ops, _, seconds in rounds),
        "messages_per_s": statistics.median(msgs / seconds for _, msgs, seconds in rounds),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": quantile(latencies, 9),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    calibration = statistics.median(r["calibration_s"] for r in results)
    print(f"machine calibration loop: {calibration:.4f} s (reference only)")
    return summarize(results, metrics, END_TO_END)


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    _, untraced = spawn(workload, seed, "probe", seconds / 2)
    OUT.mkdir(parents=True, exist_ok=True)
    dump = str(OUT / f"spans-{workload}-seed{seed}.npz")
    _, traced = spawn(workload, seed, "traced", seconds / 2, dump)
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(traced["layers"])
    for name in FROM_PROBE:
        layers[name] = untraced["layers"][name]
    runs = layers["core.batch.runs"]
    layers["core.batch.executed_share"] = layers["core.batch.executed_runs"] / runs if runs else 0.0
    layers["trace.wall_s"] = traced["timed_s"]
    untraced_rate = untraced["attempted"] / untraced["timed_s"]
    layers["trace.overhead_s"] = traced["timed_s"] - traced["attempted"] / untraced_rate
    layers["machine.calibration_s"] = statistics.median(
        [untraced["calibration_s"], traced["calibration_s"]]
    )
    print(f"traced run: {traced['attempted']} operations in {traced['timed_s']:.3f} s")
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    return summarize([untraced, traced], layers, units)


def summarize(results: list[dict], values: dict, units: dict) -> dict:
    errors = [e for r in results for e in r["errors"]]
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in results)
    return {
        "correct": not errors and attempted > 0,
        "attempted": attempted,
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def on_deadline(signum: int, frame: object) -> None:
    raise Deadline()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile before any timing, so set-up never pays for it and
    # reads the same whether or not the checkout had bytecode caches.
    if not all(compileall.compile_dir(d, quiet=2) for d in (SRC, HERE)):
        print("perfbench: byte-compilation failed", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        if args.trace:
            result = per_layer(args.workload, args.seed, args.seconds)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds)
    except (BenchError, Deadline, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {args.workload} failed: {error!r}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
