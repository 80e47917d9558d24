"""List the service requests that fail on the partition misattribution.

    python3 perfbench/known_faults.py --seed 1 [--workload service-open]

Serves the workload's request set for the seed once, then prints every
request whose verdict is not ``ok``.  For each it shows the fault plan,
the processors the program excused (``excused_processors``: the senders
whose messages were dropped at the cut) and a scalar re-run judged with
the benchmark's own excused set, the cut group, under which Byzantine
Agreement holds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from repro.transport import excused_processors  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=("service-burst", "service-open"), default="service-burst")
    args = parser.parse_args()

    traffic = workloads.build(args.workload, args.seed, in_process=True)
    traffic.schedule = [workloads.ScheduledRequest(0.0, r) for r in traffic.requests]
    report = workloads.Scheduler(workers=1).serve(traffic.schedule)
    failures = [(r, o) for r, o in zip(traffic.requests, report.outcomes) if not o.ok]
    print(f"{args.workload} seed {args.seed}: {len(failures)} of {len(report.outcomes)} requests failed")
    unexplained = 0
    for request, outcome in failures:
        _, result = workloads.scalar_rerun(request)
        cut = workloads.plan_excused(request.fault_plan)
        found = checks.ba_violations(result.decisions, request.value, transmitter_correct=True, excused=cut)
        blamed = sorted(excused_processors(result.fault_events))
        print(f"  request {request.request_id}: {request.algorithm} n={request.n} t={request.t} "
              f"value={request.value} {request.fault_plan.describe() if request.fault_plan else 'no faults'}")
        print(f"    program verdict: {outcome.verdict[:160]}")
        print(f"    program excused {blamed}; benchmark excuses the cut group {sorted(cut)}: "
              f"{'; '.join(found) if found else 'Byzantine Agreement holds'}")
        if found or request.request_id not in traffic.expected_failures:
            unexplained += 1
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
