#!/usr/bin/env bash
# In-process time of the pdf and cdf-ode benchmark operations, by kind.
#
# Builds each catalogue with perfbench's workloads.build(workload, 1) and
# times every operation's call alone (no check, no tracer): each op's time
# is the best of 7 loops of 20 calls.  For each op kind it prints the
# count and the median and maximum of those times in ms.  The timing
# claims in README come from this script.  Needs numpy, scipy and mpmath
# (perfbench's oracles import it); writes nothing.
#
#   bash repro/time-ops.sh
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
export PYTHONDONTWRITEBYTECODE=1
PYTHONPATH="$root/src:$root/perfbench${PYTHONPATH:+:$PYTHONPATH}" python3 - <<'EOF'
import statistics
import time

import workloads


def best_ms(call, loops=20, repeats=7):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(loops):
            call()
        best = min(best, (time.perf_counter() - started) / loops)
    return 1e3 * best


for workload in ("pdf", "cdf-ode"):
    by_kind = {}
    for op in workloads.build(workload, 1):
        by_kind.setdefault(op.kind, []).append(best_ms(op.call))
    print(f"{workload}:")
    print(f"  {'kind':34s} {'ops':>4s} {'median ms':>10s} {'max ms':>8s}")
    for kind, times in sorted(by_kind.items()):
        print(f"  {kind:34s} {len(times):4d} {statistics.median(times):10.4f} "
              f"{max(times):8.4f}")
EOF
