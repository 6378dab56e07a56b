"""One set-up of a workload in a fresh interpreter; prints its seconds.

Set-up is the cold import of ``normprod`` plus one untimed-in-the-run
warm-up operation of each kind, so work a later change defers until
first use still lands here.

    python3 perfbench/coldstart.py <workload>

Expects ``src`` of the checkout on PYTHONPATH (run.py sets it).
"""

import sys
import time


def main(workload: str) -> float:
    start = time.perf_counter()
    import normprod  # noqa: F401  (the cold import being timed)
    import workloads
    for op in workloads.warmups(workload):
        op.call()
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(sys.argv[1])))
