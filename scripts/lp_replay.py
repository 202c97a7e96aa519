#!/usr/bin/env python3
"""Record the LPs of one benchmark pass, replay them and time the replay.

Every ``lmo.solve_lp`` call of one node-limited pass over the named
workload's pool (``Workload.config(index)``, as the benchmark's untraced
solve runs it) is recorded through the module-global name the MIP oracle
calls: the direction, the ``Region`` object itself (so regions that
share a row block still share it), the start state and the result.  The
recorded calls are then replayed ``--repeat`` times without a stop time,
and the script prints the LP count and the best microseconds per LP over
the repeats.  It exits with code 1 if a replayed status or value differs
from the recorded one.

    python3 scripts/lp_replay.py --workload binqp_lin --repeat 5
"""

from __future__ import annotations

import os

# one BLAS thread, as in perfbench/run.py
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import math
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from quadfw import lmo
from quadfw.ingest import parse_canonical
from quadfw.portfolio import run_portfolio
from workloads import WORKLOADS, pool


def record(name: str) -> list[tuple]:
    """(direction, region, start, status, value) of every LP of one pass."""
    workload = WORKLOADS[name]
    calls = []
    real = lmo.solve_lp

    def recorder(direction, region, stop_at=math.inf, start=None):
        res = real(direction, region, stop_at, start)
        calls.append((np.array(direction, dtype=float), region, start, res.status, res.value))
        return res

    lmo.solve_lp = recorder
    try:
        for index, instance in enumerate(pool(workload)):
            run_portfolio(parse_canonical(instance.text), workload.config(index))
    finally:
        lmo.solve_lp = real
    return calls


def replay(calls: list[tuple]) -> tuple[float, list]:
    """Seconds for one replay of every call, and the results."""
    solve_lp = lmo.solve_lp
    started = time.perf_counter()
    results = [solve_lp(direction, region, math.inf, start)
               for direction, region, start, _, _ in calls]
    return time.perf_counter() - started, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--repeat", type=int, default=5,
                        help="replays of the recorded LPs (default 5)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    calls = record(args.workload)
    best = math.inf
    mismatches = 0
    for _ in range(args.repeat):
        seconds, results = replay(calls)
        best = min(best, seconds)
        for index, (call, res) in enumerate(zip(calls, results)):
            if (res.status, res.value) != call[3:]:
                mismatches += 1
                if mismatches <= 5:
                    print(f"LP {index}: recorded {call[3]} {call[4]!r}, "
                          f"replayed {res.status} {res.value!r}")
    print(f"lps {len(calls)}")
    print(f"best_us_per_lp {1e6 * best / max(len(calls), 1):.1f}")
    if mismatches:
        print(f"{mismatches} replayed LPs differ from the recording")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
