#!/usr/bin/env python3
"""Print the verdict of ``solve_lp`` on two seeded families of small LPs.

Each line names one LP solve and gives its status and the ``repr`` of
its value.  Family ``a``: n 2..6, m 1..4, bounds [0, 1..3], coefficients
65% N(0, 1), 20% +-1e-9 and 15% +-1e-6 with 15% zeros, half the rows
tight at an integer point; each LP is solved cold, then one bound is
tightened and the child is solved warm (from the parent's optimal
state) and cold.  Family ``b``: n 2..8, m 2..9, integer coefficients in
[-2, 2] (in 30% of the LPs, 20% of the entries are 1e-9), every row
tight at an integer point; each LP gets a cold solve and a warm child.
LP ``i`` of a family is drawn from its own seed, so a larger ``--count``
keeps every line and adds more.  Two commits give the same LP verdicts
when their outputs are byte-identical.

    python3 scripts/lp_fingerprint.py > a.txt
"""

from __future__ import annotations

import os

# one BLAS thread, as in perfbench/run.py
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from quadfw.lmo import Region, solve_lp


def family_a(rng: np.random.Generator) -> tuple:
    n, m = int(rng.integers(2, 7)), int(rng.integers(1, 5))
    ub = rng.integers(1, 4, size=n).astype(float)
    kind = rng.random((m, n))
    sign = rng.choice([-1.0, 1.0], size=(m, n))
    a = np.where(kind < 0.65, rng.normal(size=(m, n)),
                 np.where(kind < 0.85, 1e-9, 1e-6) * sign)
    a[rng.random((m, n)) < 0.15] = 0.0
    point = rng.integers(0, ub.astype(int) + 1).astype(float)
    slack = np.where(rng.random(m) < 0.5, 0.0, rng.random(m))
    return a, a @ point + slack, rng.normal(size=n), ub


def family_b(rng: np.random.Generator) -> tuple:
    n, m = int(rng.integers(2, 9)), int(rng.integers(2, 10))
    ub = rng.integers(1, 3, size=n).astype(float)
    a = rng.integers(-2, 3, size=(m, n)).astype(float)
    if rng.random() < 0.3:
        a[rng.random((m, n)) < 0.2] = 1e-9
    point = rng.integers(0, ub.astype(int) + 1).astype(float)
    return a, a @ point, rng.integers(-3, 4, size=n).astype(float), ub


FAMILIES = {"a": (family_a, True), "b": (family_b, False)}


def verdicts(name: str, index: int) -> list[str]:
    make, child_cold = FAMILIES[name]
    rng = np.random.default_rng([ord(name), index])
    a, b, c, ub = make(rng)
    lb = np.zeros(len(c))
    parent = solve_lp(c, Region(lb, ub, a, b))
    # tighten one bound by one unit: lower the upper or raise the lower
    j = int(rng.integers(len(c)))
    child_lb, child_ub = lb.copy(), ub.copy()
    if rng.random() < 0.5:
        child_ub[j] -= 1.0
    else:
        child_lb[j] += 1.0
    child = Region(child_lb, child_ub, a, b)
    runs = [("cold", parent)]
    if parent.state is not None:
        runs.append(("warm-child", solve_lp(c, child, start=parent.state)))
    if child_cold:
        runs.append(("cold-child", solve_lp(c, child)))
    return [f"{name}{index} {label} {res.status} {res.value!r}" for label, res in runs]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=20000,
                        help="LPs per family (default 20000, about 100000 lines)")
    args = parser.parse_args(argv)
    for name in FAMILIES:
        for index in range(args.count):
            print("\n".join(verdicts(name, index)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
