#!/usr/bin/env python3
"""Benchmark the portfolio on randomly generated instances.

Generates a mix of binary MIQPs and integer MIQCQPs, solves each with the
portfolio, whose workers run one after the other, scores against the
brute-force oracle, writes one run report per instance and prints the
aggregate Found / TTF / Gap / PI table.

    python3 scripts/random_benchmark.py --instances 20 --time-limit 5 \
        --workers 4 --out-dir reports/
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from quadfw.config import Config
from quadfw.ingest import write_report
from quadfw.metrics import aggregate_table
from quadfw.model import Problem, QuadConstraint, VarKind
from quadfw.oracle import brute_force
from quadfw.portfolio import run_portfolio


def dense_terms(rng: np.random.Generator, n: int, scale: float = 1.0):
    q = rng.normal(scale=scale, size=(n, n))
    q = 0.5 * (q + q.T)
    terms = [(i, i, q[i, i] / 2.0) for i in range(n)]
    terms += [(i, j, q[i, j]) for i in range(n) for j in range(i + 1, n)]
    return terms


def make_instance(rng: np.random.Generator, index: int) -> Problem:
    n = int(rng.integers(5, 13))
    if index % 2 == 0:
        return Problem(
            n=n, terms_obj=dense_terms(rng, n), d=rng.normal(size=n), c0=0.0,
            constraints=[], lb=np.zeros(n), ub=np.ones(n),
            integrality=[VarKind.BINARY] * n, name=f"rand_binqp_{index:03d}",
        )
    n = int(rng.integers(4, 9))
    lb = np.zeros(n)
    ub = rng.integers(2, 4, size=n).astype(float)
    anchor = np.array([float(rng.integers(lb[k], ub[k] + 1)) for k in range(n)])
    cons = []
    for _ in range(int(rng.integers(1, 3))):
        i, j = sorted(rng.integers(0, n, size=2))
        terms = [(int(i), int(j), float(rng.normal()))]
        g = sum(q * anchor[a] * anchor[b] for (a, b, q) in terms)
        cons.append(QuadConstraint(terms, {}, -g - float(rng.uniform(0.5, 2.0))))
    return Problem(
        n=n, terms_obj=dense_terms(rng, n, scale=0.7), d=rng.normal(size=n),
        c0=0.0, constraints=cons, lb=lb, ub=ub,
        integrality=[VarKind.INTEGER] * n, name=f"rand_miqcqp_{index:03d}",
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=20)
    parser.add_argument("--time-limit", type=float, default=5.0)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="reports")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)

    rows = []
    for index in range(args.instances):
        problem = make_instance(rng, index)
        oracle = brute_force(problem)
        config = Config(
            time_limit=args.time_limit,
            workers=args.workers,
            seed=args.seed + index,
            reference=oracle.value,
        )
        report = run_portfolio(problem, config)
        path = out_dir / f"{problem.name}.json"
        path.write_text(write_report(report) + "\n", encoding="utf-8")
        rows.append({
            "instance": problem.name,
            "found": report.status == "feasible",
            "ttf": report.ttf if report.status == "feasible" else None,
            "gap": report.gap,
            "pi": report.primal_integral,
        })
        gap_txt = f"{100 * report.gap:.2f}%" if report.gap is not None else "-"
        print(f"{problem.name}: {report.status} best={report.best_objective} "
              f"oracle={oracle.value} gap={gap_txt}")

    print()
    print(aggregate_table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
