#!/usr/bin/env python3
"""Compute the best-known references stored in references.json.

    python3 perfbench/make_references.py            # instances without a stored entry
    python3 perfbench/make_references.py --only binqp-003

Runs outside any timed region and is not part of a benchmark run.  For
each instance of every workload pool the reference is the best feasible
point found by

* quadfw itself with a budget far beyond the workloads' (one worker,
  three seeds, a node limit of 60),
* for all-binary instances, an independent multi-start local search
  (best-improvement flips and swaps that keep both linear rows satisfied),
* for mixed instances, a neighbourhood search from quadfw's best point
  that re-solves the continuous part with scipy's SLSQP (scipy is needed
  here only, never by run.py),

re-verified with ``check_feasibility`` and ``eval_objective``.  Brute
force is not needed here: run.py enumerates any instance whose integer
lattice has at most 2^20 points instead of reading this file.  The file
stores the instance fingerprint, so a generator change that alters an
instance makes run.py refuse to score it until this script is rerun.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from quadfw.config import Config  # noqa: E402
from quadfw.ingest import parse_canonical  # noqa: E402
from quadfw.model import Sense, VarKind, assemble_symmetric, check_feasibility, eval_objective  # noqa: E402
from quadfw.portfolio import run_portfolio  # noqa: E402
from workloads import WORKLOADS, pool  # noqa: E402

# budgets the stored references were computed with, far beyond the workloads'
QUADFW_SEEDS = 3
QUADFW_NODES = 60
QUADFW_TIME_LIMIT = 120.0
LOCAL_SEARCH_STARTS = 2000
POLISH_SECONDS = 120.0


def local_search(problem, starts: int, rng: np.random.Generator):
    """Multi-start best-improvement search over flips and swaps for an
    all-binary problem with linear LE rows only."""
    n = problem.n
    # x'Fx equals the objective on binary points (x_i^2 = x_i)
    F = 0.5 * assemble_symmetric(n, problem.terms_obj)
    F[np.diag_indices(n)] += problem.d
    A = np.array([con.b_dense(n) for con in problem.constraints])
    rhs = np.array([-con.c for con in problem.constraints])
    diag = np.diag(F)
    best_x, best_v = None, np.inf
    for _ in range(starts):
        x = np.zeros(n)
        for k in rng.permutation(n):  # random feasible start
            x[k] = 1.0
            if np.any(A @ x > rhs + 1e-9):
                x[k] = 0.0
            elif rng.random() < 0.5:
                x[k] = 0.0
        while True:
            h = F @ x
            act = A @ x
            sign = 1.0 - 2.0 * x
            flip = sign * 2.0 * h + diag
            flip_ok = np.all(act[:, None] + A * sign[None, :] <= rhs[:, None] + 1e-9, axis=0)
            flip = np.where(flip_ok, flip, np.inf)
            # swap i (1 -> 0) with j (0 -> 1)
            ones, zeros = np.flatnonzero(x == 1.0), np.flatnonzero(x == 0.0)
            swap = np.full((1, 1), np.inf)
            if ones.size and zeros.size:
                swap = ((-2.0 * h[ones] + diag[ones])[:, None]
                        + (2.0 * h[zeros] + diag[zeros])[None, :]
                        - 2.0 * F[np.ix_(ones, zeros)])
                new_act = act[:, None, None] - A[:, ones][:, :, None] + A[:, zeros][:, None, :]
                swap = np.where(np.all(new_act <= rhs[:, None, None] + 1e-9, axis=0), swap, np.inf)
            k = int(np.argmin(flip))
            s = np.unravel_index(int(np.argmin(swap)), swap.shape)
            if min(flip[k], swap[s]) >= -1e-12:
                break
            if flip[k] <= swap[s]:
                x[k] = 1.0 - x[k]
            else:
                x[ones[s[0]]], x[zeros[s[1]]] = 0.0, 1.0
        v = float(x @ F @ x)
        if v < best_v:
            best_x, best_v = x.copy(), v
    return best_x


def polish(problem, x0, budget: float):
    """Integer neighbourhood search around ``x0`` for a mixed problem: for
    fixed integers and a fixed zero side of every complementarity pair,
    the continuous part is solved with SLSQP; moves are +-1 on one integer
    and swapping the zero side of one pair.  Needs scipy."""
    from scipy.optimize import minimize

    n = problem.n
    ints = problem.integer_indices()
    q_obj = assemble_symmetric(n, problem.terms_obj)
    pairs, rows = [], []
    for con in problem.constraints:
        if con.sense is Sense.EQ:
            (i, j, _), = con.terms
            pairs.append((i, j))
        else:
            rows.append((assemble_symmetric(n, con.terms), con.b_dense(n), con.c))

    def solve_continuous(fixed_int, zeros, start):
        free = [k for k in range(n) if k not in ints and k not in zeros]
        base = np.zeros(n)
        base[ints] = fixed_int

        def expand(y):
            x = base.copy()
            x[free] = y
            return x

        cons = [{"type": "ineq",
                 "fun": (lambda y, a=a, b=b, c=c: -(0.5 * expand(y) @ a @ expand(y) + b @ expand(y) + c)),
                 "jac": (lambda y, a=a, b=b: -(a @ expand(y) + b)[free])}
                for (a, b, c) in rows]
        y0 = np.clip(start[free], problem.lb[free], problem.ub[free])
        res = minimize(
            lambda y: 0.5 * expand(y) @ q_obj @ expand(y) + problem.d @ expand(y),
            y0, jac=lambda y: (q_obj @ expand(y) + problem.d)[free],
            bounds=list(zip(problem.lb[free], problem.ub[free])),
            constraints=cons, method="SLSQP", options={"maxiter": 200},
        )
        x = expand(np.clip(res.x, problem.lb[free], problem.ub[free]))
        if not check_feasibility(problem, x).feasible:
            return None, np.inf
        return x, eval_objective(problem, x)

    stop = time.perf_counter() + budget
    zeros = {i if abs(x0[i]) <= abs(x0[j]) else j for (i, j) in pairs}
    best_x, best_v = solve_continuous(np.round(x0[ints]), zeros, x0)
    if best_x is None:
        return None
    improved = True
    while improved and time.perf_counter() < stop:
        improved = False
        moves = [("int", t, delta) for t in range(len(ints)) for delta in (-1.0, 1.0)]
        moves += [("pair", t, 0) for t in range(len(pairs))]
        for kind, t, delta in moves:
            fixed = np.round(best_x[ints])
            trial_zeros = set(zeros)
            if kind == "int":
                k = ints[t]
                fixed[t] += delta
                if not problem.lb[k] <= fixed[t] <= problem.ub[k]:
                    continue
            else:
                i, j = pairs[t]
                trial_zeros ^= {i, j}
            x, v = solve_continuous(fixed, trial_zeros, best_x)
            if x is not None and v < best_v - 1e-9:
                best_x, best_v, zeros, improved = x, v, trial_zeros, True
            if time.perf_counter() >= stop:
                break
    return best_x


def quadfw_best(inst, seeds: int, nodes: int, time_limit: float):
    best = None
    for seed in range(seeds):
        config = Config(time_limit=time_limit, workers=1, node_limit=nodes, seed=1000 + seed)
        _, traces = run_portfolio(parse_canonical(inst.text), config, return_details=True)
        for trace in traces:
            if trace.incumbent_point is not None:
                if best is None or trace.incumbent_value < eval_objective(inst.problem, best):
                    best = trace.incumbent_point
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default=None, help="recompute one instance")
    args = parser.parse_args()

    path = HERE / "references.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    instances = {}
    for workload in WORKLOADS.values():
        for inst in pool(workload):
            instances[inst.name] = inst
    for name, inst in sorted(instances.items()):
        if args.only and name != args.only:
            continue
        if not args.only and stored.get(name, {}).get("fingerprint") == inst.fingerprint:
            continue
        t0 = time.perf_counter()
        candidates = {"quadfw": quadfw_best(inst, QUADFW_SEEDS, QUADFW_NODES, QUADFW_TIME_LIMIT)}
        if all(k is VarKind.BINARY for k in inst.problem.integrality):
            rng = np.random.default_rng(7)
            candidates["local_search"] = local_search(inst.problem, LOCAL_SEARCH_STARTS, rng)
        elif candidates["quadfw"] is not None:
            candidates["polish"] = polish(inst.problem, candidates["quadfw"], POLISH_SECONDS)
        scored = []
        for source, point in candidates.items():
            if point is not None and check_feasibility(inst.problem, point).feasible:
                scored.append((eval_objective(inst.problem, point), source, point))
        if not scored:
            print(f"{name}: no feasible point found", file=sys.stderr)
            return 1
        value, source, point = min(scored, key=lambda item: item[0])
        stored[name] = {
            "fingerprint": inst.fingerprint,
            "value": value,
            "source": source,
            "point": [float(v) for v in point],
        }
        others = ", ".join(f"{s}={v:.6g}" for v, s, _ in scored)
        print(f"{name}: {value:.6g} from {source} ({others}) in {time.perf_counter() - t0:.0f} s",
              flush=True)
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
