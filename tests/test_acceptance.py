"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import itertools
import time

import numpy as np
import pytest

from quadfw.bnb import solve
from quadfw.config import Config
from quadfw.fw import bpcg
from quadfw.lmo import Region, mip_lmo
from quadfw.lns import NonlinearityGraph, asens, minimum_vertex_cover, rins
from quadfw.fw import ActiveSet
from quadfw.metrics import IncumbentTrace, primal_gap, primal_integral, shifted_geomean
from quadfw.model import (
    Problem,
    QuadConstraint,
    Sense,
    VarKind,
    check_feasibility,
    eval_objective,
)
from quadfw.oracle import brute_force
from quadfw.penalty import SmoothObjective
from quadfw.portfolio import run_portfolio
from quadfw.presolve import convexify_binary, run_presolve

from conftest import dense_terms, random_binary_qp, random_miqcqp


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def all_binary_points(n: int) -> np.ndarray:
    return np.array(list(itertools.product((0.0, 1.0), repeat=n)))


def vectorized_objective(problem: Problem, X: np.ndarray) -> np.ndarray:
    vals = np.full(len(X), problem.c0)
    for (i, j, q) in problem.terms_obj:
        vals += q * X[:, i] * X[:, j]
    return vals + X @ problem.d


def test_criterion_1_convexification_exactness():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 13))
        p = random_binary_qp(rng, n)
        X = all_binary_points(n)
        base = vectorized_objective(p, X)
        for ell in (0.6, 0.8, 1.0):
            out, _ = convexify_binary(p, ell)
            dev = np.abs(vectorized_objective(out, X) - base) / (1.0 + np.abs(base))
            worst = max(worst, float(dev.max()))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(1, "convexification exactness", ok,
            f"max relative deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_penalty_gradient():
    rng = np.random.default_rng(1002)
    start = time.monotonic()
    checked = 0
    worst = 0.0
    while checked < 1000:
        prob = random_miqcqp(rng, int(rng.integers(2, 7)), n_quad=2, anchored=False)
        obj = SmoothObjective(prob, p=float(rng.uniform(1.2, 1.8)))
        for _ in range(25):
            if checked >= 1000:
                break
            x = rng.uniform(prob.lb - 1, prob.ub + 1)
            gvals = obj.constraint_values(x)
            if gvals.size and np.min(np.abs(gvals)) <= 1e-3:
                continue
            grad = obj.gradient(x)
            h = 1e-6
            fd = np.zeros_like(grad)
            for k in range(prob.n):
                e = np.zeros(prob.n)
                e[k] = h
                fd[k] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
            rel = float(np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(grad))))
            worst = max(worst, rel)
            checked += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-5 and elapsed < 10.0
    _report(2, "penalty gradient vs finite differences", ok,
            f"{checked} points, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_bpcg_correctness():
    rng = np.random.default_rng(1003)
    worst_val = 0.0
    worst_gap = 0.0
    monotone = True
    for _ in range(50):
        n = int(rng.integers(2, 21))
        m_mat = rng.normal(size=(n, n))
        q_mat = m_mat @ m_mat.T + 0.5 * np.eye(n)
        d = rng.normal(size=n)
        prob = Problem(
            n=n,
            terms_obj=[(i, i, q_mat[i, i] / 2) for i in range(n)]
            + [(i, j, q_mat[i, j]) for i in range(n) for j in range(i + 1, n)],
            d=d, c0=0.0, constraints=[], lb=np.zeros(n), ub=np.ones(n),
            integrality=[VarKind.CONTINUOUS] * n,
        )
        obj = SmoothObjective(prob, p=1.5)
        region = Region(np.zeros(n), np.ones(n), integer_mask=np.zeros(n, dtype=bool))
        res = bpcg(obj, region, max_iter=20000, eps=1e-6)
        worst_gap = max(worst_gap, res.dual_gap)
        diffs = np.diff(res.objective_trace)
        if diffs.size and diffs.max() > 1e-12:
            monotone = False
        # independent oracle: projected gradient descent run to 1e-10
        lipschitz = float(np.linalg.eigvalsh(q_mat)[-1])
        x = 0.5 * np.ones(n)
        for _ in range(500000):
            x_new = np.clip(x - (q_mat @ x + d) / lipschitz, 0.0, 1.0)
            if np.max(np.abs(x_new - x)) < 1e-10:
                x = x_new
                break
            x = x_new
        oracle_val = float(0.5 * x @ q_mat @ x + d @ x)
        worst_val = max(worst_val, abs(obj.value(res.x) - oracle_val))
    ok = worst_val <= 1e-6 and worst_gap <= 1e-6 and monotone
    _report(3, "bpcg vs projected-gradient oracle", ok,
            f"worst value dev {worst_val:.2e}, worst gap {worst_gap:.2e}, "
            f"monotone {monotone}")


def test_criterion_4_mip_lmo_oracle_equivalence():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 13))
        lb = rng.integers(-1, 1, size=n).astype(float)
        ub = lb + rng.integers(1, 3, size=n).astype(float)
        m = int(rng.integers(1, 6))
        rows = [(rng.normal(size=n), float(rng.normal() * 2 + 1)) for _ in range(m)]
        region = Region(lb, ub, [a for a, _ in rows], [rhs for _, rhs in rows],
                        np.ones(n, dtype=bool))
        direction = rng.normal(size=n)
        res = mip_lmo(direction, region)
        # independent enumeration oracle (shares nothing with the MIP path)
        ref_prob = Problem(
            n=n, terms_obj=[], d=direction, c0=0.0,
            constraints=[QuadConstraint([], {k: float(a[k]) for k in range(n)
                                             if a[k] != 0.0}, -rhs)
                         for (a, rhs) in rows],
            lb=lb, ub=ub, integrality=[VarKind.INTEGER] * n,
        )
        oracle = brute_force(ref_prob, tol=1e-7)
        if res.status == "infeasible":
            assert not oracle.feasible, f"trial {trial}: oracle found a point"
        else:
            assert oracle.feasible, f"trial {trial}: oracle says infeasible"
            worst = max(worst, abs(res.value - oracle.value))
    ok = worst <= 1e-7
    _report(4, "mip_lmo vs enumeration oracle", ok, f"worst deviation {worst:.2e}")


def test_criterion_5_end_to_end_primal_quality():
    rng = np.random.default_rng(1005)
    gaps = []
    found = 0
    start = time.monotonic()
    for trial in range(100):
        n = int(rng.integers(4, 13))
        p = random_binary_qp(rng, n)
        oracle = brute_force(p)
        report = run_portfolio(p, Config(workers=4, time_limit=5.0, seed=trial))
        if report.status == "feasible":
            found += 1
            gaps.append(primal_gap(report.best_objective, oracle.value))
        else:
            gaps.append(1.0)
    elapsed = time.monotonic() - start
    zero_rate = sum(1 for g in gaps if g <= 1e-9) / len(gaps)
    mean_gap = float(np.mean(gaps))
    ok = found == 100 and zero_rate >= 0.70 and mean_gap <= 0.05
    _report(5, "end-to-end primal quality (binary MIQPs)", ok,
            f"found {found}/100, gap-0 rate {zero_rate:.0%}, mean gap "
            f"{100 * mean_gap:.2f}%, {elapsed:.0f}s")


def test_criterion_6_end_to_end_miqcqp_soundness():
    rng = np.random.default_rng(1006)
    found = 0
    feasible_instances = 0
    violations = 0
    for trial in range(50):
        n = int(rng.integers(3, 11))
        p = random_miqcqp(rng, n, n_quad=int(rng.integers(1, 4)),
                          n_lin=int(rng.integers(0, 2)), anchored=trial % 5 != 0)
        oracle = brute_force(p)
        report, traces = run_portfolio(
            p, Config(workers=2, time_limit=3.0, seed=trial), return_details=True)
        for trace in traces:
            for x in trace.event_points:
                if not check_feasibility(p, x, 1e-6, 1e-6).feasible:
                    violations += 1
        if oracle.feasible:
            feasible_instances += 1
            if report.status == "feasible":
                found += 1
    rate = found / feasible_instances if feasible_instances else 1.0
    ok = violations == 0 and rate >= 0.80
    _report(6, "end-to-end MIQCQP soundness", ok,
            f"{violations} violating incumbents, found {found}/{feasible_instances} "
            f"({rate:.0%}) of oracle-feasible instances")


def test_criterion_7_metric_unit_table():
    checks = [
        primal_gap(0.0, 0.0) == 0.0,
        primal_gap(5.0, -3.0) == 1.0,
        primal_gap(12.0, 10.0) == 2.0 / 12.0,
        primal_integral(IncumbentTrace([(10.0, 20.0)], 20.0, reference=10.0)) == 15.0,
        primal_integral(IncumbentTrace([], 300.0)) == 300.0,
        primal_integral(IncumbentTrace([(0.0, 10.0)], 20.0, reference=10.0)) == 0.0,
        abs(shifted_geomean([3.0, 8.0], 1.0) - 5.0) <= 1e-12,
    ]
    ok = all(checks)
    _report(7, "metric unit table", ok,
            f"{sum(checks)}/{len(checks)} hand-computed values reproduced")


def _planted_instance(rng: np.random.Generator) -> tuple[Problem, int]:
    """Small integer instance, optionally with planted complementarity /
    perspective structure; returns the oracle grid (0 = pure integer)."""
    n = int(rng.integers(2, 4))
    lb = np.zeros(n)
    ub = rng.integers(1, 4, size=n).astype(float)
    kinds = [VarKind.INTEGER] * n
    terms = dense_terms(rng, n, scale=0.8)
    d = list(rng.normal(size=n))
    cons = []
    grid = 0
    if rng.random() < 0.5:
        a = {int(k): float(rng.integers(1, 3)) for k in range(n)}
        cons.append(QuadConstraint([], a, -float(rng.integers(2, 9))))
    if n >= 2 and rng.random() < 0.5:
        cons.append(QuadConstraint([(0, 1, 1.0)], {}, 0.0, sense=Sense.EQ))
    if rng.random() < 0.4:
        # perspective block: x (new integer in [0,3]), z binary, w continuous [0,9]
        x_i, z_i, w_i = n, n + 1, n + 2
        kinds = kinds + [VarKind.INTEGER, VarKind.BINARY, VarKind.CONTINUOUS]
        lb = np.concatenate([lb, np.zeros(3)])
        ub = np.concatenate([ub, [3.0, 1.0, 9.0]])
        d += [float(rng.normal()), 0.0, float(rng.uniform(0.5, 2.0))]
        cons.append(QuadConstraint([(x_i, x_i, 1.0), (z_i, w_i, -1.0)], {}, 0.0))
        n += 3
        grid = 10  # lattice {0..9} contains w = x^2 for x in {0..3}
    return (
        Problem(n=n, terms_obj=terms, d=np.array(d), c0=0.0, constraints=cons,
                lb=lb, ub=ub, integrality=kinds),
        grid,
    )


def test_criterion_8_presolve_soundness():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for trial in range(100):
        p, grid = _planted_instance(rng)
        before = brute_force(p, grid=grid)
        res = run_presolve(p)
        if res.status == "infeasible":
            assert not before.feasible, f"trial {trial}: presolve cut a feasible instance"
            continue
        after = brute_force(res.problem, grid=grid)
        if not before.feasible:
            assert not after.feasible, f"trial {trial}: reformulation created feasibility"
            continue
        assert after.feasible, f"trial {trial}: reformulation lost feasibility"
        worst = max(worst, abs(after.value - before.value))
    ok = worst <= 1e-8
    _report(8, "presolve preserves brute-force optima", ok,
            f"worst optimum shift {worst:.2e}")


def test_criterion_9_heuristic_triggers():
    # exactly 50% agreement must not fire; strictly above must fire
    p4 = Problem(n=4, terms_obj=[], d=np.zeros(4), c0=0.0, constraints=[],
                 lb=np.zeros(4), ub=3 * np.ones(4),
                 integrality=[VarKind.INTEGER] * 4)
    half = ActiveSet([np.array([1.0, 2.0, 0.0, 1.0]),
                      np.array([1.0, 2.0, 1.0, 2.0])], [0.5, 0.5])
    fired = []
    sub = lambda prob: fired.append(1) or prob.lb.copy()
    asens_half = asens(half, p4, sub)
    majority = ActiveSet([np.array([1.0, 2.0, 0.0, 1.0]),
                          np.array([1.0, 2.0, 0.0, 2.0])], [0.5, 0.5])
    asens_major = asens(majority, p4, sub)
    rins_half = rins(np.array([1.0, 1.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.0, 0.0]),
                     p4, sub)
    rins_major = rins(np.array([1.0, 1.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0, 0.0]),
                      p4, sub)
    boundary_ok = (asens_half is None and rins_half is None
                   and asens_major is not None and rins_major is not None)

    rng = np.random.default_rng(1009)
    cover_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 8))
        terms = []
        for _ in range(int(rng.integers(1, 7))):
            i, j = sorted(rng.integers(0, n, size=2))
            terms.append((int(i), int(j), float(rng.normal())))
        prob = Problem(n=n, terms_obj=terms, d=np.zeros(n), c0=0.0,
                       constraints=[], lb=np.zeros(n), ub=np.ones(n),
                       integrality=[VarKind.BINARY] * n)
        graph = NonlinearityGraph.from_problem(prob)
        if not graph.leaves_linear(minimum_vertex_cover(graph)):
            cover_ok = False
    ok = boundary_ok and cover_ok
    _report(9, "heuristic triggers", ok,
            f"50% boundary respected: {boundary_ok}, covers linearize: {cover_ok}")


def test_criterion_10_determinism_and_restarts():
    rng = np.random.default_rng(1010)
    identical = True
    formula = True
    for trial in range(5):
        p = random_binary_qp(rng, int(rng.integers(5, 9)))
        cfg = Config(workers=1, time_limit=120.0, node_limit=45 + 10 * trial,
                     seed=trial, restart_interval=10)
        r1 = run_portfolio(p, cfg)
        r2 = run_portfolio(p, cfg)
        if [e[1] for e in r1.events] != [e[1] for e in r2.events]:
            identical = False
        # single worker: report nodes/restarts are that worker's counters
        if r1.restarts != r1.nodes // 10:
            formula = False
        # same contract at the tree-search level
        t1 = solve(p, cfg)
        t2 = solve(p, cfg)
        if [v for (_, v) in t1.events] != [v for (_, v) in t2.events]:
            identical = False
        if t1.restart_count != t1.node_count // 10:
            formula = False
    ok = identical and formula
    _report(10, "determinism and restart counter", ok,
            f"identical traces: {identical}, restarts == nodes//10: {formula}")
