import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfw.model import (
    ModelError,
    Problem,
    QuadConstraint,
    Sense,
    VarKind,
    assemble_symmetric,
    check_feasibility,
    eval_constraint,
    eval_objective,
    merge_terms,
    normalize_constraint,
    terms_from_symmetric,
)

from conftest import dense_terms, sparse_quad_constraint


def one_var(terms, d=0.0, c0=0.0, kind=VarKind.CONTINUOUS, lb=-10.0, ub=10.0, cons=()):
    return Problem(
        n=1, terms_obj=terms, d=np.array([d]), c0=c0, constraints=list(cons),
        lb=np.array([lb]), ub=np.array([ub]), integrality=[kind],
    )


class TestEvalObjective:
    def test_square_term(self):
        p = one_var([(0, 0, 1.0)])
        assert eval_objective(p, np.array([2.0])) == 4.0

    def test_bilinear_with_linear_and_constant(self):
        p = Problem(
            n=2, terms_obj=[(0, 1, 3.0)], d=np.array([1.0, 0.0]), c0=-1.0,
            constraints=[], lb=np.zeros(2), ub=np.ones(2),
            integrality=[VarKind.CONTINUOUS] * 2,
        )
        assert eval_objective(p, np.array([1.0, 1.0])) == 3.0

    def test_zero_point_gives_constant(self):
        p = Problem(
            n=3, terms_obj=[(0, 2, 5.0), (1, 1, -2.0)], d=np.array([1.0, 2.0, 3.0]),
            c0=7.5, constraints=[], lb=-np.ones(3), ub=np.ones(3),
            integrality=[VarKind.CONTINUOUS] * 3,
        )
        assert eval_objective(p, np.zeros(3)) == 7.5

    def test_dimension_mismatch(self):
        p = one_var([(0, 0, 1.0)])
        with pytest.raises(ModelError):
            eval_objective(p, np.array([1.0, 2.0]))


class TestEvalConstraint:
    def test_value_above_boundary(self):
        con = QuadConstraint([(0, 0, 1.0)], {}, -1.0)
        p = one_var([], cons=[con])
        assert eval_constraint(p, 0, np.array([2.0])) == 3.0

    def test_boundary(self):
        con = QuadConstraint([(0, 0, 1.0)], {}, -1.0)
        p = one_var([], cons=[con])
        assert eval_constraint(p, 0, np.array([1.0])) == 0.0

    def test_complementarity_one_factor_zero(self):
        con = QuadConstraint([(0, 1, 1.0)], {}, 0.0, sense=Sense.EQ)
        p = Problem(
            n=2, terms_obj=[], d=np.zeros(2), c0=0.0, constraints=[con],
            lb=np.zeros(2), ub=5 * np.ones(2), integrality=[VarKind.CONTINUOUS] * 2,
        )
        assert eval_constraint(p, 0, np.array([0.0, 5.0])) == 0.0

    def test_index_out_of_range(self):
        p = one_var([])
        with pytest.raises(ModelError):
            eval_constraint(p, 0, np.array([1.0]))


class TestCheckFeasibility:
    def test_fractional_binary_not_integral(self):
        p = one_var([], kind=VarKind.BINARY, lb=0.0, ub=1.0)
        report = check_feasibility(p, np.array([0.5]), tol_int=1e-6)
        assert not report.integral
        assert not report.feasible

    def test_on_bounds_no_constraints(self):
        p = Problem(
            n=2, terms_obj=[], d=np.zeros(2), c0=0.0, constraints=[],
            lb=np.zeros(2), ub=np.ones(2), integrality=[VarKind.CONTINUOUS] * 2,
        )
        report = check_feasibility(p, np.array([0.0, 1.0]))
        assert report.max_violation == 0.0
        assert report.worst_constraint is None
        assert report.feasible

    def test_small_violation_detected(self):
        con = QuadConstraint([(0, 0, 1.0)], {}, -1.0)
        p = one_var([], cons=[con])
        x = np.array([1.0 + 2e-6])
        report = check_feasibility(p, x, tol_cons=1e-6)
        assert not report.feasible
        assert report.max_violation == pytest.approx(4e-6, rel=1e-3)
        assert report.worst_constraint == 0

    def test_tolerances_must_be_positive(self):
        p = one_var([])
        with pytest.raises(ModelError):
            check_feasibility(p, np.array([0.0]), tol_cons=0.0)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_integer_coordinate_not_integral(self):
        # an integer variable with infinite bounds that only the objective uses
        p = one_var([(0, 0, 1.0)], kind=VarKind.INTEGER, lb=-np.inf, ub=np.inf)
        for value in (np.nan, np.inf, -np.inf):
            report = check_feasibility(p, np.array([value]))
            assert not report.integral
            assert not report.feasible

    def test_monotone_in_tolerances(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            p = Problem(
                n=n, terms_obj=dense_terms(rng, n), d=rng.normal(size=n), c0=0.0,
                constraints=[QuadConstraint(dense_terms(rng, n), {}, float(rng.normal()))],
                lb=-np.ones(n), ub=np.ones(n),
                integrality=[VarKind.INTEGER if rng.random() < 0.5 else VarKind.CONTINUOUS
                             for _ in range(n)],
            )
            x = rng.uniform(-1.2, 1.2, size=n)
            small = check_feasibility(p, x, tol_cons=1e-8, tol_int=1e-8)
            large = check_feasibility(p, x, tol_cons=1e-3, tol_int=1e-3)
            if small.feasible:
                assert large.feasible


# Per-term loop evaluation as it stood before the array evaluator; the
# reference that the array version must match bit for bit.


def _loop_terms(terms, x):
    return float(sum(q * x[i] * x[j] for (i, j, q) in terms))


def _loop_objective(problem, x):
    return _loop_terms(problem.terms_obj, x) + float(problem.d @ x) + problem.c0


def _loop_constraint(problem, idx, x):
    con = problem.constraints[idx]
    val = _loop_terms(con.terms, x) + con.c
    for k, v in con.b.items():
        val += v * x[k]
    return float(val)


def _loop_feasibility(problem, x, tol_cons=1e-6, tol_int=1e-6):
    integral = True
    for k in problem.integer_indices():
        if abs(x[k] - round(x[k])) > tol_int:
            integral = False
            break
    bound_viol = 0.0
    for k in range(problem.n):
        if math.isfinite(problem.lb[k]):
            bound_viol = max(bound_viol, problem.lb[k] - x[k])
        if math.isfinite(problem.ub[k]):
            bound_viol = max(bound_viol, x[k] - problem.ub[k])
    worst, worst_viol = None, 0.0
    for idx, con in enumerate(problem.constraints):
        g = _loop_constraint(problem, idx, x)
        viol = abs(g) if con.sense is Sense.EQ else max(g, 0.0)
        if viol > worst_viol:
            worst_viol, worst = viol, idx
    max_violation = max(worst_viol, bound_viol)
    in_bounds = bound_viol <= tol_cons
    return (max_violation, worst, integral, in_bounds,
            integral and in_bounds and max_violation <= tol_cons)


def _bits(value):
    return struct.pack("<d", float(value))


def _random_problem(rng, n):
    """Mixed kinds, some infinite bounds, LE rows (some without terms or
    linear part, some dense) and EQ complementarity rows."""
    kinds = [VarKind.INTEGER if rng.random() < 0.5 else VarKind.CONTINUOUS for _ in range(n)]
    lb = np.where(rng.random(n) < 0.2, -np.inf, rng.integers(-3, 1, size=n).astype(float))
    ub = np.where(rng.random(n) < 0.2, np.inf, rng.integers(1, 4, size=n).astype(float))
    cons = []
    if n:
        cons = [sparse_quad_constraint(rng, n) for _ in range(int(rng.integers(0, 3)))]
        cons.append(QuadConstraint(dense_terms(rng, n), {}, float(rng.normal())))
        cons.append(QuadConstraint([], {k: float(rng.normal()) for k in range(n)}, -0.0))
        cons.append(QuadConstraint([], {}, float(rng.normal())))
    if n >= 2:
        i, j = sorted(int(k) for k in rng.choice(n, size=2, replace=False))
        cons.append(QuadConstraint([(i, j, 1.0)], {}, 0.0, sense=Sense.EQ))
    terms = dense_terms(rng, n) if rng.random() < 0.8 else []
    return Problem(
        n=n, terms_obj=terms, d=rng.normal(size=n), c0=float(rng.normal()),
        constraints=cons, lb=lb, ub=ub, integrality=kinds,
    )


class TestEvaluationBitExact:
    """The array evaluator equals the per-term loops byte for byte."""

    @staticmethod
    def _points(rng, n):
        for t in range(25):
            x = rng.uniform(-4.0, 4.0, size=n)
            if t % 3:
                x = np.round(x)  # integral points, where -0.0 products arise
            if t % 2:
                x[rng.random(n) < 0.3] = -0.0
            x[rng.random(n) < 0.1] = 0.0
            yield x

    def _assert_same(self, p, x):
        assert _bits(eval_objective(p, x)) == _bits(_loop_objective(p, x))
        for idx in range(len(p.constraints)):
            assert _bits(eval_constraint(p, idx, x)) == _bits(_loop_constraint(p, idx, x))
        report = check_feasibility(p, x)
        max_violation, worst, integral, in_bounds, feasible = _loop_feasibility(p, x)
        assert _bits(report.max_violation) == _bits(max_violation)
        assert report.worst_constraint == worst
        assert (report.integral, report.in_bounds, report.feasible) == (
            integral, in_bounds, feasible)

    def test_random_problems_and_points(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            p = _random_problem(rng, int(rng.integers(0, 9)))
            for x in self._points(rng, p.n):
                self._assert_same(p, x)

    def test_negative_zero_products(self):
        # the loop's int 0 start turns a -0.0 first product into 0.0
        con = QuadConstraint([(0, 1, 2.0)], {0: -1.0}, -0.0)
        p = Problem(
            n=2, terms_obj=[(0, 0, -1.0)], d=np.array([0.0, 0.0]), c0=-0.0,
            constraints=[con], lb=-np.ones(2), ub=np.ones(2),
            integrality=[VarKind.CONTINUOUS] * 2,
        )
        for x in (np.array([-0.0, 1.0]), np.array([0.0, -0.0]), np.array([-0.0, -0.0])):
            self._assert_same(p, x)
        assert _bits(eval_constraint(p, 0, np.array([-0.0, 1.0]))) == _bits(0.0)

    def test_empty_problem(self):
        p = Problem(n=0, terms_obj=[], d=np.zeros(0), c0=3.5, constraints=[],
                    lb=np.zeros(0), ub=np.zeros(0), integrality=[])
        self._assert_same(p, np.zeros(0))
        assert eval_objective(p, np.zeros(0)) == 3.5

    def test_copy_and_replace_recompile(self):
        rng = np.random.default_rng(5)
        p = _random_problem(rng, 4)
        x = rng.normal(size=4)
        eval_objective(p, x)  # builds the arrays of p
        q = replace(p, terms_obj=[(0, 0, 1.0)])
        assert eval_objective(q, x) == _loop_objective(q, x)
        assert eval_objective(p.copy(), x) == _loop_objective(p, x)


class TestCompiledSize:
    def test_items_proportional_to_terms(self):
        # one dense quadratic row and many short linear rows: the compiled
        # arrays hold the problem's items, not rows x longest row
        n, short_rows = 120, 400
        long_row = QuadConstraint(
            [(i, j, 1.0) for i in range(n) for j in range(i, n)], {}, -1.0)
        short = [QuadConstraint([], {k % n: 1.0}, -1.0) for k in range(short_rows)]
        p = Problem(
            n=n, terms_obj=[(0, 0, 1.0)], d=np.zeros(n), c0=0.0,
            constraints=[long_row] + short, lb=np.zeros(n), ub=np.ones(n),
            integrality=[VarKind.CONTINUOUS] * n,
        )
        items = sum(len(con.terms) + len(con.b) + 2 for con in p.constraints)
        compiled = p.compiled()
        assert all(a.size == items for a in compiled.rows)
        x = np.full(n, 0.5)
        assert eval_constraint(p, 0, x) == _loop_constraint(p, 0, x)
        assert eval_constraint(p, short_rows, x) == _loop_constraint(p, short_rows, x)
        assert check_feasibility(p, x).worst_constraint == 0


class TestNormalization:
    def test_ge_is_negated(self):
        cons = normalize_constraint([(0, 0, 2.0)], {1: 1.0}, -3.0, Sense.GE)
        assert len(cons) == 1
        con = cons[0]
        assert con.sense is Sense.LE
        assert con.terms == [(0, 0, -2.0)]
        assert con.b == {1: -1.0}
        assert con.c == 3.0

    def test_eq_splits_into_le_pair(self):
        cons = normalize_constraint([(0, 1, 1.0)], {0: 2.0}, -1.0, Sense.EQ)
        assert len(cons) == 2
        assert all(c.sense is Sense.LE for c in cons)

    def test_complementarity_kept_as_eq(self):
        cons = normalize_constraint([(0, 1, 1.0)], {}, 0.0, Sense.EQ)
        assert len(cons) == 1
        assert cons[0].sense is Sense.EQ

    def test_eq_pair_matches_absolute_value(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            terms = [(0, int(rng.integers(1, n)), float(rng.normal()))]
            b = {0: float(rng.normal())}
            c = float(rng.normal())
            pair = normalize_constraint(terms, b, c, Sense.EQ)
            assert len(pair) == 2
            x = rng.normal(size=n)
            p = Problem(
                n=n, terms_obj=[], d=np.zeros(n), c0=0.0, constraints=pair,
                lb=-10 * np.ones(n), ub=10 * np.ones(n),
                integrality=[VarKind.CONTINUOUS] * n,
            )
            g1 = eval_constraint(p, 0, x)
            g2 = eval_constraint(p, 1, x)
            original = sum(q * x[i] * x[j] for (i, j, q) in terms) + b[0] * x[0] + c
            tol = 1e-7
            assert (g1 <= tol and g2 <= tol) == (abs(original) <= tol)


class TestTermConvention:
    @settings(deadline=None, max_examples=50)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
    def test_matrix_roundtrip(self, n, seed):
        rng = np.random.default_rng(seed)
        terms = dense_terms(rng, n)
        q_mat = assemble_symmetric(n, terms)
        assert np.allclose(q_mat, q_mat.T)
        back = merge_terms(terms_from_symmetric(q_mat))
        assert back == merge_terms(terms)
        # objective value via terms equals matrix form 0.5 x'Qx
        x = rng.normal(size=n)
        via_terms = sum(q * x[i] * x[j] for (i, j, q) in terms)
        assert via_terms == pytest.approx(0.5 * x @ q_mat @ x, abs=1e-9)

    def test_merge_drops_zero_and_orders(self):
        merged = merge_terms([(1, 0, 2.0), (0, 1, -2.0), (2, 2, 1.0)])
        assert merged == [(2, 2, 1.0)]
