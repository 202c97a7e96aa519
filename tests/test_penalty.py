import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfw.model import (
    Problem,
    QuadConstraint,
    VarKind,
    eval_constraint,
    eval_objective,
    terms_from_symmetric,
)
from quadfw.penalty import SmoothObjective

from conftest import random_miqcqp


def make_problem(terms_obj=(), d=None, cons=(), n=1, lb=-10.0, ub=10.0):
    return Problem(
        n=n, terms_obj=list(terms_obj),
        d=np.zeros(n) if d is None else np.asarray(d, dtype=float),
        c0=0.0, constraints=list(cons),
        lb=lb * np.ones(n), ub=ub * np.ones(n),
        integrality=[VarKind.CONTINUOUS] * n,
    )


class TestPenaltyValue:
    def test_exponent_must_exceed_one(self):
        prob = make_problem(cons=[QuadConstraint([(0, 0, 1.0)], {}, -1.0)])
        with pytest.raises(ValueError):
            SmoothObjective(prob, p=1.0)


class TestRelaxedObjective:
    def unit_ball_problem(self):
        # f = 0, one constraint x^2 - 1 <= 0
        return make_problem(cons=[QuadConstraint([(0, 0, 1.0)], {}, -1.0)])

    def test_hand_computed_value_and_gradient(self):
        obj = SmoothObjective(self.unit_ball_problem(), p=1.5)
        val, grad = obj.value_and_gradient(np.array([2.0]))
        assert val == pytest.approx(3.0**1.5)
        # 1.5 * 3^0.5 * (2 * 2) = 6 sqrt(3)
        assert grad[0] == pytest.approx(6.0 * math.sqrt(3.0))

    def test_equals_objective_when_feasible(self):
        p = make_problem(terms_obj=[(0, 0, 1.0)], d=[2.0],
                         cons=[QuadConstraint([(0, 0, 1.0)], {}, -1.0)])
        obj = SmoothObjective(p, p=1.4)
        x = np.array([0.5])
        val, grad = obj.value_and_gradient(x)
        assert val == pytest.approx(eval_objective(p, x))
        assert grad[0] == pytest.approx(2.0 * 0.5 + 2.0)

    def test_relaxation_dominates_objective(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            prob = random_miqcqp(rng, int(rng.integers(2, 5)), n_quad=2, anchored=True)
            obj = SmoothObjective(prob, p=float(rng.uniform(1.2, 1.8)))
            x = rng.uniform(prob.lb, prob.ub)
            assert obj.value(x) >= eval_objective(prob, x) - 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 100:
            prob = random_miqcqp(rng, int(rng.integers(2, 6)), n_quad=2, anchored=False)
            obj = SmoothObjective(prob, p=float(rng.uniform(1.2, 1.8)))
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
            scale = max(1.0, float(np.max(np.abs(grad))))
            assert np.max(np.abs(grad - fd)) / scale <= 1e-5
            checked += 1

    def test_gradient_vanishes_at_constraint_boundary(self):
        # p > 1 makes the penalty gradient -> 0 as g -> 0+
        obj = SmoothObjective(self.unit_ball_problem(), p=1.5)
        norms = []
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            x = np.array([math.sqrt(1.0 + eps)])
            norms.append(abs(obj.gradient(x)[0]))
        assert norms == sorted(norms, reverse=True)
        assert norms[-1] <= 1e-3

    def test_linear_constraints_not_penalized(self):
        p = make_problem(d=[1.0], cons=[QuadConstraint([], {0: 1.0}, -1.0)])
        obj = SmoothObjective(p, p=1.5)
        assert obj.penalized == []
        x = np.array([5.0])  # violates the linear row, not the penalty
        assert obj.value(x) == pytest.approx(eval_objective(p, x))

    def test_constraint_values_match_the_model(self):
        # the dense stack against the model's compiled terms, row by row
        rng = np.random.default_rng(14)
        for _ in range(30):
            prob = random_miqcqp(rng, int(rng.integers(2, 7)), n_quad=3, n_lin=1,
                                 anchored=bool(rng.integers(2)))
            obj = SmoothObjective(prob, p=1.5)
            rows = [i for i, con in enumerate(prob.constraints) if con.terms]
            assert len(rows) == len(obj.penalized) == 3
            for _ in range(10):
                x = rng.uniform(prob.lb - 1, prob.ub + 1)
                got = obj.constraint_values(x)
                u = np.abs(x)
                for gi, i, a, b, c in zip(got, rows, obj._a, obj._b, obj._c):
                    magnitude = 0.5 * u @ np.abs(a) @ u + np.abs(b) @ u + abs(c)
                    assert abs(gi - eval_constraint(prob, i, x)) <= 1e-9 * magnitude

    def test_eval_counters(self):
        obj = SmoothObjective(self.unit_ball_problem(), p=1.5)
        obj.value(np.array([0.0]))
        obj.gradient(np.array([0.0]))
        obj.value_and_gradient(np.array([0.0]))
        assert obj.n_value_evals == 2
        assert obj.n_gradient_evals == 2


@st.composite
def _line_case(draw):
    """A problem with up to three nonconvex quadratic rows, a point x, a
    direction d and the step sizes to check.  Row i is shifted to change
    sign at a drawn step, and each such step is checked on both sides."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 3))
    coef = st.floats(-3.0, 3.0, allow_nan=False)
    vec = st.lists(coef, min_size=n, max_size=n)

    def terms():
        q = np.reshape(draw(st.lists(coef, min_size=n * n, max_size=n * n)), (n, n))
        return terms_from_symmetric(q + q.T)

    x = np.array(draw(vec))
    d = np.array(draw(vec))
    unit = st.floats(0.0, 1.0)
    gammas = draw(st.lists(unit, min_size=1, max_size=4))
    cons = []
    for _ in range(m):
        row = terms()
        b = dict(enumerate(draw(vec)))
        root = draw(unit)
        at_root = x + root * d
        g_root = sum(q * at_root[i] * at_root[j] for (i, j, q) in row)
        g_root += sum(v * at_root[k] for k, v in b.items())
        cons.append(QuadConstraint(row, b, -g_root))
        step = draw(st.floats(0.01, 0.5))
        gammas += [max(root - step, 0.0), min(root + step, 1.0)]
    prob = make_problem(terms_obj=terms(), d=draw(vec), cons=cons, n=n)
    return SmoothObjective(prob, p=draw(st.floats(1.2, 2.0))), x, d, gammas


class TestLineDerivative:
    @settings(deadline=None, max_examples=150)
    @given(_line_case())
    def test_matches_full_gradient_along_the_line(self, case):
        obj, x, d, gammas = case
        phi_prime = obj.line_derivative(x, d)
        absd = np.abs(d)
        for gamma in gammas:
            y = x + gamma * d
            # magnitudes with no cancellation, the scale of the rounding error
            u = np.abs(x) + gamma * absd
            g_mag = np.array([0.5 * u @ np.abs(a) @ u + np.abs(b) @ u + abs(c)
                              for (a, b, c) in zip(obj._a, obj._b, obj._c)])
            g = obj.constraint_values(y)
            if np.any(np.abs(g) < 1e-2 * g_mag):
                # next to a kink g_i^(p-1) is not Lipschitz for p < 2, and
                # the rounding of g_i decides the value on either side
                continue
            floor = absd @ (np.abs(obj.q_mat) @ u + np.abs(obj.d))
            for gi, a, b in zip(g, obj._a, obj._b):
                if gi > 0.0:
                    floor += obj.p * gi ** (obj.p - 1.0) * absd @ (np.abs(a) @ u + np.abs(b))
            want = float(obj.gradient(y) @ d)
            # near 1e-313 the relative bound falls below one subnormal
            # spacing, the least two floats can differ by
            tiny = 4 * np.finfo(float).smallest_subnormal
            assert abs(phi_prime(gamma) - want) <= 1e-12 * (abs(want) + floor) + tiny

    def test_without_penalized_rows(self):
        rng = np.random.default_rng(12)
        n = 4
        q = rng.normal(size=(n, n))
        p = make_problem(terms_obj=terms_from_symmetric(q + q.T), d=rng.normal(size=n),
                         cons=[QuadConstraint([], {0: 1.0, 2: -1.0}, -1.0)], n=n)
        obj = SmoothObjective(p, p=1.5)
        assert obj.penalized == []
        x, d = rng.normal(size=n), rng.normal(size=n)
        phi_prime = obj.line_derivative(x, d)
        for gamma in np.linspace(0.0, 1.0, 11):
            want = float(obj.gradient(x + gamma * d) @ d)
            assert phi_prime(gamma) == pytest.approx(want, rel=1e-12, abs=1e-12)


# -- the one-point memo -------------------------------------------------------


@st.composite
def _memo_case(draw):
    """A problem with up to two nonconvex rows, a pool of points (exact
    repeats in other arrays, a zero coordinate in both signs) and a list
    of calls, some of which change a pool point in place."""
    n = draw(st.integers(1, 3))
    coef = st.floats(-3.0, 3.0, allow_nan=False)
    vec = st.lists(coef, min_size=n, max_size=n)

    def terms():
        q = np.reshape(draw(st.lists(coef, min_size=n * n, max_size=n * n)), (n, n))
        return terms_from_symmetric(q + q.T)

    cons = [QuadConstraint(terms(), dict(enumerate(draw(vec))), draw(coef))
            for _ in range(draw(st.integers(0, 2)))]
    prob = make_problem(terms_obj=terms(), d=draw(vec), cons=cons, n=n)
    p = draw(st.floats(1.2, 2.0))
    pool = [np.array(draw(vec)) for _ in range(draw(st.integers(1, 3)))]
    zero = pool[0].copy()
    zero[0] = 0.0
    negative_zero = zero.copy()
    negative_zero[0] = -0.0
    pool += [zero, negative_zero, pool[0].copy()]
    kinds = st.sampled_from(["value", "gradient", "line", "constraints", "change"])
    calls = draw(st.lists(st.tuples(kinds, st.integers(0, len(pool) - 1),
                                    st.integers(0, len(pool) - 1),
                                    st.integers(0, n - 1), coef),
                          min_size=1, max_size=30))
    return prob, p, pool, calls


def _bits(result) -> bytes:
    return np.asarray(result, dtype=float).tobytes()


class TestMemo:
    @settings(deadline=None, max_examples=200)
    @given(_memo_case())
    def test_every_answer_is_a_fresh_objectives(self, case):
        prob, p, pool, calls = case
        obj = SmoothObjective(prob, p=p)
        for kind, i, k, j, c in calls:
            x = pool[i]
            fresh = SmoothObjective(prob, p=p)
            if kind == "change":
                x[j] = c
                continue
            if kind == "line":
                d = pool[k]
                got, want = obj.line_derivative(x, d), fresh.line_derivative(x, d)
                for gamma in (0.0, 0.25, 1.0):
                    assert _bits(got(gamma)) == _bits(want(gamma))
                continue
            method = {"value": "value", "gradient": "gradient",
                      "constraints": "constraint_values"}[kind]
            got = getattr(obj, method)(x)
            assert _bits(got) == _bits(getattr(fresh, method)(x))
            if isinstance(got, np.ndarray) and got.size:
                # a caller writing into an answer must not change the next one
                try:
                    got[0] = 7.0
                except ValueError:
                    pass

    def test_row_products_count_computed_products(self):
        obj = SmoothObjective(TestRelaxedObjective().unit_ball_problem(), p=1.5)
        x = np.array([2.0])
        obj.value(x)
        obj.gradient(x.copy())
        obj.line_derivative(x, np.array([1.0]))
        assert obj.n_row_products == 1
        x[0] = 3.0  # the same array at a new point
        obj.value(x)
        obj.constraint_values(np.array([-0.0]))
        obj.constraint_values(np.array([0.0]))
        assert (obj.n_value_evals, obj.n_gradient_evals, obj.n_row_products) == (2, 1, 4)
