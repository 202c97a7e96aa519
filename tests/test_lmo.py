import itertools
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from quadfw import lmo
from quadfw.bnb import SolutionPool, SolveTrace
from quadfw.fw import ActiveSet, bpcg
from quadfw.lmo import (
    INT_TOL,
    ROW_FEASIBILITY_TOL,
    Region,
    VertexCache,
    box_lmo,
    fix_coordinates,
    integral_bounds,
    lazy_lookup,
    mip_lmo,
    round_integers,
    solve_lp,
)
from quadfw.model import Problem, VarKind
from quadfw.penalty import SmoothObjective


# (a, b, c, ub) of LP b16561 of family b of scripts/lp_fingerprint.py
B16561 = (
    [[-1, -2, -1, 1e-09, 1e-09, 1, 2], [1e-09, 1, 1, 1e-09, 1, -1, 0],
     [1, 1, 0, -1, 2, -1, -2], [1, -2, 1, 2, 1e-09, -1, 1e-09],
     [0, 1e-09, 1e-09, 1e-09, 1e-09, -2, 1e-09], [1e-09, 1, 0, -2, 0, 0, 2],
     [2, 1e-09, -1, 2, -1, 1, 2], [1e-09, 1e-09, 0, -1, 2, 1e-09, -1]],
    [2.000000002, 2e-09, -4, 4.000000001, 3.0000000000000004e-09, -2, 6, -3],
    [-1, 3, -3, -2, 2, 0, -1], [1, 1, 2, 2, 1, 1, 2],
)


def box(lb, ub, integer=None, a=None, b=None):
    lb = np.asarray(lb, dtype=float)
    mask = np.zeros(len(lb), dtype=bool) if integer is None else np.asarray(integer)
    return Region(lb, np.asarray(ub, dtype=float), a, b, mask)


class TestBoxLmo:
    def test_sign_rule(self):
        v = box_lmo(np.array([1.0, -2.0]), box([0, 0], [1, 1]))
        assert np.array_equal(v, [0.0, 1.0])

    def test_tie_rule(self):
        v = box_lmo(np.zeros(2), box([0.25, -1], [1, 1]))
        assert np.array_equal(v, [0.25, -1.0])

    def test_integer_box(self):
        v = box_lmo(np.array([-1.0]), box([0], [3], integer=[True]))
        assert v[0] == 3.0


class TestRoundingRule:
    @pytest.mark.parametrize("value, integer, ub, want", [
        (0.4, True, 10.0, 0.0),
        (2.6, True, 10.0, 3.0),
        (0.5, True, 10.0, 1.0),
        (2.5, True, 10.0, 3.0),
        (-0.5, True, 10.0, 0.0),
        (-0.3, True, 10.0, 0.0),
        (2.6, True, 2.0, 2.0),
        (1.3, False, 5.0, 1.3),
    ], ids=["nearest-down", "nearest-up", "half-up", "half-up-not-even", "minus-half",
            "minus-small", "clamped", "continuous"])
    @pytest.mark.parametrize("rule", ["round", "fix"])
    def test_half_up_clamped(self, rule, value, integer, ub, want):
        x = np.array([value, 7.0])
        mask = np.array([integer, False])
        lb, ub = np.array([-10.0, 0.0]), np.array([ub, 8.0])
        if rule == "round":
            got = round_integers(x, mask, lb, ub)
            assert x[0] == value  # a copy
        else:
            got, got_ub = fix_coordinates(lb, ub, mask, np.array([True, False]), x)
            assert got_ub[0] == got[0] and (got[1], got_ub[1]) == (0.0, 8.0)
        assert got[0] == want
        assert not np.signbit(got[0])  # -0.5 and -0.3 give +0.0, one vertex key
        if rule == "round":
            assert got[1] == 7.0

    def test_zero_keeps_a_clear_sign_bit_inside_integral_bounds(self):
        # np.ceil(0 - 1e-9) is -0.0; clamped to it, 0.2 and -0.3 would
        # give a vertex key apart from the +0.0 of a branching bound
        lb, ub = integral_bounds(np.zeros(3), np.ones(3), np.ones(3, dtype=bool))
        assert not np.signbit(lb).any()
        got = round_integers(np.array([0.2, -0.3, 0.0]), np.ones(3, dtype=bool), lb, ub)
        assert not np.signbit(got).any()


class TestSolveLp:
    def test_simplex_face(self):
        region = box([0, 0], [1, 1], a=[[1.0, 1.0]], b=[1.0])
        res = solve_lp(np.array([-1.0, -1.0]), region)
        assert res.status == "optimal"
        assert res.value == pytest.approx(-1.0, abs=1e-9)
        assert res.point[0] + res.point[1] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_rows(self):
        a = [[-1.0],  # x >= 2
             [1.0]]   # x <= 1
        res = solve_lp(np.array([1.0]), box([0], [5], a=a, b=[-2.0, 1.0]))
        assert res.status == "infeasible"

    def test_row_met_only_to_rounding_is_feasible(self):
        # 1e-9 * x1 + x3 <= 0: x3 = 0 meets the row within the row
        # tolerance for every x1, but x1's coefficient is too small to
        # pivot on, so the row is repaired only to within 1e-9
        region = box([0, 0, 0, 0], [1, 1, 1, 1], a=[[0.0, 1e-9, 0.0, 1.0]], b=[0.0])
        res = solve_lp(np.array([0.0, -0.5, 0.0, -0.5]), region)
        assert res.status == "optimal"
        assert region.contains(res.point)
        assert res.value == pytest.approx(-0.5, abs=1e-7)

    @pytest.mark.parametrize("excess, status", [(1e-8, "optimal"), (1e-6, "infeasible")])
    def test_rows_are_loosened_by_half_the_row_tolerance_only(self, excess, status):
        # x1 + x2 <= -excess on the unit box: a row missed by less than
        # ROW_FEASIBILITY_TOL / 2 is met on the loosened rows, one missed
        # by more is infeasible
        region = box([0, 0], [1, 1], a=[[1.0, 1.0]], b=[-excess])
        res = solve_lp(np.array([1.0, 1.0]), region)
        assert res.status == status
        if status == "optimal":
            assert region.contains(res.point)

    def test_stop_time_in_the_past_ends_the_simplex(self):
        region = box([0, 0], [1, 1], a=[[1.0, 1.0]], b=[1.0])
        res = solve_lp(np.array([-1.0, -1.0]), region, stop_at=time.monotonic() - 1.0)
        assert res.status != "optimal"
        assert res.point is None

    def test_no_rows_matches_box_lmo(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            region = box(rng.uniform(-2, 0, n), rng.uniform(0.5, 2, n))
            direction = rng.normal(size=n)
            res = solve_lp(direction, region)
            assert np.allclose(res.point, box_lmo(direction, region))

    def test_fixings(self):
        region = box([0, 0], [2, 2], a=[[1.0, 1.0]], b=[3.0])
        region = region.with_bounds(np.array([0.5, 0.0]), np.array([0.5, 2.0]))
        res = solve_lp(np.array([-1.0, -1.0]), region)
        assert res.point[0] == pytest.approx(0.5)
        assert res.point[1] == pytest.approx(2.0)

    def test_equality_row(self):
        # x0 + x1 = 1.5 as an LE pair
        region = box([0, 0], [2, 2], a=[[1.0, 1.0], [-1.0, -1.0]], b=[1.5, -1.5])
        res = solve_lp(np.array([1.0, 2.0]), region)
        assert res.status == "optimal"
        assert res.point @ np.ones(2) == pytest.approx(1.5, abs=1e-9)
        assert res.value == pytest.approx(1.5, abs=1e-9)  # all weight on x0

    def test_ge_row(self):
        region = box([0], [5], a=[[-1.0]], b=[-2.0])  # x >= 2
        res = solve_lp(np.array([1.0]), region)
        assert res.point[0] == pytest.approx(2.0, abs=1e-9)

    @staticmethod
    def _normal_lps(rng, trials):
        for _ in range(trials):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 5))
            lb = rng.uniform(-3, 0, n)
            ub = lb + rng.uniform(0.5, 4, n)
            a_mat = rng.normal(size=(m, n))
            rhs = rng.normal(size=m) * 2
            yield rng.normal(size=n), a_mat, rhs, lb, ub

    @staticmethod
    def _integer_lps(rng, trials):
        # many ties among the ratios and zero reduced costs (dual
        # degeneracy); some columns fixed
        for _ in range(trials):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 5))
            lb = rng.integers(-2, 2, size=n).astype(float)
            ub = lb + rng.integers(0, 3, size=n)
            a_mat = rng.integers(-1, 2, size=(m, n)).astype(float)
            rhs = rng.integers(-2, 3, size=m).astype(float)
            yield rng.integers(-2, 3, size=n).astype(float), a_mat, rhs, lb, ub

    def test_against_scipy_on_random_lps(self):
        lps = itertools.chain(self._normal_lps(np.random.default_rng(12), 120),
                              self._integer_lps(np.random.default_rng(13), 600))
        for trial, (direction, a_mat, rhs, lb, ub) in enumerate(lps):
            region = box(lb, ub, a=a_mat, b=rhs)
            res = solve_lp(direction, region)
            ref = linprog(direction, A_ub=a_mat, b_ub=rhs,
                          bounds=list(zip(lb, ub)), method="highs")
            if ref.status == 2:
                assert res.status == "infeasible", f"trial {trial}"
            else:
                assert res.status == "optimal", f"trial {trial}"
                assert res.value == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"
                # returned point satisfies rows and bounds
                assert np.all(a_mat @ res.point <= rhs + 1e-7)
                assert np.all(res.point >= lb - 1e-9)
                assert np.all(res.point <= ub + 1e-9)

    @staticmethod
    def _count_factorizations(monkeypatch):
        calls = []
        for name in ("solve", "inv"):
            def counted(*args, _fn=getattr(np.linalg, name)):
                calls.append(1)
                return _fn(*args)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @staticmethod
    def _count_pivots(monkeypatch):
        # the simplex reads the clock once before each pivot and once
        # before it sees the optimum
        readings = []

        def monotonic():
            readings.append(1)
            return time.monotonic()

        monkeypatch.setattr(lmo, "time", types.SimpleNamespace(monotonic=monotonic))
        return readings

    def test_bound_flips_repair_a_row_in_one_pivot(self, monkeypatch):
        # sum(x) <= 50 over 200 unit columns, costs -1..-200: the start puts
        # every column at 1; one pivot flips the columns of cost -1..-149
        # to 0 and the one of cost -150 enters at 0.  The slack basis
        # inverse is the identity and the pivot updates it, so the LP
        # costs one solve, the one that confirms the optimum
        calls = self._count_factorizations(monkeypatch)
        n = 200
        region = box(np.zeros(n), np.ones(n), a=np.ones((1, n)), b=[50.0])
        res = solve_lp(-np.arange(1.0, n + 1), region)
        assert res.status == "optimal"
        assert res.value == -8775.0
        assert len(calls) == 1

    def test_warm_start_with_one_more_column_fixed_takes_one_pivot(self, monkeypatch):
        # the LP above with the column of cost -1 fixed at 1: from the
        # parent's basis the row is short by 1, and the column of cost
        # -151 leaves its upper bound to cover it
        n = 200
        cost = -np.arange(1.0, n + 1)
        region = box(np.zeros(n), np.ones(n), a=np.ones((1, n)), b=[50.0])
        parent = solve_lp(cost, region)
        lb = np.zeros(n)
        lb[0] = 1.0
        child = region.with_bounds(lb, np.ones(n))
        cold = solve_lp(cost, child)
        pivots = self._count_pivots(monkeypatch)
        calls = self._count_factorizations(monkeypatch)
        warm = solve_lp(cost, child, start=parent.state)
        assert (warm.status, warm.value) == ("optimal", cold.value)
        assert warm.value == -8625.0
        assert len(pivots) - 1 == 1
        assert len(calls) == 2  # the start's inverse and the confirmation

    def test_warm_start_from_a_parent_matches_cold_and_scipy(self):
        # each optimal LP, with one bound tightened toward or past its
        # point as a branch does, re-solved from its final state
        lps = itertools.chain(self._normal_lps(np.random.default_rng(12), 120),
                              self._integer_lps(np.random.default_rng(13), 600))
        rng = np.random.default_rng(15)
        warm_optimal = 0
        for trial, (direction, a_mat, rhs, lb, ub) in enumerate(lps):
            parent = solve_lp(direction, box(lb, ub, a=a_mat, b=rhs))
            if parent.status != "optimal":
                continue
            state = [part.copy() for part in parent.state]
            k = int(rng.integers(len(lb)))
            child_lb, child_ub = lb.copy(), ub.copy()
            if rng.random() < 0.5:
                child_ub[k] = max(lb[k], np.floor(lb[k] + parent.point[k]) / 2)
            else:
                child_lb[k] = min(ub[k], np.ceil(ub[k] + parent.point[k]) / 2)
            region = box(child_lb, child_ub, a=a_mat, b=rhs)
            cold = solve_lp(direction, region)
            warm = solve_lp(direction, region, start=parent.state)
            ref = linprog(direction, A_ub=a_mat, b_ub=rhs,
                          bounds=list(zip(child_lb, child_ub)), method="highs")
            assert all(np.array_equal(p, q) for p, q in zip(parent.state, state))
            assert warm.status == cold.status, f"trial {trial}"
            if ref.status == 2:
                assert warm.status == "infeasible", f"trial {trial}"
                continue
            assert warm.status == "optimal", f"trial {trial}"
            assert warm.value == pytest.approx(cold.value, abs=1e-9), f"trial {trial}"
            assert warm.value == pytest.approx(ref.fun, abs=1e-9), f"trial {trial}"
            assert region.contains(warm.point)
            warm_optimal += 1
        assert warm_optimal >= 300

    def test_infinite_bound_raises(self):
        # min x subject to x <= 1 over x >= -inf is unbounded below
        region = box([-np.inf], [5.0], a=[[1.0]], b=[1.0])
        with pytest.raises(ValueError):
            solve_lp(np.array([1.0]), region)

    # Rows tight at an integer point with coefficients at 1e-9 and 1e-6.
    # A pivot on a coefficient just above the pivot tolerance swapped two
    # bases back and forth until LP_PIVOT_CAP (about 1.6 s) and the LP
    # ended as an error; a revisited basis now loosens the rows by half
    # the row tolerance once and the run goes on from that basis.  The
    # third LP (integer coefficients and 1e-9 entries, tight at
    # (1, 0, 0, 2)) revisits a basis before any other fault.  The fourth
    # once pivoted on a 1e-9 entry and then cycled on its loosened rows;
    # the relative pivot tolerance refuses that pivot.
    @pytest.mark.parametrize("a, b, c, ub, value, tol", [
        ([[-2.0123598289726474, 0.0, 0.6817846040576864, -1e-09, 0.5808353159415124],
          [0.7815059639629106, -1e-09, 0.056783299358786246, -1e-09, 0.08787783354366746]],
         [-4.024719660945295, 1.5630119249258212],
         [0.6946797660761319, 0.7903053217424161, 0.0, 1.024820156679802, 0.0],
         [3, 1, 1, 3, 1], 1.3893595321522638, 1e-7),  # c at (2, 0, 0, 0, 0)
        ([[-0.9760347487602172, 0.0, -1.0970185978717584, -0.4942295018362534, 0.0],
          [1e-09, -1.0565852311458173, -0.1357404383512215, 1e-06, -1e-09]],
         [-3.170071944503734, -3.4412365691398947],
         [-0.49102324681325665, -0.024837198635515652, 0.0, 2.1315757167979017,
          0.02772105506930356],
         [2, 3, 2, 2, 1], -1.0565580895330602, 1e-9),
        ([[-1, 1e-9, 1e-9, 0], [2, 2, 1e-9, 1e-9], [-2, -1, 0, 1e-9],
          [1e-9, 2, -1, 1e-9], [2, 0, -2, 0], [1, 1, 1e-9, 1e-9]],
         [-1, 2.000000002, -1.999999998, 3e-9, 2, 1.000000002],
         [-3, 3, -1, -2], [2, 1, 1, 2], -8.0000000735, 1e-7),
        ([[0, 1, -1, -2, 2, 1e-9], [-2, 1e-9, -2, 1e-9, 2, -2], [0, 1e-9, 2, -1, 2, 0],
          [0, 0, -2, 0, -2, 1e-9], [-2, -2, 2, 1, -1, -1]],
         [0, 1.000000082740371e-09, 1, -2, -2],
         [2, 0, 2, 3, 1, 0], [2, 2, 1, 1, 1, 2], 3.9999997153333338, 1e-7),
    ])
    def test_basis_swap_loop_is_solved(self, a, b, c, ub, value, tol):
        region = box(np.zeros(len(ub)), ub, a=a, b=b)
        start = time.monotonic()
        res = solve_lp(np.array(c), region)
        assert time.monotonic() - start < 0.1
        assert res.status == "optimal"
        assert res.value == pytest.approx(value, abs=tol)
        assert region.contains(res.point)

    # Three LPs of family b of scripts/lp_fingerprint.py (b8101, b8797,
    # b16561): integer rows with 1e-9 entries, tight at an integer point.
    # The parent is solved cold, one bound is tightened and the child is
    # solved from the parent's state.  Each child once cycled on its
    # loosened rows after a pivot on a 1e-9 entry.
    @pytest.mark.parametrize("a, b, c, ub, j, upper, value", [
        ([[1e-09, 1e-09, 1, 1e-09, 1, 1, 1e-09, -1], [2, 2, 0, 1, 1e-09, 0, -2, -2],
          [-1, 0, 1, -2, -2, 1e-09, 1e-09, 0], [1, -2, 1e-09, 1, 0, -2, 1e-09, -2],
          [1e-09, -1, -1, -1, -1, -2, 0, 1e-09], [2, 2, 2, -2, 0, -1, 2, 1],
          [-2, 1, 1, -1, 1, 2, 1e-09, 2], [1, -1, -1, 1e-09, 1e-09, 0, 2, 1e-09],
          [-1, 1e-09, 0, -2, -1, 0, -2, 1e-09]],
         [2.9999999151542056e-09, 3, -3, 1.000000001, -1.999999997, 5, -2, 1.000000002,
          -3.999999999],
         [2, -2, 3, 2, -3, -2, 2, 1], [2, 1, 2, 2, 1, 1, 1, 1], 3, True, 10.0),
        ([[2, 1e-09, 2, 2, 0, 1], [1, -2, -2, 0, -1, 1], [0, 1e-09, 2, 2, 1e-09, 1e-09],
          [1, 2, 2, -1, -2, 1e-09], [1, -2, 1, -2, 0, -1], [-2, -2, 2, -2, 1e-09, -2],
          [1e-09, -1, 1e-09, -2, -2, 1], [-2, 1e-09, -1, -2, 2, 1]],
         [3, 1, 2.000000001, -0.999999999, -3, -4, -1, -1],
         [-2, 3, 2, 0, -3, 2], [1, 1, 2, 2, 2, 2], 4, False, -1.750000296625002),
        (*B16561, 0, True, -8.000000175),
    ])
    def test_warm_child_on_tiny_entries_is_solved(self, a, b, c, ub, j, upper, value):
        region = box(np.zeros(len(ub)), ub, a=a, b=b)
        parent = solve_lp(np.array(c, dtype=float), region)
        assert parent.status == "optimal"
        lb, ub = region.lb.copy(), region.ub.copy()
        if upper:
            ub[j] -= 1.0
        else:
            lb[j] += 1.0
        child = solve_lp(np.array(c, dtype=float), region.with_bounds(lb, ub),
                         start=parent.state)
        assert child.status == "optimal"
        assert child.value == pytest.approx(value, abs=1e-9)

    # Cold solves of family b of scripts/lp_fingerprint.py (b986, b2646,
    # b9796, b13254, b16561) that pivoted on a 1e-9 entry and ended as
    # optimal far above the optimum (b9796: 3.0 against -6.5).
    @pytest.mark.parametrize("a, b, c, ub", [
        ([[1e-09, -2, -1, -1, -1, 0, 1, 2], [-1, 0, 1, -2, 0, 1e-09, 2, 1e-09],
          [0, 2, 1e-09, 0, -1, -2, -2, 2], [1, 0, 0, 1e-09, 1, -1, 2, -2],
          [1, 0, 1e-09, 1e-09, 0, 1e-09, -1, 1], [-1, 2, -1, 1, 2, 1, 1, 0],
          [1, 1, -2, 1, -2, 1e-09, 2, 2], [1e-09, -1, 1, -2, 1, 0, -1, 1]],
         [-2, 3.000000002, 2.000000001, -1, 2.0000000544584395e-09, 5, 4.000000001, -1],
         [0, 2, -1, -3, -2, -1, 0, 0], [1, 2, 2, 1, 1, 1, 1, 1]),
        ([[0, -1, 0, 2], [-1, 1e-09, -1, 0], [1, 1e-09, 1, 1e-09], [0, 0, 1e-09, 0],
          [1, -1, 0, -2], [2, 1e-09, -2, 1e-09]],
         [0, -1, 1, 0, 1, 2], [1, -3, 2, 0], [1, 2, 2, 1]),
        ([[0, 1e-09, -2], [-2, 0, -2], [0, 0, 1e-09], [-1, -2, -2], [0, 2, 1e-09],
          [-1, 1, 2], [1e-09, 1e-09, 1e-09]],
         [1e-09, 0, 0, -2, 2, 1, 1e-09], [-1, 3, -3], [2, 1, 2]),
        ([[2, 1, 1e-09, 0, 0], [1, 1e-09, 0, 1, 1], [-1, 1e-09, -2, 2, 1e-09],
          [1e-09, 1e-09, -2, 1, 1], [1e-09, -1, -2, -1, 1e-09], [1, -2, 0, 0, 0],
          [1e-09, 2, 0, 1e-09, 0], [1, 2, -2, -1, 1e-09], [2, 0, -2, 0, -2]],
         [2, 2.000000002, 2.0000000030000002, 2.000000002, -2.999999999, -4, 4.000000001,
          3.000000001, -2],
         [2, -2, -2, 3, -3], [1, 2, 1, 1, 2]),
        B16561,
    ])
    def test_cold_solve_on_tiny_entries_matches_highs(self, a, b, c, ub):
        res = solve_lp(np.array(c, dtype=float), box(np.zeros(len(ub)), ub, a=a, b=b))
        ref = linprog(c, A_ub=a, b_ub=b, bounds=[(0, u) for u in ub], method="highs")
        assert res.status == "optimal" and ref.status == 0
        assert res.value == pytest.approx(ref.fun, abs=1e-6 * max(1.0, abs(ref.fun)))

    def test_small_pivot_relative_to_its_row_enters(self):
        # 5e-8 x >= 1e-3 over [0, 1e5], as presolve's artificial bounds
        # make: an absolute pivot tolerance of 1e-7 calls it infeasible
        res = solve_lp(np.array([1.0]), box([0.0], [1e5], a=[[-5e-8]], b=[-1e-3]))
        assert res.status == "optimal"
        assert res.value == pytest.approx(2e4, rel=1e-9)

    def test_degenerate_lp_terminates(self):
        # many redundant rows through one vertex (classic cycling bait)
        n = 4
        a = np.vstack([np.ones(n), np.eye(n)])
        region = box(np.zeros(n), np.ones(n), a=a, b=np.zeros(n + 1))
        res = solve_lp(-np.ones(n), region)
        assert res.status == "optimal"
        assert res.value == pytest.approx(0.0, abs=1e-9)


def enumerate_mip(direction, region):
    """Integer enumeration oracle (continuous parts solved per assignment)."""
    int_idx = np.flatnonzero(region.integer_mask)
    cont_idx = np.flatnonzero(~region.integer_mask)
    axes = [np.arange(int(np.ceil(region.lb[k])), int(np.floor(region.ub[k])) + 1)
            for k in int_idx]
    best = np.inf
    for assignment in itertools.product(*axes):
        if len(cont_idx) == 0:
            x = np.zeros(region.n)
            x[int_idx] = assignment
            if np.all(region.a @ x <= region.b + 1e-9):
                best = min(best, float(direction @ x))
        else:
            lb, ub = region.lb.copy(), region.ub.copy()
            lb[int_idx] = ub[int_idx] = assignment
            res = solve_lp(direction, region.with_bounds(lb, ub))
            if res.status == "optimal":
                best = min(best, res.value)
    return best


class TestMipLmo:
    def test_binary_knapsack_value(self):
        region = box([0, 0], [1, 1], integer=[True, True], a=[[1.0, 1.0]], b=[1.0])
        res = mip_lmo(np.array([-1.0, -1.0]), region)
        assert res.status == "optimal"
        assert res.value == pytest.approx(-1.0, abs=1e-9)
        assert set(res.point) == {0.0, 1.0}
        # deterministic: repeated calls give the identical vertex
        again = mip_lmo(np.array([-1.0, -1.0]), region)
        assert np.array_equal(res.point, again.point)

    def test_pure_box_matches_box_lmo(self):
        region = box([0, -2], [3, 2], integer=[True, True])
        direction = np.array([-1.0, 1.0])
        res = mip_lmo(direction, region)
        assert np.array_equal(res.point, box_lmo(direction, region))

    def test_zero_direction_returns_feasible_vertex(self):
        region = box([0, 0], [2, 2], integer=[True, True], a=[[1.0, 1.0]], b=[3.0])
        res = mip_lmo(np.zeros(2), region)
        assert res.status == "optimal"
        assert res.value == 0.0
        assert region.contains(res.point, int_tol=1e-6)

    def test_failed_lp_is_reported_as_error(self, monkeypatch):
        # the 2nd LP is the down child x0 <= 0, whose subtree holds the
        # optimum (0, 1) at -1.1; the rest of the search finds (1, 0) at -1
        real = lmo.solve_lp
        calls = []

        def failing_second(*args):
            calls.append(1)
            if len(calls) == 2:
                return lmo.LpResult(None, np.inf, "error")
            return real(*args)

        monkeypatch.setattr(lmo, "solve_lp", failing_second)
        region = Region(np.zeros(2), np.ones(2), [[2.0, 2.0]], [3.0], np.ones(2, dtype=bool))
        res = mip_lmo(np.array([-1.0, -1.1]), region)
        assert res.status == "error"
        assert res.trusted
        assert np.array_equal(res.point, [1.0, 0.0])
        assert res.value == pytest.approx(-1.0)

    def test_infeasible_region(self):
        region = box([0], [1], integer=[True], a=[[1.0]], b=[-0.5])
        res = mip_lmo(np.array([1.0]), region)
        assert res.status == "infeasible"
        assert res.point is None

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(60):
            n = int(rng.integers(2, 7))
            lb = rng.integers(-2, 1, size=n).astype(float)
            ub = lb + rng.integers(1, 4, size=n).astype(float)
            m = int(rng.integers(1, 4))
            rows = [(rng.normal(size=n), float(rng.normal() * 2 + 1)) for _ in range(m)]
            region = box(lb, ub, integer=[True] * n,
                         a=[r[0] for r in rows], b=[r[1] for r in rows])
            direction = rng.normal(size=n)
            res = mip_lmo(direction, region)
            expected = enumerate_mip(direction, region)
            if res.status == "infeasible":
                assert expected == np.inf, f"trial {trial}"
            else:
                assert res.value == pytest.approx(expected, abs=1e-7), f"trial {trial}"
                assert region.contains(res.point, tol=1e-7, int_tol=1e-6)

    def test_mixed_integer_against_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = 4
            mask = [True, True, False, False]
            lb = rng.integers(-1, 1, size=n).astype(float)
            ub = lb + rng.integers(1, 3, size=n).astype(float)
            a = [rng.normal(size=n)]
            region = box(lb, ub, integer=mask, a=a, b=[float(rng.normal() + 1.5)])
            direction = rng.normal(size=n)
            res = mip_lmo(direction, region)
            expected = enumerate_mip(direction, region)
            if res.status == "infeasible":
                assert expected == np.inf
            else:
                assert res.value == pytest.approx(expected, abs=1e-7)

    @pytest.mark.parametrize("direction, value", [([0, 0, 0, 0, 0], 0.0), ([0, 0, 1, 0, 1], 1.0)])
    def test_snapped_vertex_keeps_the_rows(self, direction, value):
        # The root LP puts the integer x2 at 1.19e-7, within INT_TOL of 0;
        # snapping it to 0 breaks -x2 - 1.19e-7 x4 <= -1.19e-7 by more than
        # ROW_FEASIBILITY_TOL, so the search must branch on x2 instead.
        eps = 1.1920929e-07
        a = np.array([[0.0, 0.0, -1.0, 0.0, -eps]])
        region = box(np.zeros(5), np.ones(5), [False, False, True, False, False], a, [-eps])
        res = mip_lmo(np.array(direction, dtype=float), region)
        assert res.status == "optimal"
        assert region.contains(res.point, ROW_FEASIBILITY_TOL, INT_TOL)
        assert res.value == value

    def test_past_deadline_without_incumbent_returns_no_point(self):
        n = 14
        rng = np.random.default_rng(5)
        a = [rng.normal(size=n) for _ in range(6)]
        region = box(np.zeros(n), np.ones(n), integer=[True] * n, a=a, b=[0.1] * 6)
        res = mip_lmo(rng.normal(size=n), region, deadline=time.monotonic() - 1.0)
        assert res.status == "timeout"
        assert res.point is None
        assert not res.trusted

    def test_node_cap_stops_the_search(self, monkeypatch):
        # the root LP is fractional, so one node gives no incumbent
        region = box([0, 0], [1, 1], integer=[True, True], a=[[2.0, 2.0]], b=[1.0])
        direction = np.array([-1.0, -1.0])
        assert mip_lmo(direction, region).status == "optimal"
        monkeypatch.setattr(lmo, "MIP_NODE_CAP", 1)
        res = mip_lmo(direction, region)
        assert res.status == "timeout"
        assert res.point is None

    def test_root_lp_cut_by_the_clock_is_a_timeout(self, monkeypatch):
        # the only LP of the search outlives the deadline: that is a
        # timeout, not an LP failure
        lp = lmo.solve_lp

        def slow_lp(*args):
            time.sleep(0.1)
            return lp(*args)

        monkeypatch.setattr(lmo, "solve_lp", slow_lp)
        region = box([0, 0], [1, 1], integer=[True, True], a=[[1.0, 1.0]], b=[1.0])
        res = mip_lmo(np.array([-1.0, -1.0]), region, deadline=time.monotonic() + 0.05)
        assert res.status == "timeout"
        assert res.point is None
        assert not res.trusted


@st.composite
def _shared_block_case(draw):
    """An LP shaped like the ``scripts/lp_fingerprint.py`` families: rows
    tight at an integer point, coefficients from N(0, 1), +-1e-9, +-1e-6,
    zeros and small integers, bounds [0, 1..3]; and one bound tightened by
    one unit, as a branch does."""
    n, m = draw(st.integers(2, 8)), draw(st.integers(1, 9))
    coef = st.one_of(st.floats(-3.0, 3.0, allow_nan=False),
                     st.sampled_from([1e-9, -1e-9, 1e-6, -1e-6, 0.0]),
                     st.integers(-2, 2).map(float))
    a = np.array(draw(st.lists(coef, min_size=m * n, max_size=m * n))).reshape(m, n)
    ub = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), dtype=float)
    point = np.array([draw(st.integers(0, int(u))) for u in ub], dtype=float)
    slack = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.5]), min_size=m, max_size=m)))
    cost = np.array(draw(st.lists(coef, min_size=n, max_size=n)))
    j = draw(st.integers(0, n - 1))
    child_lb, child_ub = np.zeros(n), ub.copy()
    if draw(st.booleans()):
        child_ub[j] -= 1.0
    else:
        child_lb[j] += 1.0
    return a, a @ point + slack, cost, ub, child_lb, child_ub


def _bits(res):
    """Everything an LpResult holds, bit for bit."""
    state = None if res.state is None else tuple(part.tobytes() for part in res.state)
    point = None if res.point is None else res.point.tobytes()
    return res.status, repr(res.value), point, state


class TestRowBlock:
    def test_copies_share_the_block_and_other_rows_do_not(self):
        region = box([0, 0], [1, 1], a=[[1.0, 1.0]], b=[1.0])
        copy = region.with_bounds(np.zeros(2), np.array([1.0, 0.0]))
        assert copy.row_block() is region.row_block()
        assert copy.with_bounds(np.zeros(2), np.ones(2)).row_block() is region.row_block()
        other = box([0, 0], [1, 1], a=[[1.0, -1.0]], b=[1.0])
        assert other.row_block() is not region.row_block()
        assert np.array_equal(region.row_block().mat, [[1.0, 1.0, 1.0]])
        assert np.array_equal(other.row_block().mat, [[1.0, -1.0, 1.0]])

    def test_one_build_per_row_block_over_a_bpcg_run(self, monkeypatch):
        builds = []

        class CountedBlock(lmo._RowBlock):
            __slots__ = ()

            def __init__(self, a):
                builds.append(1)
                super().__init__(a)

        monkeypatch.setattr(lmo, "_RowBlock", CountedBlock)
        rng = np.random.default_rng(41)
        n = 5
        region = Region(np.zeros(n), 2 * np.ones(n), rng.normal(size=(3, n)),
                        np.ones(3), np.ones(n, dtype=bool))
        q = rng.normal(size=(n, n))
        terms = [(i, j, q[i, j] + q[j, i] if i != j else q[i, i])
                 for i in range(n) for j in range(i, n)]
        prob = Problem(n=n, terms_obj=terms, d=rng.normal(size=n), c0=0.0,
                       constraints=[], lb=np.zeros(n), ub=2 * np.ones(n),
                       integrality=[VarKind.CONTINUOUS] * n)
        lps = []
        real = lmo.solve_lp

        def counted_lp(*args):
            lps.append(args[1])
            return real(*args)

        monkeypatch.setattr(lmo, "solve_lp", counted_lp)
        res = bpcg(SmoothObjective(prob, p=1.5), region, max_iter=30, eps=1e-9)
        assert res.lmo_calls >= 3
        assert len(lps) > res.lmo_calls  # the MIP searches branched
        assert len(builds) == 1
        assert all(node.row_block() is region.row_block() for node in lps)

    @settings(deadline=None, max_examples=150)
    @given(_shared_block_case())
    def test_a_shared_block_solves_bit_for_bit_as_a_fresh_one(self, case):
        a, b, cost, ub, child_lb, child_ub = case
        parent = Region(np.zeros(len(ub)), ub, a, b)
        cold = solve_lp(cost, parent)
        shared = parent.with_bounds(child_lb, child_ub)
        fresh = Region(child_lb, child_ub, a.copy(), b.copy())
        assert shared.row_block() is parent.row_block()
        assert _bits(solve_lp(cost, shared)) == _bits(solve_lp(cost, fresh))
        if cold.state is not None:
            assert (_bits(solve_lp(cost, shared, start=cold.state))
                    == _bits(solve_lp(cost, fresh, start=cold.state)))
        # the children left the shared block as it was
        assert _bits(solve_lp(cost, parent)) == _bits(cold)
        assert _bits(cold) == _bits(solve_lp(cost, Region(np.zeros(len(ub)), ub, a, b)))

    def test_infinite_bound_raises_also_on_a_copy_and_in_mip_lmo(self):
        region = box([0.0, 0.0], [2.0, 2.0], integer=[True, True], a=[[2.0, 2.0]], b=[3.0])
        assert mip_lmo(np.array([-1.0, -1.0]), region).status == "optimal"
        lb = np.array([-np.inf, 0.0])
        with pytest.raises(ValueError):
            solve_lp(np.array([1.0, 1.0]), region.with_bounds(lb, region.ub))
        with pytest.raises(ValueError):
            mip_lmo(np.array([1.0, 1.0]), region.with_bounds(lb, region.ub))
        with pytest.raises(ValueError):
            mip_lmo(np.array([1.0, 1.0]), box(lb, [2.0, 2.0], [True, True], [[2.0, 2.0]], [3.0]))


class TestVertexCache:
    def test_empty_lookup(self):
        cache = VertexCache()
        assert lazy_lookup(cache, np.array([1.0]), np.array([0.5]), 1.0, box([0], [1])) is None

    def test_returns_cached_minimizer(self):
        region = box([0, 0], [1, 1], integer=[True, True], a=[[1.0, 1.0]], b=[1.0])
        direction = np.array([-1.0, -0.5])
        res = mip_lmo(direction, region)
        cache = VertexCache()
        assert cache.insert(res.point)
        x_t = np.array([0.0, 0.0])
        grad = direction
        v = lazy_lookup(cache, grad, x_t, phi=0.1, region=region)
        assert v is not None
        assert np.array_equal(v, res.point)

    def test_huge_threshold_forces_fresh_call(self):
        region = box([0, 0], [1, 1], integer=[True, True])
        cache = VertexCache()
        cache.insert(np.array([1.0, 0.0]))
        assert lazy_lookup(cache, np.array([-1.0, 0.0]), np.zeros(2), phi=1e9,
                           region=region) is None

    def test_lookup_never_serves_a_non_member(self):
        region = box([0], [1], integer=[True], a=[[1.0]], b=[0.5])
        cache = VertexCache()
        cache.insert(np.array([0.0]))
        cache.insert(np.array([1.0]))  # violates the row
        cache.insert(np.array([0.4]))  # fractional
        assert len(cache) == 3
        # both non-members would qualify and are more recent than 0
        v = lazy_lookup(cache, np.array([-1.0]), np.zeros(1), 0.0, region=region)
        assert np.array_equal(v, [0.0])

    def test_deduplication(self):
        cache = VertexCache()
        assert cache.insert(np.array([0.5]))
        assert not cache.insert(np.array([0.5 + 1e-12]))

    def test_shared_vertex_identity(self):
        # continuous variables, so pool snapping keeps the perturbation
        problem = Problem(
            n=2, terms_obj=[], d=np.zeros(2), c0=0.0, constraints=[],
            lb=np.zeros(2), ub=np.ones(2), integrality=[VarKind.CONTINUOUS] * 2,
        )
        v = np.array([0.25, 0.75])

        def counts(offset):
            other = v + offset
            active = ActiveSet.from_vertex(v)
            cache = VertexCache()
            cache.insert(v)
            cache.insert(other)
            pool = SolutionPool(problem, problem, lambda x: x, lambda x: x,
                                clock=lambda: 0.0, trace=SolveTrace())
            pool.submit(v)
            pool.submit(other)
            return (active.find(other) is not None), len(cache), len(pool.entries)

        assert counts(1e-12) == (True, 1, 1)
        assert counts(1e-6) == (False, 2, 2)

    def test_scan_most_recent_first(self):
        region = box([0, 0], [1, 1])
        cache = VertexCache()
        cache.insert(np.array([1.0, 0.0]))
        cache.insert(np.array([0.0, 1.0]))
        # both meet threshold 0; most recently added wins
        grad = np.array([0.0, 0.0])
        v = lazy_lookup(cache, grad, np.zeros(2), phi=0.0, region=region)
        assert np.array_equal(v, [0.0, 1.0])

    def test_region_filter_in_lookup(self):
        wide = box([0], [3], integer=[True])
        cache = VertexCache()
        cache.insert(np.array([3.0]))
        narrow = wide.with_bounds(np.array([0.0]), np.array([1.0]))
        assert lazy_lookup(cache, np.array([-1.0]), np.zeros(1), 0.0, region=narrow) is None


# -- lazy lookup against a scan over single vertices ------------------------


def _scalar_contains(region, x, tol=ROW_FEASIBILITY_TOL, int_tol=INT_TOL):
    if np.any(x < region.lb - tol) or np.any(x > region.ub + tol):
        return False
    if np.any(region.a @ x > region.b + tol):
        return False
    frac = np.abs(x[region.integer_mask] - np.round(x[region.integer_mask]))
    return not (frac.size and frac.max() > int_tol)


def _scalar_lookup(vertices, gradient, x_t, phi, region):
    """The lookup as one membership test and one inner product per cached
    vertex, most recent first."""
    if phi < 0:
        phi = 0.0
    for v in reversed(vertices):
        if not _scalar_contains(region, v):
            continue
        if float(gradient @ (x_t - v)) >= phi / 2.0:
            return v
    return None


# Dyadic coordinates and integer row coefficients keep every row sum exact,
# so membership does not depend on the order in which a product is summed.
# The offsets straddle INT_TOL (1e-6) and ROW_FEASIBILITY_TOL (1e-7).
_OFFSETS = [0.0, 0.5, 2.0**-21, -(2.0**-21), 2.0**-19, 2.0**-24, -(2.0**-22)]


@st.composite
def _lookup_case(draw):
    n = draw(st.integers(1, 5))
    coord = st.builds(lambda k, o: k + o, st.integers(-2, 2), st.sampled_from(_OFFSETS))
    vertices = draw(st.lists(st.lists(coord, min_size=n, max_size=n), max_size=12))
    m = draw(st.integers(0, 3))
    a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    b = draw(st.lists(coord, min_size=m, max_size=m))
    lb = draw(st.lists(coord, min_size=n, max_size=n))
    widths = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    real = st.floats(-10.0, 10.0, allow_nan=False)
    gradient = draw(st.lists(real, min_size=n, max_size=n))
    x_t = draw(st.lists(real, min_size=n, max_size=n))
    phi = draw(st.floats(-5.0, 50.0, allow_nan=False))
    region = Region(np.array(lb), np.array(lb) + np.array(widths, dtype=float),
                    np.array(a, dtype=float), np.array(b), np.array(mask))
    return ([np.array(v) for v in vertices], np.array(gradient), np.array(x_t), phi, region)


class TestLazyLookupMatchesScalarScan:
    @settings(deadline=None, max_examples=300)
    @given(_lookup_case())
    def test_same_vertex(self, case):
        vertices, gradient, x_t, phi, region = case
        cache = VertexCache()
        inserted = [v for v in vertices if cache.insert(v)]
        got = lazy_lookup(cache, gradient, x_t, phi, region=region)
        want = _scalar_lookup(inserted, gradient, x_t, phi, region)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.tobytes() == want.tobytes()


@st.composite
def _lookup_sequence(draw):
    """Two row sets over one variable set and a list of steps.  Each step
    inserts a few vertices and looks up on one row set under bounds that
    are new, shared in part with the previous step's (as a child shares
    its parent's lower or upper bounds), or the previous step's region
    itself."""
    n = draw(st.integers(1, 4))
    coord = st.builds(lambda k, o: k + o, st.integers(-2, 2), st.sampled_from(_OFFSETS))
    point = st.lists(coord, min_size=n, max_size=n).map(np.array)
    real = st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=n, max_size=n)
    regions = []
    for _ in range(2):
        m = draw(st.integers(0, 3))
        a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                          min_size=m, max_size=m))
        b = draw(st.lists(coord, min_size=m, max_size=m))
        mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        regions.append(Region(np.full(n, -3.0), np.full(n, 3.0), np.array(a, dtype=float),
                              np.array(b), np.array(mask)))
    steps = draw(st.lists(st.tuples(
        st.lists(point, max_size=3), st.integers(0, 1),
        st.sampled_from(["new", "same lb", "same ub", "same region"]),
        point, st.lists(st.integers(0, 4), min_size=n, max_size=n),
        real, real, st.floats(-5.0, 50.0, allow_nan=False)), min_size=1, max_size=8))
    return regions, steps


class TestLazyLookupOverASequence:
    @settings(deadline=None, max_examples=200)
    @given(_lookup_sequence())
    def test_each_step_matches_the_scalar_scan(self, case):
        regions, steps = case
        cache = VertexCache()
        inserted = []
        region = None
        for vertices, rows, bounds, lb, widths, gradient, x_t, phi in steps:
            inserted += [v for v in vertices if cache.insert(v)]
            ub = lb + np.array(widths, dtype=float)
            if region is not None and bounds == "same lb":
                lb = region.lb
            elif region is not None and bounds == "same ub":
                ub = region.ub
            if region is None or bounds != "same region":
                region = regions[rows].with_bounds(lb, ub)
            got = lazy_lookup(cache, np.array(gradient), np.array(x_t), phi, region=region)
            want = _scalar_lookup(inserted, np.array(gradient), np.array(x_t), phi, region)
            if want is None:
                assert got is None
            else:
                assert got is not None and got.tobytes() == want.tobytes()


class TestRegionMembers:
    """``members`` checks rows and integrality only on the points inside
    the bounds; the mask must be the one a check of everything on every
    point gives."""

    @staticmethod
    def _points(rng, k, n):
        # dyadic coordinates, so row sums are exact in any order
        return rng.integers(-3, 4, size=(k, n)) + rng.choice(_OFFSETS, size=(k, n))

    @pytest.mark.parametrize("case", ["random", "none inside the bounds",
                                      "no integer coordinates", "no rows"])
    def test_equals_the_full_mask(self, case):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n, m = int(rng.integers(1, 6)), int(rng.integers(0 if case == "no rows" else 1, 4))
            lb = rng.integers(-2, 1, size=n) + rng.choice(_OFFSETS, size=n)
            ub = lb + rng.integers(0, 4, size=n)
            mask = (rng.random(n) < 0.5) & (case != "no integer coordinates")
            if case == "no rows":
                m = 0
            region = Region(lb, ub, rng.integers(-3, 4, size=(m, n)).astype(float),
                            rng.integers(-3, 4, size=m) + rng.choice(_OFFSETS, size=m), mask)
            points = self._points(rng, int(rng.integers(0, 12)), n)
            if case == "none inside the bounds":
                points[:, 0] = ub[0] + 1.0
            got = region.members(points, ROW_FEASIBILITY_TOL, INT_TOL)
            want = [_scalar_contains(region, p) for p in points]
            assert got.dtype == bool and got.tolist() == want
            if case == "none inside the bounds":
                assert not got.any()
