import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from quadfw.bnb import SolutionPool, SolveTrace
from quadfw.fw import ActiveSet
from quadfw.lmo import (
    INT_TOL,
    ROW_FEASIBILITY_TOL,
    Region,
    VertexCache,
    box_lmo,
    lazy_lookup,
    mip_lmo,
    solve_lp,
)
from quadfw.model import Problem, VarKind


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

    def test_against_scipy_on_random_lps(self):
        rng = np.random.default_rng(12)
        for trial in range(120):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 5))
            lb = rng.uniform(-3, 0, n)
            ub = lb + rng.uniform(0.5, 4, n)
            a_mat = rng.normal(size=(m, n))
            rhs = rng.normal(size=m) * 2
            direction = rng.normal(size=n)
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
            res = mip_lmo(direction, region, time_budget=10.0)
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
            res = mip_lmo(direction, region, time_budget=10.0)
            expected = enumerate_mip(direction, region)
            if res.status == "infeasible":
                assert expected == np.inf
            else:
                assert res.value == pytest.approx(expected, abs=1e-7)

    def test_timeout_returns_untrusted_box_vertex(self):
        n = 14
        rng = np.random.default_rng(5)
        a = [rng.normal(size=n) for _ in range(6)]
        region = box(np.zeros(n), np.ones(n), integer=[True] * n, a=a, b=[0.1] * 6)
        res = mip_lmo(rng.normal(size=n), region, time_budget=0.0)
        assert res.status == "timeout"
        assert not res.trusted


class TestVertexCache:
    def test_empty_lookup(self):
        cache = VertexCache()
        assert lazy_lookup(cache, np.array([1.0]), np.array([0.5]), 1.0) is None

    def test_returns_cached_minimizer(self):
        region = box([0, 0], [1, 1], integer=[True, True], a=[[1.0, 1.0]], b=[1.0])
        direction = np.array([-1.0, -0.5])
        res = mip_lmo(direction, region)
        cache = VertexCache()
        assert cache.insert(res.point, region)
        x_t = np.array([0.0, 0.0])
        grad = direction
        v = lazy_lookup(cache, grad, x_t, phi=0.1, region=region)
        assert v is not None
        assert np.array_equal(v, res.point)

    def test_huge_threshold_forces_fresh_call(self):
        region = box([0, 0], [1, 1], integer=[True, True])
        cache = VertexCache()
        cache.insert(np.array([1.0, 0.0]), region)
        assert lazy_lookup(cache, np.array([-1.0, 0.0]), np.zeros(2), phi=1e9) is None

    def test_insert_validates_region(self):
        region = box([0], [1], integer=[True], a=[[1.0]], b=[0.5])
        cache = VertexCache()
        assert not cache.insert(np.array([1.0]), region)  # violates the row
        assert not cache.insert(np.array([0.4]), region)  # fractional
        assert cache.insert(np.array([0.0]), region)
        assert len(cache) == 1

    def test_deduplication(self):
        region = box([0], [1])
        cache = VertexCache()
        assert cache.insert(np.array([0.5]), region)
        assert not cache.insert(np.array([0.5 + 1e-12]), region)

    def test_shared_vertex_identity(self):
        # continuous variables, so pool snapping keeps the perturbation
        problem = Problem(
            n=2, terms_obj=[], d=np.zeros(2), c0=0.0, constraints=[],
            lb=np.zeros(2), ub=np.ones(2), integrality=[VarKind.CONTINUOUS] * 2,
        )
        region = box([0, 0], [1, 1])
        v = np.array([0.25, 0.75])

        def counts(offset):
            other = v + offset
            active = ActiveSet.from_vertex(v)
            cache = VertexCache()
            cache.insert(v, region)
            cache.insert(other, region)
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
        cache.insert(np.array([1.0, 0.0]), region)
        cache.insert(np.array([0.0, 1.0]), region)
        # both meet threshold 0; most recently added wins
        grad = np.array([0.0, 0.0])
        v = lazy_lookup(cache, grad, np.zeros(2), phi=0.0)
        assert np.array_equal(v, [0.0, 1.0])

    def test_region_filter_in_lookup(self):
        wide = box([0], [3], integer=[True])
        cache = VertexCache()
        cache.insert(np.array([3.0]), wide)
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


def _scalar_lookup(vertices, gradient, x_t, phi, region=None):
    """The lookup as one membership test and one inner product per cached
    vertex, most recent first."""
    if phi < 0:
        phi = 0.0
    for v in reversed(vertices):
        if region is not None and not _scalar_contains(region, v):
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
        n = len(gradient)
        wide = box(-10 * np.ones(n), 10 * np.ones(n))
        cache = VertexCache()
        inserted = [v for v in vertices if cache.insert(v, wide)]
        for reg in (region, None):
            got = lazy_lookup(cache, gradient, x_t, phi, region=reg)
            want = _scalar_lookup(inserted, gradient, x_t, phi, region=reg)
            if want is None:
                assert got is None
            else:
                assert got is not None and got.tobytes() == want.tobytes()
