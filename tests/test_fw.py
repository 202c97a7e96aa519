import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfw import fw, lmo
from quadfw.fw import ActiveSet, RegionInfeasible, bpcg, secant_step
from quadfw.lmo import MipResult, Region, VertexCache, vertex_key
from quadfw.model import Problem, QuadConstraint, VarKind
from quadfw.penalty import SmoothObjective

from conftest import dense_terms, random_miqcqp


def box_region(lb, ub, integer=False):
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    mask = np.full(len(lb), integer)
    return Region(lb, ub, integer_mask=mask)


def quadratic_objective(q_diag, center, n):
    """f(x) = sum q_k (x_k - c_k)^2 in term-convention form."""
    terms = [(k, k, q_diag[k]) for k in range(n)]
    d = np.array([-2.0 * q_diag[k] * center[k] for k in range(n)])
    c0 = float(sum(q_diag[k] * center[k] ** 2 for k in range(n)))
    prob = Problem(n=n, terms_obj=terms, d=d, c0=c0, constraints=[],
                   lb=np.zeros(n), ub=np.ones(n),
                   integrality=[VarKind.CONTINUOUS] * n)
    return SmoothObjective(prob, p=1.5)


def validate(active, tol=1e-9):
    """The active set's weights are nonnegative and sum to one."""
    assert all(w >= -tol for w in active.weights)
    assert abs(sum(active.weights) - 1.0) <= tol


class TestSecant:
    def test_hand_root(self):
        gamma = secant_step(lambda g: 2.0 * (g - 0.3), 1.0)
        assert gamma == pytest.approx(0.3, abs=1e-9)

    def test_no_descent_at_origin(self):
        assert secant_step(lambda g: 1.0 + g, 1.0) == 0.0

    def test_clamped_to_max(self):
        # minimizer of (g - 2)^2 lies beyond gamma_max
        assert secant_step(lambda g: 2.0 * (g - 2.0), 1.0) == 1.0

    def test_zero_interval(self):
        assert secant_step(lambda g: g, 0.0) == 0.0

    @pytest.mark.parametrize("a, c, k", [(0.3, 1.0, 40.0), (0.7, 66.0, 5000.0)])
    def test_root_past_a_flat_kink(self, a, c, k):
        # phi'(g) = -c + k sqrt(max(g - a, 0)) is flat up to the kink at a,
        # where a penalized row with p = 1.5 turns active, and steep after it;
        # an unbracketed secant stops early in the flat part.
        gamma = secant_step(lambda g: -c + k * math.sqrt(max(g - a, 0.0)), 1.0)
        assert abs(gamma - (a + (c / k) ** 2)) <= 1e-9


class TestLineSearch:
    def test_penalized_line_search_makes_no_gradient_call(self):
        rng = np.random.default_rng(43)
        active = 0
        for _ in range(20):
            prob = random_miqcqp(rng, 5, n_quad=3, anchored=False)
            obj = SmoothObjective(prob, p=1.5)
            x = rng.uniform(prob.lb - 1, prob.ub + 1)
            d = -obj.gradient(x)
            f_x = obj.value(x)
            active += int(np.any(obj.constraint_values(x) > 0.0))
            evals = obj.n_gradient_evals
            gamma = fw._line_search(obj, x, d, 1.0, f_x)
            assert obj.n_gradient_evals == evals
            assert gamma > 0.0
            assert obj.value(x + gamma * d) <= f_x
        assert active > 0


class TestActiveSet:
    def test_invariants_after_steps(self):
        rng = np.random.default_rng(3)
        active = ActiveSet.from_vertex(np.array([0.0, 0.0]))
        active.fw_step(np.array([1.0, 0.0]), 0.5)
        validate(active)
        active.fw_step(np.array([0.0, 1.0]), 0.25)
        validate(active)
        away, local = active.extremes(np.array([1.0, -1.0]))
        active.pairwise_step(away, local, active.weights[away] / 2)
        validate(active)
        assert sum(active.weights) == pytest.approx(1.0, abs=1e-9)

    def test_drop_on_full_transfer(self):
        active = ActiveSet([np.array([0.0]), np.array([1.0])], [0.4, 0.6])
        active.pairwise_step(0, 1, 0.4)
        assert len(active) == 1
        assert np.array_equal(active.vertices[0], [1.0])
        assert active.find(np.array([0.0])) is None

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError):
            ActiveSet([np.array([1.0]), np.array([1.0])], [0.5, 0.5])

    def test_gamma_one_collapses(self):
        active = ActiveSet.from_vertex(np.array([0.0]))
        active.fw_step(np.array([1.0]), 1.0)
        assert len(active) == 1
        assert active.iterate()[0] == 1.0


class TestBpcg:
    def test_converges_to_interior_optimum(self):
        obj = quadratic_objective([1.0, 1.0], [0.5, 0.5], 2)
        res = bpcg(obj, box_region([0, 0], [1, 1]), max_iter=200, eps=1e-6)
        assert np.max(np.abs(res.x - 0.5)) <= 1e-4
        assert res.status == "converged"

    def test_warm_optimal_vertex_linear_objective(self):
        prob = Problem(n=2, terms_obj=[], d=np.array([1.0, 1.0]), c0=0.0,
                       constraints=[], lb=np.zeros(2), ub=np.ones(2),
                       integrality=[VarKind.CONTINUOUS] * 2)
        obj = SmoothObjective(prob, p=1.5)
        warm = ActiveSet.from_vertex(np.array([0.0, 0.0]))
        res = bpcg(obj, box_region([0, 0], [1, 1]), warm=warm, max_iter=10, eps=1e-6)
        assert res.iterations <= 2
        assert res.dual_gap <= 1e-6

    def test_gap_from_a_failed_lmo_does_not_converge(self, monkeypatch):
        # The 2nd LP of the first MIP search fails, as in test_lmo's
        # test_failed_lp_is_reported_as_error: that search returns (1, 0),
        # status error, which is the warm start, so the gap reads 0 though
        # (0, 1) at -1.1 is the minimizer.  The run must go on, and its
        # next LMO call finds (0, 1).
        real = lmo.solve_lp
        calls = []

        def failing_second(*args):
            calls.append(1)
            if len(calls) == 2:
                return lmo.LpResult(None, np.inf, "error")
            return real(*args)

        monkeypatch.setattr(lmo, "solve_lp", failing_second)
        prob = Problem(n=2, terms_obj=[], d=np.array([-1.0, -1.1]), c0=0.0,
                       constraints=[], lb=np.zeros(2), ub=np.ones(2),
                       integrality=[VarKind.BINARY] * 2)
        region = Region(np.zeros(2), np.ones(2), [[2.0, 2.0]], [3.0], np.ones(2, dtype=bool))
        warm = ActiveSet.from_vertex(np.array([1.0, 0.0]))
        res = bpcg(SmoothObjective(prob, p=1.5), region, warm=warm, max_iter=1, eps=1e-6)
        assert res.status != "converged"
        assert np.array_equal(res.vertices[0], [1.0, 0.0])
        assert any(np.array_equal(v, [0.0, 1.0]) for v in res.vertices)

    def test_single_iteration_budget(self):
        obj = quadratic_objective([1.0, 1.0], [0.5, 0.5], 2)
        res = bpcg(obj, box_region([0, 0], [1, 1]), max_iter=1, eps=1e-12)
        assert res.iterations == 1
        validate(res.active_set)

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            m_mat = rng.normal(size=(n, n))
            q_mat = m_mat @ m_mat.T + 0.5 * np.eye(n)  # convex
            d = rng.normal(size=n)
            prob = Problem(
                n=n,
                terms_obj=[(i, i, q_mat[i, i] / 2) for i in range(n)]
                + [(i, j, q_mat[i, j]) for i in range(n) for j in range(i + 1, n)],
                d=d, c0=0.0, constraints=[], lb=np.zeros(n), ub=np.ones(n),
                integrality=[VarKind.CONTINUOUS] * n,
            )
            obj = SmoothObjective(prob, p=1.5)
            res = bpcg(obj, box_region(np.zeros(n), np.ones(n)),
                       max_iter=4000, eps=1e-8)
            # independent oracle: projected gradient descent
            lipschitz = float(np.linalg.eigvalsh(q_mat)[-1])
            x = 0.5 * np.ones(n)
            for _ in range(200000):
                x_new = np.clip(x - (q_mat @ x + d) / lipschitz, 0.0, 1.0)
                if np.max(np.abs(x_new - x)) < 1e-12:
                    x = x_new
                    break
                x = x_new
            oracle_val = 0.5 * x @ q_mat @ x + d @ x
            assert obj.value(res.x) <= oracle_val + 1e-6

    def test_monotone_on_nonconvex(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            prob = Problem(
                n=n, terms_obj=dense_terms(rng, n), d=rng.normal(size=n), c0=0.0,
                constraints=[QuadConstraint(dense_terms(rng, n), {},
                                            float(rng.normal()))],
                lb=np.zeros(n), ub=np.ones(n),
                integrality=[VarKind.CONTINUOUS] * n,
            )
            obj = SmoothObjective(prob, p=1.3)
            res = bpcg(obj, box_region(np.zeros(n), np.ones(n)), max_iter=40, eps=1e-9)
            diffs = np.diff(res.objective_trace)
            assert np.all(diffs <= 1e-12)

    def test_vertices_pass_region_membership(self):
        rng = np.random.default_rng(23)
        n = 4
        region = Region(np.zeros(n), np.ones(n), [rng.normal(size=n)], [1.0],
                        np.ones(n, dtype=bool))
        obj = quadratic_objective(np.ones(n), 0.3 * np.ones(n), n)
        res = bpcg(obj, region, max_iter=20, eps=1e-8)
        for v in res.vertices:
            assert region.contains(v, tol=1e-7, int_tol=1e-6)

    def test_infeasible_region_propagates(self):
        region = Region(np.zeros(1), np.ones(1), [[1.0]], [-1.0], np.zeros(1, dtype=bool))
        obj = quadratic_objective([1.0], [0.5], 1)
        with pytest.raises(RegionInfeasible):
            bpcg(obj, region, max_iter=5, eps=1e-6)

    def test_cache_reuse_avoids_lmo_calls(self):
        obj = quadratic_objective([1.0, 1.0], [0.5, 0.5], 2)
        cache = VertexCache()
        region = box_region([0, 0], [1, 1])
        first = bpcg(obj, region, max_iter=50, eps=1e-6, cache=cache)
        assert len(cache) > 0
        second = bpcg(obj, region, max_iter=50, eps=1e-6, cache=cache)
        assert second.lmo_calls <= first.lmo_calls

    def test_cached_vertex_without_progress_pays_one_fresh_call(self, monkeypatch):
        # min -x0 - x1 over two binaries starts at its minimizer (1, 1).
        # Every MIP search stops with its incumbent ("timeout"), so the gap
        # of 0 is not proven and the run goes on.  The lookup's threshold
        # is then 0, which the cached (1, 1) itself passes, but the step
        # toward it has gamma = 0: bpcg pays for one fresh MIP call.
        log = []
        real_mip, real_lookup = fw.mip_lmo, fw.lazy_lookup

        def stopped(direction, region, deadline=math.inf):
            log.append("mip")
            res = real_mip(direction, region, deadline=deadline)
            return MipResult(res.point, res.value, "timeout")

        def lookup(*args):
            v = real_lookup(*args)
            log.append("lazy miss" if v is None else "lazy hit")
            return v

        monkeypatch.setattr(fw, "mip_lmo", stopped)
        monkeypatch.setattr(fw, "lazy_lookup", lookup)
        prob = Problem(n=2, terms_obj=[], d=np.array([-1.0, -1.0]), c0=0.0,
                       constraints=[], lb=np.zeros(2), ub=np.ones(2),
                       integrality=[VarKind.BINARY] * 2)
        res = bpcg(SmoothObjective(prob, p=1.5), box_region([0, 0], [1, 1], integer=True),
                   max_iter=1, eps=1e-6, cache=VertexCache())
        # the first vertex, the first FW vertex, then the lazy hit's fallback
        assert log == ["mip", "mip", "lazy hit", "mip"]
        assert res.lmo_calls == 3
        assert res.status == "ok"
        assert np.array_equal(res.x, [1.0, 1.0])

    def test_final_value_never_worse_than_start(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = 3
            obj = quadratic_objective(rng.uniform(0.5, 2, n), rng.uniform(0, 1, n), n)
            warm = ActiveSet.from_vertex(np.ones(n))
            start_val = obj.value(np.ones(n))
            res = bpcg(obj, box_region(np.zeros(n), np.ones(n)), warm=warm,
                       max_iter=7, eps=1e-10)
            assert obj.value(res.x) <= start_val + 1e-12


def _nonconvex_objective(q_flat, d) -> SmoothObjective:
    n = len(d)
    q_mat = np.reshape(q_flat, (n, n))
    terms = [(i, i, q_mat[i, i]) for i in range(n)]
    terms += [(i, j, q_mat[i, j] + q_mat[j, i]) for i in range(n) for j in range(i + 1, n)]
    prob = Problem(n=n, terms_obj=[t for t in terms if t[2] != 0.0],
                   d=np.asarray(d, dtype=float), c0=0.0, constraints=[],
                   lb=np.zeros(n), ub=np.ones(n),
                   integrality=[VarKind.CONTINUOUS] * n)
    return SmoothObjective(prob, p=1.5)


@st.composite
def _row_region_case(draw):
    """A mixed-integer row region around an integer anchor point, and a
    possibly nonconvex quadratic objective."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 3))
    coef = st.floats(-3.0, 3.0, allow_nan=False)
    lb = np.array(draw(st.lists(st.integers(-2, 1), min_size=n, max_size=n)), dtype=float)
    ub = lb + np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), dtype=float)
    anchor = np.array([draw(st.integers(int(lo), int(hi))) for lo, hi in zip(lb, ub)], dtype=float)
    a = np.array(draw(st.lists(coef, min_size=m * n, max_size=m * n))).reshape(m, n)
    slack = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=m, max_size=m)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    region = Region(lb, ub, a, a @ anchor + slack, mask)
    q_flat = draw(st.lists(coef, min_size=n * n, max_size=n * n))
    d = draw(st.lists(coef, min_size=n, max_size=n))
    return region, _nonconvex_objective(q_flat, d)


class TestIterateStaysInRegion:
    @settings(deadline=None, max_examples=60)
    @given(_row_region_case())
    def test_iterate_satisfies_rows_and_bounds(self, case):
        region, obj = case
        res = bpcg(obj, region, max_iter=20, eps=1e-8, cache=VertexCache())
        assert region.contains(res.x)

    @settings(deadline=None, max_examples=60)
    @given(_row_region_case())
    def test_every_vertex_found_or_held_is_cached(self, case):
        region, obj = case
        cache = VertexCache()
        res = bpcg(obj, region, max_iter=20, eps=1e-8, cache=cache)
        # the cache keeps one row per vertex_key: a vertex that differs from
        # a cached one only below the key's 1e-9 rounding is that vertex
        keys = {vertex_key(row) for row in cache.vertices}
        for v in res.vertices + res.active_set.vertices:
            assert vertex_key(v) in keys

    def test_lmo_without_vertex_never_enters_the_active_set(self, monkeypatch):
        rng = np.random.default_rng(41)
        n = 5
        region = Region(np.zeros(n), 2 * np.ones(n), rng.normal(size=(3, n)),
                        np.ones(3), np.ones(n, dtype=bool))
        obj = _nonconvex_objective(rng.normal(size=n * n), rng.normal(size=n))
        calls = bpcg(obj, region, max_iter=30, eps=1e-9).lmo_calls
        assert calls >= 3
        real = fw.mip_lmo
        for k in range(1, calls + 1):
            count = 0

            def stops_on_kth_call(direction, region, deadline=None):
                nonlocal count
                count += 1
                if count == k:
                    return MipResult(None, math.inf, "timeout", trusted=False)
                return real(direction, region, deadline=deadline)

            monkeypatch.setattr(fw, "mip_lmo", stops_on_kth_call)
            try:
                res = bpcg(obj, region, max_iter=30, eps=1e-9)
            except RegionInfeasible:
                continue
            assert region.contains(res.x)
