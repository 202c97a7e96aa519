import numpy as np
import pytest

from quadfw import lns
from quadfw.fw import ActiveSet
from quadfw.lmo import Region
from quadfw.lns import (
    NonlinearityGraph,
    SubproblemBudget,
    asens,
    bipartite_qubo_improve,
    follow_the_gradient,
    minimum_vertex_cover,
    probability_rounding,
    rins,
    standard_rounding,
    undercover,
)
from quadfw.model import Problem, VarKind, eval_objective
from quadfw.penalty import SmoothObjective


def make_problem(n, kinds, lb=None, ub=None, terms=(), d=None, cons=()):
    return Problem(
        n=n, terms_obj=list(terms),
        d=np.zeros(n) if d is None else np.asarray(d, dtype=float), c0=0.0,
        constraints=list(cons),
        lb=np.zeros(n) if lb is None else np.asarray(lb, dtype=float),
        ub=np.ones(n) if ub is None else np.asarray(ub, dtype=float),
        integrality=kinds,
    )


class TestStandardRounding:
    def test_nearest(self):
        p = make_problem(2, [VarKind.INTEGER] * 2, ub=[10, 10])
        out = standard_rounding(np.array([0.4, 2.6]), p)
        assert np.array_equal(out, [0.0, 3.0])

    def test_half_up(self):
        p = make_problem(1, [VarKind.INTEGER], ub=[10])
        assert standard_rounding(np.array([0.5]), p)[0] == 1.0

    def test_clamped(self):
        p = make_problem(1, [VarKind.INTEGER], ub=[2])
        assert standard_rounding(np.array([2.6]), p)[0] == 2.0

    def test_continuous_untouched(self):
        p = make_problem(2, [VarKind.CONTINUOUS, VarKind.INTEGER], ub=[5, 5])
        out = standard_rounding(np.array([1.3, 1.3]), p)
        assert out[0] == 1.3 and out[1] == 1.0


class TestProbabilityRounding:
    def test_degenerate_probabilities(self):
        p = make_problem(2, [VarKind.BINARY] * 2)
        rng = np.random.default_rng(0)
        cands = probability_rounding(np.array([1.0, 0.0]), p, trials=20, rng=rng)
        for cand in cands:
            assert cand[0] == 1.0 and cand[1] == 0.0

    def test_trial_count(self):
        p = make_problem(3, [VarKind.BINARY] * 3)
        rng = np.random.default_rng(1)
        cands = probability_rounding(np.array([0.5, 0.5, 0.5]), p, trials=10, rng=rng)
        assert len(cands) == 10

    def test_continuous_tail_solved(self):
        kinds = [VarKind.BINARY, VarKind.CONTINUOUS]
        # f = x1^2 - x1 x0: with x0 fixed, optimum x1 = x0/2
        p = make_problem(2, kinds, terms=[(1, 1, 1.0), (0, 1, -1.0)])
        obj = SmoothObjective(p, p=1.5)
        rng = np.random.default_rng(2)
        cands = probability_rounding(np.array([1.0, 0.9]), p, trials=3, rng=rng,
                                     objective=obj, box=(p.lb, p.ub))
        for cand in cands:
            assert cand[0] == 1.0
            assert cand[1] == pytest.approx(0.5, abs=1e-3)


class TestFollowTheGradient:
    def region(self):
        return Region(np.zeros(2), np.ones(2), integer_mask=np.ones(2, dtype=bool))

    def distance_objective(self):
        # f = ||x - 0.5||^2 = x0^2 - x0 + x1^2 - x1 + 0.5
        p = make_problem(2, [VarKind.BINARY] * 2,
                         terms=[(0, 0, 1.0), (1, 1, 1.0)], d=[-1.0, -1.0])
        p.c0 = 0.5
        return p, SmoothObjective(p, p=1.5)

    def test_two_step_cycle(self):
        prob, obj = self.distance_objective()
        visited = []
        best = follow_the_gradient(obj, self.region(), np.array([1.0, 1.0]),
                                   budget=50, submit=visited.append,
                                   value_fn=lambda x: eval_objective(prob, x))
        assert len(visited) == 2  # (0,0) then (1,1), then the cycle closes
        assert eval_objective(prob, best) == pytest.approx(0.5)

    def test_linear_objective_fixed_point(self):
        p = make_problem(2, [VarKind.BINARY] * 2, d=[1.0, -1.0])
        obj = SmoothObjective(p, p=1.5)
        visited = []
        follow_the_gradient(obj, self.region(), np.array([-1.0, -1.0]),
                            budget=50, submit=visited.append)
        assert len(visited) <= 2

    def test_budget_one_single_follow_step(self):
        prob, obj = self.distance_objective()
        visited = []
        follow_the_gradient(obj, self.region(), np.array([1.0, 1.0]), budget=1,
                            submit=visited.append)
        assert len(visited) == 2  # start vertex plus one follow step


class TestAsens:
    def three_var_problem(self):
        kinds = [VarKind.INTEGER, VarKind.INTEGER, VarKind.CONTINUOUS]
        return make_problem(3, kinds, ub=[5, 5, 1])

    def test_agreement_rule(self):
        active = ActiveSet([np.array([1.0, 0.0, 0.2]), np.array([1.0, 0.0, 0.7])],
                           [0.5, 0.5])
        captured = {}

        def fake_subsolve(sub, budget):
            captured["lb"] = sub.lb.copy()
            captured["ub"] = sub.ub.copy()
            return np.array([1.0, 0.0, 0.2])

        out = asens(active, self.three_var_problem(), SubproblemBudget(), fake_subsolve)
        assert out is not None
        assert captured["lb"][0] == captured["ub"][0] == 1.0
        assert captured["lb"][1] == captured["ub"][1] == 0.0
        assert captured["lb"][2] == pytest.approx(0.2)
        assert captured["ub"][2] == pytest.approx(0.7)

    def test_no_majority_no_fire(self):
        active = ActiveSet([np.array([1.0, 0.0, 0.2]), np.array([0.0, 1.0, 0.7])],
                           [0.5, 0.5])
        called = []
        out = asens(active, self.three_var_problem(), SubproblemBudget(),
                    lambda *_: called.append(1))
        assert out is None and not called

    def test_exactly_half_does_not_fire(self):
        kinds = [VarKind.INTEGER] * 4
        p = make_problem(4, kinds, ub=[3, 3, 3, 3])
        active = ActiveSet([np.array([1.0, 2.0, 0.0, 1.0]),
                            np.array([1.0, 2.0, 1.0, 2.0])], [0.5, 0.5])
        out = asens(active, p, SubproblemBudget(), lambda *_: 1)
        assert out is None

    def test_single_vertex_precondition(self):
        active = ActiveSet.from_vertex(np.array([1.0, 0.0, 0.2]))
        assert asens(active, self.three_var_problem(), SubproblemBudget(),
                     lambda *_: 1) is None


class TestRins:
    def test_agreement_rule(self):
        p = make_problem(3, [VarKind.INTEGER] * 3, ub=[5, 5, 5])
        captured = {}

        def fake_subsolve(sub, budget):
            captured["lb"] = sub.lb.copy()
            captured["ub"] = sub.ub.copy()
            return np.array([1.0, 0.0, 2.0])

        out = rins(np.array([1.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.4]), p,
                   SubproblemBudget(), fake_subsolve)
        assert out is not None
        assert captured["lb"][0] == captured["ub"][0] == 1.0
        assert captured["lb"][1] == captured["ub"][1] == 0.0
        assert captured["lb"][2] == 0.0 and captured["ub"][2] == 5.0

    def test_exactly_half_does_not_fire(self):
        p = make_problem(4, [VarKind.INTEGER] * 4, ub=[5] * 4)
        out = rins(np.array([1.0, 1.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.0, 0.0]),
                   p, SubproblemBudget(), lambda *_: 1)
        assert out is None

    def test_full_agreement_fixes_everything(self):
        p = make_problem(2, [VarKind.INTEGER] * 2, ub=[5, 5])
        captured = {}

        def fake_subsolve(sub, budget):
            captured["span"] = float(np.max(sub.ub - sub.lb))
            return sub.lb.copy()

        out = rins(np.array([2.0, 3.0]), np.array([2.0, 3.0]), p,
                   SubproblemBudget(), fake_subsolve)
        assert out is not None
        assert captured["span"] == 0.0


class TestUndercover:
    def test_path_graph_cover(self):
        # objective x0 x1 + x1 x2: minimum cover is {x1}
        graph = NonlinearityGraph.from_problem(
            make_problem(3, [VarKind.INTEGER] * 3, terms=[(0, 1, 1.0), (1, 2, 1.0)])
        )
        cover = minimum_vertex_cover(graph)
        assert cover == {1}
        assert graph.leaves_linear(cover)

    def test_square_forces_variable(self):
        graph = NonlinearityGraph.from_problem(
            make_problem(2, [VarKind.INTEGER] * 2, terms=[(0, 0, 1.0)])
        )
        cover = minimum_vertex_cover(graph)
        assert 0 in cover

    def test_no_quadratic_terms_single_milp(self):
        p = make_problem(2, [VarKind.INTEGER] * 2, ub=[3, 3], d=[1.0, -1.0])
        out = undercover(p, np.array([0.0, 0.0]), SubproblemBudget())
        assert out is not None
        assert eval_objective(p, out) == pytest.approx(-3.0)

    def test_fixed_subproblem_has_no_free_bilinear(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            terms = []
            for _ in range(int(rng.integers(1, 6))):
                i, j = sorted(rng.integers(0, n, size=2))
                terms.append((int(i), int(j), float(rng.normal())))
            p = make_problem(n, [VarKind.INTEGER] * n, ub=[3] * n, terms=terms)
            graph = NonlinearityGraph.from_problem(p)
            cover = minimum_vertex_cover(graph)
            assert graph.leaves_linear(cover)

    def test_end_to_end_on_miqp(self):
        # min x0 x1 - 2 x0 - x1 over {0..3}^2; either singleton covers the edge
        p = make_problem(2, [VarKind.INTEGER] * 2, ub=[3, 3],
                         terms=[(0, 1, 1.0)], d=[-2.0, -1.0])
        out = undercover(p, np.array([0.0, 0.0]), SubproblemBudget())
        assert out is not None
        # covered variable stays at the reference 0; the other is optimized
        if out[0] == 0.0:
            assert eval_objective(p, out) == pytest.approx(-3.0)  # x1 = 3
        else:
            assert out[1] == 0.0
            assert eval_objective(p, out) == pytest.approx(-6.0)  # x0 = 3


class TestUndercoverForcedVertices:
    def test_all_forced_needs_no_mip(self, monkeypatch):
        # every variable has a square term, so the cover is all of them
        rng = np.random.default_rng(3)
        n = 8
        terms = [(i, j, float(rng.uniform(0.5, 1.5))) for i in range(n) for j in range(i, n)]
        graph = NonlinearityGraph.from_problem(make_problem(n, [VarKind.BINARY] * n, terms=terms))

        def no_mip(*args, **kwargs):
            raise AssertionError("cover MIP solved although every vertex is forced")

        monkeypatch.setattr(lns, "mip_lmo", no_mip)
        assert minimum_vertex_cover(graph) == set(range(n))

    def test_forced_vertex_plus_uncovered_edges(self):
        # x0 is forced; the edges 0-1 and 0-3 are covered by it, the path
        # 1-2-3 is not, and its minimum cover is {2}
        terms = [(0, 0, 1.0), (0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
        graph = NonlinearityGraph.from_problem(make_problem(4, [VarKind.INTEGER] * 4, terms=terms))
        cover = minimum_vertex_cover(graph)
        assert cover == {0, 2}
        assert graph.leaves_linear(cover)


class TestBipartiteQubo:
    def test_hand_trace(self):
        terms = [(0, 1, 1.0)]
        d = np.array([-0.6, -0.6])
        out = bipartite_qubo_improve(terms, d, np.array([1.0, 1.0]))
        assert np.array_equal(out, [0.0, 1.0])
        value = sum(q * out[i] * out[j] for (i, j, q) in terms) + d @ out
        assert value == pytest.approx(-0.6)

    def test_local_optimum_unchanged(self):
        terms = [(0, 1, 2.0)]
        d = np.array([-1.0, 1.0])
        start = np.array([1.0, 0.0])
        out = bipartite_qubo_improve(terms, d, start)
        assert np.array_equal(out, start)

    def test_zero_objective_any_fixed_point(self):
        out = bipartite_qubo_improve([], np.zeros(3), np.array([1.0, 0.0, 1.0]))
        assert np.array_equal(out, [1.0, 0.0, 1.0])

    def test_non_bipartite_rejected(self):
        triangle = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
        with pytest.raises(ValueError):
            bipartite_qubo_improve(triangle, np.zeros(3), np.zeros(3))

    def test_objective_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n_left = int(rng.integers(1, 4))
            n = n_left + int(rng.integers(1, 4))
            terms = [(i, j, float(rng.normal()))
                     for i in range(n_left) for j in range(n_left, n)
                     if rng.random() < 0.7]
            d = rng.normal(size=n)
            x0 = rng.integers(0, 2, size=n).astype(float)

            def value(x):
                return sum(q * x[i] * x[j] for (i, j, q) in terms) + float(d @ x)

            out = bipartite_qubo_improve(terms, d, x0)
            assert value(out) <= value(x0) + 1e-12


def test_budget_validation():
    with pytest.raises(ValueError):
        SubproblemBudget(node_cap=0)
    with pytest.raises(ValueError):
        SubproblemBudget(time_slice=-1.0)
