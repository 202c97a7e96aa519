import itertools
import math
import time

import numpy as np
import pytest

from quadfw import fw
from quadfw.bnb import (
    IncumbentStore,
    Node,
    RestartState,
    SolutionPool,
    SolveTrace,
    branch,
    restart_policy,
    solve,
)
from quadfw.config import Config
from quadfw.fw import ActiveSet
from quadfw.lmo import MipResult, most_fractional
from quadfw.model import Problem, QuadConstraint, VarKind, check_feasibility
from quadfw.oracle import brute_force
from quadfw.portfolio import run_portfolio

from conftest import random_binary_qp, random_miqcqp


def binary_problem(n, terms, d, cons=()):
    return Problem(
        n=n, terms_obj=terms, d=np.asarray(d, dtype=float), c0=0.0,
        constraints=list(cons), lb=np.zeros(n), ub=np.ones(n),
        integrality=[VarKind.BINARY] * n,
    )


class TestSelectBranching:
    def test_most_fractional_wins(self):
        k = most_fractional(np.array([0.5, 0.9]), np.array([True, True]))
        assert k == 0

    def test_integral_point(self):
        assert most_fractional(np.array([1.0, 0.0]), np.array([True, True])) is None

    def test_fractional_continuous_ignored(self):
        assert most_fractional(np.array([0.5, 1.0]), np.array([False, True])) is None

    def test_tie_goes_to_lowest_index(self):
        assert most_fractional(np.array([0.5, 0.5]), np.array([True, True])) == 0


class TestBranch:
    def parent(self, vertices, weights):
        active = ActiveSet(vertices, weights)
        return Node(np.zeros(2), np.ones(2), active, depth=1, index=0)

    def test_partition_by_coordinate(self):
        node = self.parent([np.array([0.0, 1.0]), np.array([1.0, 0.0])], [0.4, 0.6])
        down, up = branch(node, 0, np.array([0.4, 0.6]))
        assert down.ub[0] == 0.0 and up.lb[0] == 1.0
        assert len(down.active_set) == 1
        assert np.array_equal(down.active_set.vertices[0], [0.0, 1.0])
        assert len(up.active_set) == 1
        assert down.depth == node.depth + 1
        # renormalized weights
        assert down.active_set.weights == [1.0]
        assert up.active_set.weights == [1.0]

    def test_empty_child_gets_no_set(self):
        node = self.parent([np.array([1.0, 0.0])], [1.0])
        down, up = branch(node, 0, np.array([0.4, 0.0]))
        assert down.active_set is None
        assert up.active_set is not None

    def test_weights_kept_when_same_child(self):
        node = self.parent([np.array([0.0, 0.0]), np.array([0.0, 1.0])], [0.25, 0.75])
        down, _ = branch(node, 0, np.array([0.4, 0.3]))
        assert down.active_set.weights == pytest.approx([0.25, 0.75])

    def test_child_bounds_nest_and_integral(self):
        node = self.parent([np.array([0.0, 0.0])], [1.0])
        down, up = branch(node, 1, np.array([0.0, 0.7]))
        assert np.all(down.lb >= node.lb) and np.all(down.ub <= node.ub)
        assert np.all(up.lb >= node.lb) and np.all(up.ub <= node.ub)
        assert down.ub[1] == 0.0 and up.lb[1] == 1.0


class TestRestartPolicy:
    def config(self, r=10):
        return Config(restart_interval=r, workers=1)

    def test_first_restart_warm_with_incumbent(self):
        state = RestartState(node_count=10, restart_count=0, incumbent_available=True)
        assert restart_policy(state, self.config()) == "restart_warm"

    def test_random_without_incumbent(self):
        state = RestartState(node_count=10, restart_count=0, incumbent_available=False)
        assert restart_policy(state, self.config()) == "restart_random"

    def test_continue_between_intervals(self):
        state = RestartState(node_count=9, restart_count=0, incumbent_available=True)
        assert restart_policy(state, self.config()) == "continue"

    def test_alternation(self):
        cfg = self.config()
        state = RestartState(node_count=20, restart_count=1,
                             incumbent_available=True, first_kind="warm")
        assert restart_policy(state, cfg) == "restart_random"
        state = RestartState(node_count=30, restart_count=2,
                             incumbent_available=True, first_kind="warm")
        assert restart_policy(state, cfg) == "restart_warm"


class TestSolve:
    def test_single_binary_solved_at_root(self):
        p = binary_problem(1, [], [1.0])
        trace = solve(p, Config(workers=1, time_limit=5.0, node_limit=10))
        assert trace.incumbent_value == 0.0
        assert trace.node_count == 1
        assert trace.termination == "exhausted"

    def test_integral_root_does_not_branch(self):
        # linear objective: the relaxation lands on a vertex
        p = binary_problem(2, [], [-1.0, -2.0])
        trace = solve(p, Config(workers=1, time_limit=5.0, node_limit=10))
        assert trace.node_count == 1
        assert trace.incumbent_value == -3.0

    def test_time_limit_zero(self):
        p = binary_problem(2, [], [-1.0, -2.0])
        trace = solve(p, Config(workers=1, time_limit=0.0))
        assert trace.incumbent_value is None
        assert trace.node_count == 0
        assert trace.termination == "time_limit"

    def test_no_bound_pruning_expands_children(self):
        # f = (x0 - 0.5)^2: the root incumbent (0.25) equals both children's
        # relaxation values, so a bound-pruning search would stop at 1 node
        p = binary_problem(2, [(0, 0, 1.0)], [-1.0, 0.0])
        p.c0 = 0.25
        trace = solve(p, Config(workers=1, time_limit=5.0, node_limit=50,
                                enable_lns=False))
        assert trace.node_count >= 3
        assert trace.incumbent_value == pytest.approx(0.25)

    def test_root_infeasible(self):
        p = binary_problem(1, [], [1.0],
                           cons=[QuadConstraint([], {0: 1.0}, 2.0)])  # x <= -2
        trace = solve(p, Config(workers=1, time_limit=5.0, node_limit=10))
        assert trace.incumbent_value is None
        assert trace.termination == "root_infeasible"

    @pytest.mark.parametrize("late, expected", [(False, "root_infeasible"), (True, "time_limit")])
    def test_root_without_vertex_past_the_deadline_is_a_time_limit(self, monkeypatch, late, expected):
        def no_vertex(direction, region, deadline=None):
            if late:
                time.sleep(max(0.0, deadline - time.monotonic()) + 0.05)
            return MipResult(None, math.inf, "timeout", trusted=False)

        monkeypatch.setattr(fw, "mip_lmo", no_vertex)
        p = binary_problem(2, [], [-1.0, -2.0])
        trace = solve(p, Config(workers=1, time_limit=0.5 if late else 60.0, node_limit=10))
        assert trace.incumbent_value is None
        assert trace.termination == expected

    def test_node_limited_solve_ignores_the_wall_clock(self, monkeypatch):
        # a clock that moves 0.25 s per reading must not change a one-worker,
        # node-limited search: only the run deadline reads the wall clock
        problem = random_miqcqp(np.random.default_rng(75), 8, n_quad=2, n_lin=2)
        cfg = Config(workers=1, time_limit=1e6, node_limit=8, seed=3)
        real = run_portfolio(problem, cfg)
        start = time.monotonic()
        readings = itertools.count()
        monkeypatch.setattr(time, "monotonic", lambda: start + 0.25 * next(readings))
        fast = run_portfolio(problem, cfg)
        assert next(readings) > 100
        assert (fast.nodes, fast.best_objective) == (real.nodes, real.best_objective)

    def test_incumbents_pass_original_feasibility(self):
        rng = np.random.default_rng(3)
        p = random_binary_qp(rng, 6)
        trace = solve(p, Config(workers=1, time_limit=5.0, node_limit=60, seed=5))
        assert trace.events
        for x in trace.event_points:
            assert check_feasibility(p, x, 1e-6, 1e-6).feasible

    def test_trace_strictly_decreasing(self):
        rng = np.random.default_rng(4)
        p = random_binary_qp(rng, 7)
        trace = solve(p, Config(workers=1, time_limit=5.0, node_limit=80, seed=2))
        values = [v for (_, v) in trace.events]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_determinism_with_fixed_seed(self):
        rng = np.random.default_rng(11)
        p = random_binary_qp(rng, 6)
        cfg = Config(workers=1, time_limit=60.0, node_limit=40, seed=9,
                     restart_interval=10)
        t1 = solve(p, cfg)
        t2 = solve(p, cfg)
        assert [v for (_, v) in t1.events] == [v for (_, v) in t2.events]
        assert t1.node_count == t2.node_count
        assert t1.restart_count == t2.restart_count

    def test_restart_counter_formula(self):
        rng = np.random.default_rng(13)
        p = random_binary_qp(rng, 7)
        cfg = Config(workers=1, time_limit=60.0, node_limit=47, seed=1,
                     restart_interval=10)
        trace = solve(p, cfg)
        assert trace.restart_count == trace.node_count // 10

    def test_finds_oracle_optimum_on_small_qp(self):
        rng = np.random.default_rng(17)
        p = random_binary_qp(rng, 6)
        oracle = brute_force(p)
        trace = solve(p, Config(workers=1, time_limit=10.0, node_limit=150, seed=0))
        assert trace.incumbent_value == pytest.approx(oracle.value, abs=1e-7)

    def test_children_inherit_relaxation_active_set(self, monkeypatch):
        import quadfw.bnb as bnb_mod

        p = binary_problem(2, [(0, 0, 1.0)], [-1.0, 0.0])
        p.c0 = 0.25  # f = (x0 - 0.5)^2: fractional root iterate
        warm_sizes = []
        orig = bnb_mod.bpcg

        def spy(*args, **kwargs):
            warm = kwargs.get("warm")
            warm_sizes.append(0 if warm is None else len(warm))
            return orig(*args, **kwargs)

        monkeypatch.setattr(bnb_mod, "bpcg", spy)
        trace = solve(p, Config(workers=1, time_limit=5.0, node_limit=10,
                                enable_lns=False))
        assert trace.node_count >= 3
        assert any(s > 0 for s in warm_sizes[1:])

    def test_qubo_improver_on_bipartite_instance(self):
        # x0 connected to x1, x2: bipartite; improver refines incumbents
        p = binary_problem(3, [(0, 1, 2.0), (0, 2, -3.0)], [-0.5, 0.4, 0.2])
        cfg = Config(workers=1, time_limit=5.0, node_limit=30,
                     enable_qubo_bipartite=True)
        trace = solve(p, cfg)
        oracle = brute_force(p)
        assert trace.incumbent_value == pytest.approx(oracle.value, abs=1e-9)

    def test_qubo_improver_skipped_on_non_bipartite(self):
        triangle = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
        p = binary_problem(3, triangle, [-0.6, -0.6, -0.6])
        cfg = Config(workers=1, time_limit=5.0, node_limit=30,
                     enable_qubo_bipartite=True)
        trace = solve(p, cfg)  # must not raise
        assert trace.incumbent_value is not None

    def test_store_publishes_incumbents(self):
        rng = np.random.default_rng(19)
        p = random_binary_qp(rng, 5)
        store = IncumbentStore()
        trace = solve(p, Config(workers=1, time_limit=5.0, node_limit=30), store=store)
        value, point = store.read()
        assert value == trace.incumbent_value
        assert point is not None


class TestIncumbentStore:
    def test_compare_and_improve(self):
        store = IncumbentStore()
        assert store.offer(5.0, np.array([1.0]))
        assert not store.offer(6.0, np.array([2.0]))
        assert store.offer(4.0, np.array([3.0]))
        value, point = store.read()
        assert value == 4.0
        assert point[0] == 3.0


class TestSolutionPool:
    @staticmethod
    def pool(readings, horizon):
        p = binary_problem(2, [(0, 1, 1.0)], [-1.0, -2.0])
        clock = iter(readings)
        store = IncumbentStore()
        pool = SolutionPool(p, p, lambda x: x, lambda x: x, clock=lambda: next(clock),
                            trace=SolveTrace(), store=store, horizon=horizon)
        return pool, store

    def test_refuses_incumbent_after_horizon(self):
        pool, store = self.pool([1.5], horizon=1.0)
        assert not pool.submit(np.array([0.0, 1.0]))
        assert pool.trace.events == []
        assert pool.trace.incumbent_value is None
        assert pool.incumbent_point is None
        assert store.read() == (np.inf, None)

    def test_event_stamped_with_the_checked_reading(self):
        pool, store = self.pool([0.75, 5.0], horizon=1.0)
        assert pool.submit(np.array([0.0, 1.0]))
        assert pool.trace.events == [(0.75, -2.0)]
        assert store.read()[0] == -2.0
