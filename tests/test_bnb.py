import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from quadfw import bnb, fw, lns
from quadfw.bnb import (
    IncumbentStore,
    Node,
    SolutionPool,
    SolveTrace,
    branch,
    solve,
)
from quadfw.config import Config
from quadfw.fw import ActiveSet
from quadfw.lmo import MipResult, most_fractional, vertex_key
from quadfw.model import Problem, QuadConstraint, VarKind, assemble_symmetric, check_feasibility
from quadfw.oracle import brute_force
from quadfw.penalty import SmoothObjective
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
        assert most_fractional(np.array([0.1, 0.6, 2.4]), np.ones(3, dtype=bool)) == 1

    def test_matches_a_scalar_scan_without_near_ties(self):
        # on a 1/8 lattice two scores tie exactly or differ by 1/8, where
        # the vectorized rule and a scan that keeps the first best agree
        def scan(x, mask):
            best, best_score = None, 0.0
            for k in np.flatnonzero(mask):
                frac = x[k] - math.floor(x[k])
                if 1e-6 < frac < 1.0 - 1e-6 and min(frac, 1.0 - frac) > best_score + 1e-12:
                    best, best_score = int(k), min(frac, 1.0 - frac)
            return best

        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(0, 9))
            x = rng.integers(-16, 17, size=n) / 8.0
            mask = rng.random(n) < 0.7
            assert most_fractional(x, mask) == scan(x, mask)

    def test_near_tie_goes_to_lowest_index_within_1e12_of_the_largest(self):
        # a scan keeping the first score 1e-12 above the best so far gave 2
        x = np.array([0.3, 0.3 + 0.6e-12, 0.3 + 1.2e-12])
        assert most_fractional(x, np.ones(3, dtype=bool)) == 1


class TestBranch:
    def parent(self, vertices, weights):
        active = ActiveSet(vertices, weights)
        return Node(np.zeros(2), np.ones(2), active)

    def test_partition_by_coordinate(self):
        node = self.parent([np.array([0.0, 1.0]), np.array([1.0, 0.0])], [0.4, 0.6])
        down, up = branch(node, 0, np.array([0.4, 0.6]))
        assert down.ub[0] == 0.0 and up.lb[0] == 1.0
        assert len(down.active_set) == 1
        assert np.array_equal(down.active_set.vertices[0], [0.0, 1.0])
        assert len(up.active_set) == 1
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


class TestRestartKinds:
    """The kind of each restart root, read from the bpcg call that follows
    every R-th node (without LNS, every bpcg call is one node)."""

    def kinds(self, monkeypatch, accept_from, restarts, r=10):
        # f = sum (x_i - 1/2)^2 - n/4 over 8 binaries: every relaxation is
        # fractional, so no tree runs out before its restart
        n = 8
        p = binary_problem(n, [(i, i, 1.0) for i in range(n)], -np.ones(n))
        calls = []
        bpcg, submit = bnb.bpcg, bnb.SolutionPool.submit

        def logged(*args, **kwargs):
            calls.append(kwargs)
            return bpcg(*args, **kwargs)

        def gated(pool, x):
            # no incumbent before node accept_from
            return pool.trace.node_count >= accept_from and submit(pool, x)

        monkeypatch.setattr(bnb, "bpcg", logged)
        monkeypatch.setattr(bnb.SolutionPool, "submit", gated)
        cfg = Config(workers=1, time_limit=60.0, node_limit=r * restarts + 1,
                     restart_interval=r, enable_lns=False)
        trace = solve(p, cfg)
        assert trace.node_count == len(calls) == r * restarts + 1
        assert trace.restart_count == restarts
        kinds = []
        for call in calls[r::r]:
            if call["init_direction"] is not None:
                assert call["warm"] is None
                kinds.append("random")
            else:
                assert len(call["warm"]) == 1  # the incumbent
                kinds.append("warm")
        return kinds

    def test_warm_first_with_incumbent_then_alternate(self, monkeypatch):
        assert self.kinds(monkeypatch, accept_from=0, restarts=3) == ["warm", "random", "warm"]

    def test_random_first_without_incumbent_then_alternate(self, monkeypatch):
        # the first incumbent arrives between the first and second restart
        assert self.kinds(monkeypatch, accept_from=11, restarts=3) == ["random", "warm", "random"]

    def test_warm_turn_without_incumbent_goes_random(self, monkeypatch):
        # the second restart is a warm turn, but no incumbent exists until
        # node 21; the fourth, a warm turn again, has one
        assert self.kinds(monkeypatch, accept_from=21, restarts=4) == [
            "random", "random", "random", "warm"]


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
        assert trace.lmo_calls == 1  # the call that found no vertex

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

    def test_probability_rounding_keeps_the_rows(self, monkeypatch):
        # z binary, x in [0, 4], x <= 4 z, min -x + 10 z: with z rounded to
        # 0 the row pins x at 0, and a remainder solved without the row
        # would submit (0, 4)
        p = Problem(
            n=2, terms_obj=[], d=np.array([10.0, -1.0]), c0=0.0,
            constraints=[QuadConstraint([], {0: -4.0, 1: 1.0}, 0.0)],
            lb=np.zeros(2), ub=np.array([1.0, 4.0]),
            integrality=[VarKind.BINARY, VarKind.CONTINUOUS],
        )
        submitted = []
        real_rounding = lns.probability_rounding

        def recording(*args, submit, **kwargs):
            def recorded(x):
                submitted.append(np.array(x))
                submit(x)

            return real_rounding(*args, submit=recorded, **kwargs)

        monkeypatch.setattr(lns, "probability_rounding", recording)
        solve(p, Config(workers=1, time_limit=30.0, node_limit=1))
        assert submitted
        for x in submitted:
            assert check_feasibility(p, x).feasible, x

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

    def test_warm_root_puts_its_seed_in_the_cache(self, monkeypatch):
        seeds, warm_roots = [], []

        class Recording(ActiveSet):
            @classmethod
            def from_vertex(cls, v):
                seeds.append(np.array(v))
                return super().from_vertex(v)

        orig = bnb.bpcg

        def spy(objective, region, **kwargs):
            warm = kwargs.get("warm")
            keys = {vertex_key(row) for row in kwargs["cache"].vertices}
            if warm is not None and any(np.array_equal(warm.vertices[0], s) for s in seeds):
                warm_roots.append(warm)
            # every vertex an active set holds is in the cache, under the
            # cache's own identity (coordinates rounded at 1e-9)
            for v in [] if warm is None else warm.vertices:
                assert vertex_key(v) in keys
            return orig(objective, region, **kwargs)

        monkeypatch.setattr(bnb, "ActiveSet", Recording)
        monkeypatch.setattr(bnb, "bpcg", spy)
        # here an incumbent that no LMO returned seeds a warm root
        p = random_miqcqp(np.random.default_rng(4), 8, 2, 1)
        trace = solve(p, Config(workers=1, time_limit=60.0, node_limit=40, seed=1,
                                restart_interval=10))
        assert trace.restart_count == 4
        assert warm_roots

    def test_qubo_improver_on_bipartite_instance(self):
        # x0 connected to x1, x2: bipartite; the 1-flip descent refines
        # incumbents with no option set
        p = binary_problem(3, [(0, 1, 2.0), (0, 2, -3.0)], [-0.5, 0.4, 0.2])
        cfg = Config(workers=1, time_limit=5.0, node_limit=30)
        trace = solve(p, cfg)
        oracle = brute_force(p)
        assert trace.incumbent_value == pytest.approx(oracle.value, abs=1e-9)

    def test_descent_runs_once_per_new_incumbent(self, monkeypatch):
        inputs, outputs = [], []
        real = lns.one_flip_descent

        def spy(q_mat, d, x, lb, ub):
            inputs.append(x.copy())
            outputs.append(real(q_mat, d, x, lb, ub))
            return outputs[-1]

        monkeypatch.setattr(lns, "one_flip_descent", spy)
        p = random_binary_qp(np.random.default_rng(3), 12)  # dense, not bipartite
        trace = solve(p, Config(workers=1, time_limit=60.0, node_limit=30))
        # each incumbent is either a descent's result, or a point the
        # descent starts from at once; sub-solves run no descent
        calls = 0
        from_descent = 0
        for point in trace.event_points:
            if calls and np.array_equal(point, outputs[calls - 1]):
                from_descent += 1
                continue
            assert np.array_equal(point, inputs[calls])
            calls += 1
        assert calls == len(inputs) >= 1
        assert from_descent >= 1
        # so the last incumbent is a 1-flip local optimum
        q_mat = assemble_symmetric(p.n, p.terms_obj)
        best = trace.incumbent_point
        for i in range(p.n):
            y = best.copy()
            y[i] = 1.0 - y[i]
            assert 0.5 * y @ q_mat @ y + p.d @ y + p.c0 >= trace.incumbent_value - 1e-9

    @pytest.mark.parametrize("case", ["rows", "no_lns"])
    def test_no_descent_with_rows_or_without_lns(self, monkeypatch, case):
        calls = []
        monkeypatch.setattr(lns, "one_flip_descent", lambda *args: calls.append(1))
        p = random_binary_qp(np.random.default_rng(3), 6)
        cfg = Config(workers=1, time_limit=60.0, node_limit=20)
        if case == "rows":
            p = replace(p, constraints=[QuadConstraint([], {0: 1.0, 1: 1.0}, -1.0)])
        else:
            cfg = replace(cfg, enable_lns=False)
        assert solve(p, cfg).incumbent_value is not None
        assert not calls

    def test_store_publishes_incumbents(self):
        rng = np.random.default_rng(19)
        p = random_binary_qp(rng, 5)
        store = IncumbentStore()
        trace = solve(p, Config(workers=1, time_limit=5.0, node_limit=30), store=store)
        value, point = store.read()
        assert value == trace.incumbent_value
        assert point is not None


class TestDryStack:
    """A search with a store (a portfolio worker) whose stack runs dry
    pushes a random root; one past its deadline says ``time_limit``."""

    def test_a_dry_stack_gets_one_random_root(self, monkeypatch):
        # a linear objective: every relaxation ends at the vertex (1, 1),
        # so the reseed root leads back to it and the search ends
        directions = []
        bpcg = bnb.bpcg

        def logged(*args, **kwargs):
            directions.append(kwargs["init_direction"])
            return bpcg(*args, **kwargs)

        monkeypatch.setattr(bnb, "bpcg", logged)
        p = binary_problem(2, [], [-1.0, -2.0])
        cfg = Config(workers=1, time_limit=60.0, node_limit=10, enable_lns=False)
        trace = solve(p, cfg, store=IncumbentStore())
        assert (trace.node_count, trace.reseeds, trace.restart_count) == (2, 1, 0)
        assert trace.termination == "exhausted"
        assert directions[0] is None and directions[1] is not None
        assert [v for _, v in trace.events] == [-3.0]
        # without a store (an LNS sub-solve) the dry stack ends the search
        trace = solve(p, cfg)
        assert (trace.node_count, trace.reseeds, trace.termination) == (1, 0, "exhausted")

    def test_reseeds_stop_at_a_root_that_brings_nothing_new(self, monkeypatch):
        # every node is a leaf, and a node adds a pool entry only before
        # node 9: reseed roots 1 to 8 go on, the one at node 9 stops the
        # reseeding, and the restart root at node 10 is the last node
        def scripted(pool, x):
            if pool.trace.node_count < 9:
                pool.entries.add(len(pool.entries))
            return False

        monkeypatch.setattr(bnb, "most_fractional", lambda x, mask: None)
        monkeypatch.setattr(bnb.SolutionPool, "submit", scripted)
        n = 8
        p = binary_problem(n, [(i, i, 1.0) for i in range(n)], -np.ones(n))
        cfg = Config(workers=1, time_limit=60.0, node_limit=30, restart_interval=10,
                     enable_lns=False)
        trace = solve(p, cfg, store=IncumbentStore())
        assert (trace.node_count, trace.reseeds, trace.restart_count) == (11, 9, 1)
        assert trace.termination == "exhausted"

    def test_the_search_without_reseeds_is_a_prefix(self):
        # the store is read once, empty: the two searches agree until the
        # first dry stack, where only the one with a store goes on
        p = random_binary_qp(np.random.default_rng(0), 10)
        cfg = Config(workers=1, time_limit=60.0, node_limit=60, seed=0)
        alone = solve(p, cfg)
        worker = solve(p, cfg, store=IncumbentStore())
        assert alone.termination == "exhausted" and alone.reseeds == 0
        assert worker.reseeds >= 1 and worker.node_count > alone.node_count
        values = [v for _, v in worker.events]
        assert values[:len(alone.events)] == [v for _, v in alone.events]

    def test_a_root_cut_short_by_the_deadline_is_a_time_limit(self, monkeypatch):
        # the first random restart root (node 200) sleeps past the deadline,
        # so its relaxation stops at its first vertex, which is integral:
        # the stack is empty when the search stops, and the stop is the
        # deadline's
        bpcg, first, delayed = bnb.bpcg, {}, []

        def late(*args, **kwargs):
            # the first call is the first root's: its cache is the top search's
            top = first.setdefault("cache", kwargs["cache"])
            if kwargs["cache"] is top and kwargs["init_direction"] is not None and not delayed:
                delayed.append(True)
                time.sleep(max(0.0, kwargs["deadline"] - time.monotonic()) + 0.05)
            return bpcg(*args, **kwargs)

        monkeypatch.setattr(bnb, "bpcg", late)
        p = random_binary_qp(np.random.default_rng(9), 80)
        report, (trace,) = run_portfolio(p, Config(workers=1, time_limit=3.0, seed=0),
                                         return_details=True)
        assert delayed
        assert trace.node_count == 201
        assert trace.termination == report.termination == "time_limit"


class TestStallLimit:
    """``solve(stall_nodes=N)``, as LNS sub-solves run, stops once N nodes
    in a row have brought no new incumbent below ``cutoff``."""

    @staticmethod
    def sub_solve(monkeypatch, stall_nodes):
        """Solve TestSubsolveReuse's sub-problem without LNS; returns the
        trace and the index of each node that found an incumbent (its one
        incumbent comes at node 8, and its tree runs dry at node 31)."""
        gains = []
        submit = bnb.SolutionPool.submit

        def recorded(pool, x):
            won = submit(pool, x)
            if won:
                gains.append(pool.trace.node_count)
            return won

        monkeypatch.setattr(bnb.SolutionPool, "submit", recorded)
        p = random_miqcqp(np.random.default_rng(2), 16, n_quad=3, n_lin=2)
        ub = p.ub.copy()
        ub[0] = p.lb[0]
        cfg = Config(workers=1, time_limit=60.0, seed=4, enable_lns=False, node_limit=60)
        trace = solve(replace(p, ub=ub), cfg, objective=SmoothObjective(p, 1.5),
                      stall_nodes=stall_nodes)
        return trace, gains

    def test_stops_n_nodes_after_the_last_improvement(self, monkeypatch):
        trace, gains = self.sub_solve(monkeypatch, 10)
        assert gains and gains[-1] > 0  # the count restarted at the improvement
        assert trace.termination == "stalled"
        assert trace.node_count == gains[-1] + 1 + 10

    def test_without_an_incumbent_stops_at_n_nodes(self, monkeypatch):
        trace, gains = self.sub_solve(monkeypatch, 5)
        assert gains == [] and trace.events == []
        assert (trace.node_count, trace.termination) == (5, "stalled")

    @staticmethod
    def scripted_solve(monkeypatch, gains, stall_nodes, cutoff=math.inf):
        """Solve a problem whose tree outlives 60 nodes (every relaxation
        is fractional) with a pool that finds an incumbent of value
        ``-node`` at each node index in ``gains`` and nowhere else."""
        pending = set(gains)

        def scripted(pool, x):
            node = pool.trace.node_count
            if node not in pending:
                return False
            pending.discard(node)
            pool.trace.events.append((0.0, -float(node)))
            return True

        monkeypatch.setattr(bnb.SolutionPool, "submit", scripted)
        n = 8
        p = binary_problem(n, [(i, i, 1.0) for i in range(n)], -np.ones(n))
        cfg = Config(workers=1, time_limit=60.0, node_limit=60, enable_lns=False)
        return solve(p, cfg, stall_nodes=stall_nodes, cutoff=cutoff)

    def test_without_stall_nodes_never_stalls(self, monkeypatch):
        trace, gains = self.sub_solve(monkeypatch, None)
        assert trace.termination == "exhausted"
        assert trace.node_count > gains[-1] + 1 + 10
        # 59 nodes without an incumbent, and still no stall
        trace = self.scripted_solve(monkeypatch, {0}, None)
        assert (trace.node_count, trace.termination) == (60, "node_limit")

    def test_each_improvement_restarts_the_count(self, monkeypatch):
        # incumbents at nodes 2, 6 and 10, each within 5 nodes of the last:
        # only a count restarted at every one of them reaches node 16
        trace = self.scripted_solve(monkeypatch, {2, 6, 10}, 5)
        assert len(trace.events) == 3
        assert (trace.node_count, trace.termination) == (16, "stalled")

    def test_only_incumbents_below_the_cutoff_restart_the_count(self, monkeypatch):
        # -2 lies above the cutoff and -4 on it: neither restarts the count
        trace = self.scripted_solve(monkeypatch, {2, 4}, 5, cutoff=-4.0)
        assert [v for _, v in trace.events] == [-2.0, -4.0]
        assert (trace.node_count, trace.termination) == (5, "stalled")
        # -4 lies below it and restarts the count after node 4
        trace = self.scripted_solve(monkeypatch, {2, 4}, 5, cutoff=-3.0)
        assert [v for _, v in trace.events] == [-2.0, -4.0]
        assert (trace.node_count, trace.termination) == (10, "stalled")


def bounds_key(problem):
    return ((problem.lb + 0.0).tobytes(), (problem.ub + 0.0).tobytes())


class TestSubsolveReuse:
    """``solve`` keeps the result of each LNS sub-problem by its bounds and
    does not run the nested search again on bounds it has seen."""

    def test_nested_solve_is_a_function_of_its_bounds(self):
        # what makes the stored point exact: two node-limited sub-solves on
        # one sub-problem with the same config, objective and t0 do the same
        # search (fails if sub-solves come to share state, e.g. a VertexCache)
        p = random_miqcqp(np.random.default_rng(2), 16, n_quad=3, n_lin=2)
        ub = p.ub.copy()
        ub[0] = p.lb[0]
        sub = replace(p, ub=ub)
        cfg = Config(workers=1, time_limit=60.0, seed=4, enable_lns=False, node_limit=30)
        objective = SmoothObjective(p, 1.5)
        t0 = time.monotonic()
        first = solve(sub, cfg, objective=objective, t0=t0)
        second = solve(sub, cfg, objective=objective, t0=t0)
        assert first.termination == second.termination == "node_limit"
        assert first.node_count == second.node_count == 30
        assert [v for (_, v) in first.events] == [v for (_, v) in second.events]
        assert first.incumbent_reform is not None
        assert first.incumbent_reform.tobytes() == second.incumbent_reform.tobytes()

    def test_nested_solve_with_a_stall_limit_is_a_function_of_its_bounds(self):
        # with the stall limit a constant, one cutoff gives one search
        p = random_miqcqp(np.random.default_rng(2), 16, n_quad=3, n_lin=2)
        ub = p.ub.copy()
        ub[0] = p.lb[0]
        sub = replace(p, ub=ub)
        cfg = Config(workers=1, time_limit=60.0, seed=4, enable_lns=False, node_limit=30)
        objective = SmoothObjective(p, 1.5)
        t0 = time.monotonic()
        first = solve(sub, cfg, objective=objective, t0=t0, stall_nodes=10)
        second = solve(sub, cfg, objective=objective, t0=t0, stall_nodes=10)
        assert first.termination == second.termination == "stalled"
        assert first.node_count == second.node_count < 30
        assert [v for (_, v) in first.events] == [v for (_, v) in second.events]
        assert first.incumbent_reform is not None
        assert first.incumbent_reform.tobytes() == second.incumbent_reform.tobytes()

    def test_a_lower_cutoff_runs_a_prefix_of_the_search(self):
        # what makes the stored point dominate a repeat: the caller's
        # incumbent only falls, and a lower cutoff stops the same search
        # no later (its one incumbent comes at node 8)
        p = random_miqcqp(np.random.default_rng(2), 16, n_quad=3, n_lin=2)
        ub = p.ub.copy()
        ub[0] = p.lb[0]
        sub = replace(p, ub=ub)
        cfg = Config(workers=1, time_limit=60.0, seed=4, enable_lns=False, node_limit=60)
        objective = SmoothObjective(p, 1.5)
        t0 = time.monotonic()
        first = solve(sub, cfg, objective=objective, t0=t0, stall_nodes=10)
        (value,) = [v for _, v in first.events]
        traces = [first] + [
            solve(sub, cfg, objective=objective, t0=t0, stall_nodes=10, cutoff=cutoff)
            for cutoff in (value + 1.0, value, value - 1.0)
        ]
        for earlier, later in zip(traces, traces[1:]):
            assert later.node_count <= earlier.node_count
            values = [v for _, v in later.events]
            assert values == [v for _, v in earlier.events][:len(values)]
        assert [t.node_count for t in traces] == [19, 19, 10, 10]
        assert all(t.termination == "stalled" for t in traces)

    def test_sub_solves_get_the_callers_incumbent_as_cutoff(self, monkeypatch):
        # the worker's pool adopts no store incumbent here, so each cutoff
        # is inf or a value the worker found, and they never rise
        cutoffs, real_solve = [], bnb.solve

        def recording(problem, config, *args, **kwargs):
            if kwargs.get("store") is None:
                cutoffs.append(kwargs["cutoff"])
            return real_solve(problem, config, *args, **kwargs)

        monkeypatch.setattr(bnb, "solve", recording)
        p = random_binary_qp(np.random.default_rng(1), 8)
        trace = real_solve(p, Config(workers=1, time_limit=60.0, node_limit=30, seed=1),
                           store=IncumbentStore())
        found = {v for _, v in trace.events}
        assert any(c < math.inf for c in cutoffs)
        assert all(c == math.inf or c in found for c in cutoffs)
        assert cutoffs == sorted(cutoffs, reverse=True)
        assert trace.sub_solves == len(cutoffs)

    @staticmethod
    def count_nested(monkeypatch):
        """Patch ``bnb.solve`` to record the bounds of every nested solve
        (the only calls without a store); returns the real solve and the
        record."""
        real_solve, nested = bnb.solve, []

        def counting_solve(problem, config, *args, **kwargs):
            if kwargs.get("store") is None:
                nested.append(bounds_key(problem))
            return real_solve(problem, config, *args, **kwargs)

        monkeypatch.setattr(bnb, "solve", counting_solve)
        return real_solve, nested

    def test_each_distinct_sub_problem_is_solved_once(self, monkeypatch):
        # all-binary: RINS fixes where the incumbent ASENS found equals the
        # relaxation, which is the set ASENS fixed, so it asks again
        asked, rins_points = [], []
        real_asens, real_rins = lns.asens, lns.rins
        real_solve, nested = self.count_nested(monkeypatch)

        def recording(fn, tag):
            def heuristic(*args):
                *rest, subsolve = args

                def recorded(sub_problem):
                    asked.append((tag, bounds_key(sub_problem)))
                    return subsolve(sub_problem)

                out = fn(*rest, recorded)
                if tag == "rins":
                    rins_points.append(out)
                return out
            return heuristic

        monkeypatch.setattr(lns, "asens", recording(real_asens, "asens"))
        monkeypatch.setattr(lns, "rins", recording(real_rins, "rins"))
        p = random_binary_qp(np.random.default_rng(1), 8)
        real_solve(p, Config(workers=1, time_limit=60.0, node_limit=30, seed=1),
                   store=IncumbentStore())
        asens_keys = {key for tag, key in asked if tag == "asens"}
        assert any(tag == "rins" and key in asens_keys for tag, key in asked)
        assert sorted(nested) == sorted({key for _, key in asked})
        assert any(point is not None for point in rins_points)

    def test_bounds_differing_in_the_sign_of_a_zero_share_an_entry(self, monkeypatch):
        points = []
        real_solve, nested = self.count_nested(monkeypatch)

        def twice(incumbent, x_relax, problem, subsolve):
            ub = problem.ub.copy()
            ub[0] = 0.0
            signed_ub = ub.copy()
            signed_ub[0] = -0.0
            signed_lb = -problem.lb  # all -0.0
            assert signed_lb.tobytes() != problem.lb.tobytes()
            points.append(subsolve(replace(problem, ub=ub)))
            points.append(subsolve(replace(problem, lb=signed_lb, ub=signed_ub)))
            return points[-1]

        monkeypatch.setattr(lns, "rins", twice)
        p = random_binary_qp(np.random.default_rng(1), 8)
        real_solve(p, Config(workers=1, time_limit=60.0, node_limit=1, seed=1,
                             enable_asens=False), store=IncumbentStore())
        assert len(points) == 2 and len(nested) == 1
        assert points[0] is not None and points[1] is points[0]


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

    def test_repeat_submit_does_no_work(self, monkeypatch):
        p = binary_problem(2, [(0, 1, 1.0)], [-1.0, -2.0])
        repairs, checks = [], []

        def repair(x):
            repairs.append(x)
            return x

        def counted_check(*args):
            checks.append(1)
            return check_feasibility(*args)

        monkeypatch.setattr(bnb, "check_feasibility", counted_check)
        pool = SolutionPool(p, p, lambda x: x, repair, clock=lambda: 0.0, trace=SolveTrace())
        x = np.array([0.0, 1.0])
        assert pool.submit(x)
        assert (len(repairs), len(checks)) == (1, 1)
        # the same bytes: refused before the snap and the repair
        assert not pool.submit(x.copy())
        assert (len(repairs), len(checks)) == (1, 1)
        # other bytes that snap to the seen vertex: refused by its key
        assert not pool.submit(np.array([0.2, 0.9]))
        assert (len(repairs), len(checks)) == (2, 1)
        assert pool.trace.events == [(0.0, -2.0)]

    def test_a_candidate_that_cannot_win_is_not_checked(self, monkeypatch):
        checks = []

        def counted_check(*args):
            checks.append(1)
            return check_feasibility(*args)

        monkeypatch.setattr(bnb, "check_feasibility", counted_check)
        pool, _ = self.pool([0.0], horizon=1.0)
        assert pool.submit(np.array([0.0, 1.0]))  # -2, the incumbent
        assert len(checks) == 1
        # f = x0 x1 - x0 - 2 x1: a worse value (0) and an equal one (-2)
        # are seen and refused, without a feasibility check
        assert not pool.submit(np.array([0.0, 0.0]))
        assert not pool.submit(np.array([1.0, 1.0]))
        assert len(checks) == 1
        assert pool.entries == {vertex_key(np.array(v)) for v in ([0.0, 1.0], [0.0, 0.0], [1.0, 1.0])}
        assert pool.trace.events == [(0.0, -2.0)]

    def test_event_stamped_with_the_checked_reading(self):
        pool, store = self.pool([0.75, 5.0], horizon=1.0)
        assert pool.submit(np.array([0.0, 1.0]))
        assert pool.trace.events == [(0.75, -2.0)]
        assert store.read()[0] == -2.0
