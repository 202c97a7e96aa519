"""Branch-and-bound driver in nonconvex mode.

No pruning on objective bounds (the FW relaxation bound is invalid for
nonconvex objectives): the tree is explored depth-first, every vertex and
rounded iterate is fed through the solution pool's evaluation callback
(original objective, original constraints), children inherit a partition
of the parent's active set, and the search restarts every
``restart_interval`` nodes alternating warm and random reseeding.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import lns
from .config import Config
from .fw import ActiveSet, RegionInfeasible, bpcg
from .lmo import VertexCache, most_fractional, region_from_problem, vertex_key
from .model import (
    Problem,
    VarKind,
    check_feasibility,
    eval_objective,
)
from .penalty import SmoothObjective

_LNS_COOLDOWN = 25  # nodes between ASENS / RINS invocations


@dataclass
class Node:
    lb: np.ndarray
    ub: np.ndarray
    active_set: ActiveSet | None
    depth: int
    index: int
    init_direction: np.ndarray | None = None


@dataclass
class PoolEntry:
    point: np.ndarray  # reformulated space, integers snapped
    value: float  # original objective, internal minimization sense
    max_violation: float


@dataclass
class SolveTrace:
    events: list[tuple[float, float]] = field(default_factory=list)
    event_points: list[np.ndarray] = field(default_factory=list)  # original space
    incumbent_value: float | None = None
    incumbent_point: np.ndarray | None = None  # original space
    incumbent_reform: np.ndarray | None = None
    node_count: int = 0
    restart_count: int = 0
    termination: str = ""


class IncumbentStore:
    """Monotone incumbent that the portfolio's workers, run one after
    the other, hand on: compare-and-improve on the original-objective
    value (internal minimization sense)."""

    def __init__(self) -> None:
        self._value = math.inf
        self._point: np.ndarray | None = None

    def offer(self, value: float, point: np.ndarray) -> bool:
        if value < self._value:
            self._value = value
            self._point = point.copy()
            return True
        return False

    def read(self) -> tuple[float, np.ndarray | None]:
        return self._value, None if self._point is None else self._point.copy()


class SolutionPool:
    """All integer-feasible candidates seen by one worker, deduplicated,
    with original-problem objective values and feasibility reports.

    ``clock`` returns the seconds since the run started; an incumbent
    found after ``horizon`` on that clock is refused, so every trace event
    lies inside the time limit.
    """

    def __init__(
        self,
        problem: Problem,
        original: Problem,
        uncrush,
        repair,
        clock,
        trace: SolveTrace,
        store: IncumbentStore | None = None,
        horizon: float = math.inf,
    ):
        self.problem = problem
        self.original = original
        self.uncrush = uncrush
        self.repair = repair
        self.clock = clock
        self.trace = trace
        self.store = store
        self.horizon = horizon
        self.entries: dict[bytes, PoolEntry] = {}
        self.incumbent_value = math.inf
        self.incumbent_point: np.ndarray | None = None  # reform space
        self._integer_indices = np.array(problem.integer_indices(), dtype=int)

    def _snap(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=float).copy()
        # + 0.0 maps np.round's -0.0 to 0.0, so -0.3 and 0.2 give one vertex key
        out[self._integer_indices] = np.round(out[self._integer_indices]) + 0.0
        return np.clip(out, self.problem.lb, self.problem.ub)

    def submit(self, x: np.ndarray) -> bool:
        """Evaluate a candidate against the original problem; returns True
        when it becomes the new incumbent."""
        cand = self.repair(self._snap(x))
        key = vertex_key(cand)
        if key in self.entries:
            return False
        x_orig = self.uncrush(cand)
        report = check_feasibility(self.original, x_orig)
        value = eval_objective(self.original, x_orig)
        self.entries[key] = PoolEntry(cand, value, report.max_violation)
        if report.feasible and value < self.incumbent_value:
            now = self.clock()
            if now > self.horizon:
                return False
            self.incumbent_value = value
            self.incumbent_point = cand
            self.trace.events.append((now, value))
            self.trace.event_points.append(x_orig)
            self.trace.incumbent_value = value
            self.trace.incumbent_point = x_orig
            self.trace.incumbent_reform = cand
            if self.store is not None:
                self.store.offer(value, cand)
            return True
        return False

    def adopt_external(self, value: float, point: np.ndarray) -> None:
        """Adopt a better cross-worker incumbent (no trace event)."""
        if value < self.incumbent_value:
            self.incumbent_value = value
            self.incumbent_point = point.copy()

    def best_reference(self) -> np.ndarray | None:
        """Best pool entry, feasible or not (undercover reference)."""
        if self.incumbent_point is not None:
            return self.incumbent_point
        if not self.entries:
            return None
        best = min(self.entries.values(), key=lambda e: (e.max_violation, e.value))
        return best.point


# ---------------------------------------------------------------------------
# branching
# ---------------------------------------------------------------------------


def branch(node: Node, k: int, x_relax: np.ndarray, index_start: int = 0) -> tuple[Node, Node]:
    """Split on variable k; the parent's active set is partitioned onto
    the children by the branching coordinate and weights renormalized."""
    floor_v = math.floor(x_relax[k])
    ceil_v = math.ceil(x_relax[k])
    down_ub = node.ub.copy()
    down_ub[k] = floor_v
    up_lb = node.lb.copy()
    up_lb[k] = ceil_v

    down_vs, down_ws, up_vs, up_ws = [], [], [], []
    if node.active_set is not None:
        for v, w in zip(node.active_set.vertices, node.active_set.weights):
            if v[k] <= floor_v + 1e-9:
                down_vs.append(v)
                down_ws.append(w)
            else:
                up_vs.append(v)
                up_ws.append(w)

    def make(vs, ws) -> ActiveSet | None:
        if not vs:
            return None
        active = ActiveSet(vs, ws)
        active.renormalize()
        return active

    down = Node(node.lb.copy(), down_ub, make(down_vs, down_ws), node.depth + 1, index_start)
    up = Node(up_lb, node.ub.copy(), make(up_vs, up_ws), node.depth + 1, index_start + 1)
    return down, up


# ---------------------------------------------------------------------------
# restarts
# ---------------------------------------------------------------------------


@dataclass
class RestartState:
    node_count: int = 0
    restart_count: int = 0
    incumbent_available: bool = False
    first_kind: str | None = None  # fixed at the first restart


def restart_policy(state: RestartState, config: Config) -> str:
    """continue / restart_warm / restart_random, every R nodes, warm and
    random alternating (warm first when an incumbent exists)."""
    interval = config.restart_interval
    if state.node_count == 0 or state.node_count % interval != 0:
        return "continue"
    if state.first_kind is None:
        return "restart_warm" if state.incumbent_available else "restart_random"
    order = ("warm", "random") if state.first_kind == "warm" else ("random", "warm")
    scheduled = order[state.restart_count % 2]
    if scheduled == "warm" and not state.incumbent_available:
        return "restart_random"
    return f"restart_{scheduled}"


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def solve(
    problem: Problem,
    config: Config,
    objective: SmoothObjective | None = None,
    original: Problem | None = None,
    uncrush=None,
    repair=None,
    store: IncumbentStore | None = None,
    t0: float | None = None,
) -> SolveTrace:
    """Explore the penalty-relaxed problem depth-first and collect
    original-feasible incumbents.

    ``problem`` must be presolved (finite bounds); ``original`` is the
    problem candidates are checked against (defaults to ``problem``).
    ``t0`` is the ``time.monotonic()`` reading the run started at (the
    solve's own entry when omitted): event times are measured from it and
    the search stops at ``t0 + config.time_limit``.  Never prunes on
    objective bounds; stops on the time limit, the node limit, or an
    exhausted stack.
    """
    if not problem.bounds_finite():
        raise ValueError("solve requires finite bounds; run presolve first")
    original = original if original is not None else problem
    uncrush = uncrush if uncrush is not None else _identity
    repair = repair if repair is not None else _identity
    if objective is None:
        objective = SmoothObjective(problem, config.p)

    if t0 is None:
        t0 = time.monotonic()
    deadline = t0 + config.time_limit
    trace = SolveTrace()
    pool = SolutionPool(
        problem, original, uncrush, repair,
        clock=lambda: time.monotonic() - t0, trace=trace, store=store,
        horizon=config.time_limit,
    )
    region0 = region_from_problem(problem)
    cache = VertexCache()
    rng = np.random.default_rng(config.seed)
    state = RestartState()

    run_lns = config.enable_lns
    last_asens = -_LNS_COOLDOWN
    last_rins = -_LNS_COOLDOWN
    undercover_done = False
    ftg_pending = run_lns and config.enable_ftg
    has_binaries = any(k is VarKind.BINARY for k in problem.integrality)
    has_continuous = any(k is VarKind.CONTINUOUS for k in problem.integrality)
    pure_qubo = (
        config.enable_qubo_bipartite
        and original.is_all_binary()
        and not original.constraints
        and original.n == problem.n
    )

    def subsolve(sub_problem: Problem):
        # no nested LNS; the run's t0 and time limit, so the run's deadline
        sub_config = replace(config, enable_lns=False, node_limit=lns.SUBPROBLEM_NODE_CAP)
        sub_trace = solve(
            sub_problem,
            sub_config,
            objective=objective,  # bounds differ, penalized objective does not
            original=original,
            uncrush=uncrush,
            repair=repair,
            store=None,
            t0=t0,
        )
        return sub_trace.incumbent_reform

    def make_root(kind: str) -> Node:
        direction = None
        active = None
        if kind == "warm" and pool.incumbent_point is not None:
            seed_point = repair(pool.incumbent_point)
            if region0.contains(seed_point):
                active = ActiveSet.from_vertex(seed_point)
        if kind == "random":
            direction = rng.standard_normal(problem.n)
        return Node(problem.lb.copy(), problem.ub.copy(), active, 0,
                    state.node_count, init_direction=direction)

    stack: list[Node] = [make_root("initial")]
    termination = "exhausted"

    while stack:
        now = time.monotonic()
        if now > deadline:
            termination = "time_limit"
            break
        if config.node_limit is not None and state.node_count >= config.node_limit:
            termination = "node_limit"
            break
        node = stack.pop()
        region = region0.with_bounds(node.lb, node.ub)

        infeasible_node = False
        try:
            result = bpcg(
                objective,
                region,
                warm=node.active_set,
                max_iter=config.fw_iter,
                cache=cache,
                deadline=deadline,
                init_direction=node.init_direction,
            )
        except RegionInfeasible:
            # an empty region, or a MIP-LMO stopped before finding a vertex
            infeasible_node = True
            if state.node_count == 0 and node.depth == 0 and not stack:
                termination = "time_limit" if time.monotonic() > deadline else "root_infeasible"

        if not infeasible_node:
            for v in result.vertices:
                pool.submit(v)
            for v in result.dropped:  # retained for children and lazification
                cache.insert(v, region)
            x_relax = result.x
            pool.submit(lns.standard_rounding(x_relax, problem))

            if run_lns and has_binaries and (
                not has_continuous or state.node_count % 10 == 0
            ):
                lns.probability_rounding(
                    x_relax, problem, trials=10, rng=rng, objective=objective,
                    box=(node.lb, node.ub), submit=pool.submit, deadline=deadline,
                )
            if ftg_pending:
                ftg_pending = False
                lns.follow_the_gradient(
                    objective, region, rng.standard_normal(problem.n),
                    budget=50, deadline=deadline, submit=pool.submit,
                )
            if (
                run_lns
                and config.enable_asens
                and len(result.active_set) >= 2
                and state.node_count - last_asens >= _LNS_COOLDOWN
            ):
                cand = lns.asens(result.active_set, problem, subsolve)
                if cand is not None:
                    last_asens = state.node_count
                    pool.submit(cand)
            if (
                run_lns
                and config.enable_rins
                and pool.incumbent_point is not None
                and state.node_count - last_rins >= _LNS_COOLDOWN
            ):
                cand = lns.rins(pool.incumbent_point, x_relax, problem, subsolve)
                if cand is not None:
                    last_rins = state.node_count
                    pool.submit(cand)
            if run_lns and config.enable_undercover and not undercover_done:
                reference = pool.best_reference()
                if reference is not None:
                    undercover_done = True
                    cand = lns.undercover(problem, reference, deadline=deadline)
                    if cand is not None:
                        pool.submit(cand)
            if pure_qubo and pool.incumbent_point is not None:
                try:
                    improved = lns.bipartite_qubo_improve(
                        original.terms_obj, original.d, pool.incumbent_point
                    )
                    pool.submit(improved)
                except ValueError:  # non-bipartite interaction graph
                    pure_qubo = False

            k = most_fractional(x_relax, region0.integer_mask)
            if k is not None:
                # children split the active set the relaxation ended with
                node.active_set = result.active_set
                down, up = branch(node, k, x_relax, index_start=state.node_count)
                stack.append(up)
                stack.append(down)  # down branch explored first

        state.node_count += 1
        trace.node_count = state.node_count
        state.incumbent_available = pool.incumbent_point is not None
        action = restart_policy(state, config)
        if action != "continue":
            if state.first_kind is None:
                state.first_kind = "warm" if action == "restart_warm" else "random"
            state.restart_count += 1
            trace.restart_count = state.restart_count
            if store is not None:
                value, point = store.read()
                if point is not None:
                    pool.adopt_external(value, point)
            undercover_done = False
            ftg_pending = run_lns and config.enable_ftg
            stack = [make_root("warm" if action == "restart_warm" else "random")]

    trace.termination = termination
    return trace
