"""Branch-and-bound driver in nonconvex mode.

No pruning on objective bounds (the FW relaxation bound is invalid for
nonconvex objectives): the tree is explored depth-first, every vertex and
rounded iterate is fed through the solution pool's evaluation callback
(original objective, original constraints), children inherit a partition
of the parent's active set, and the search restarts every
``restart_interval`` nodes alternating warm and random reseeding.
``solve`` applies that rule itself, counting nodes and restarts on the
``SolveTrace`` it returns, which holds the one copy of those counters.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import lns
from .config import Config
from .fw import ActiveSet, RegionInfeasible, bpcg
from .lmo import VertexCache, most_fractional, region_from_problem, round_integers, vertex_key
from .model import (
    Problem,
    VarKind,
    assemble_symmetric,
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
    init_direction: np.ndarray | None = None


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
    # MIP-oracle calls of every node, an infeasible one included, and of
    # the LNS sub-solves that ran
    lmo_calls: int = 0
    # store incumbents adopted: 1 when the store held one at the first root
    adoptions: int = 0


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
    """The integer-snapped candidates seen by one worker, deduplicated by
    vertex key and checked against the original problem.

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
        self.entries: set[bytes] = set()  # vertex keys of the candidates seen
        self._submitted: set[bytes] = set()  # bytes of every x submitted
        self.incumbent_value = math.inf
        self.incumbent_point: np.ndarray | None = None  # reform space
        # least (max_violation, value) seen, feasible or not, and its candidate
        self._best_rank = (math.inf, math.inf)
        self._best_point: np.ndarray | None = None
        self._int_mask = problem.integer_mask()

    def _snap(self, x: np.ndarray) -> np.ndarray:
        lb, ub = self.problem.lb, self.problem.ub
        return np.clip(round_integers(x, self._int_mask, lb, ub), lb, ub)

    def submit(self, x: np.ndarray) -> bool:
        """Evaluate a candidate against the original problem; returns True
        when it becomes the new incumbent.

        The snapped and repaired candidate is evaluated once per vertex
        key; an ``x`` whose bytes were submitted before returns False at
        once, as its key is already seen.
        """
        raw = np.asarray(x, dtype=float).tobytes()
        if raw in self._submitted:
            return False
        self._submitted.add(raw)
        cand = self.repair(self._snap(x))
        key = vertex_key(cand)
        if key in self.entries:
            return False
        x_orig = self.uncrush(cand)
        report = check_feasibility(self.original, x_orig)
        value = eval_objective(self.original, x_orig)
        self.entries.add(key)
        if (report.max_violation, value) < self._best_rank:
            self._best_rank = (report.max_violation, value)
            self._best_point = cand
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
        """The incumbent, else the least violated candidate seen, the first
        of the best value among equals (undercover reference)."""
        if self.incumbent_point is not None:
            return self.incumbent_point
        return self._best_point


# ---------------------------------------------------------------------------
# branching
# ---------------------------------------------------------------------------


def branch(node: Node, k: int, x_relax: np.ndarray) -> tuple[Node, Node]:
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

    down = Node(node.lb.copy(), down_ub, make(down_vs, down_ws))
    up = Node(up_lb, node.ub.copy(), make(up_vs, up_ws))
    return down, up


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
    the search stops at ``t0 + config.time_limit``.  Before its first root
    it reads ``store``: an incumbent there is adopted (no trace event), and
    the first root starts warm from it, as a warm restart does.  Only this
    search writes the store while it runs, together with its own
    incumbent, so the store is not read again.  Never prunes on objective
    bounds; stops on the time limit, the node limit, or an exhausted stack.
    """
    if not problem.bounds_finite():
        raise ValueError("solve requires finite bounds; run presolve first")
    original = original if original is not None else problem
    uncrush = uncrush if uncrush is not None else _identity
    repair = repair if repair is not None else _identity
    if objective is None:
        objective = SmoothObjective(problem)

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

    run_lns = config.enable_lns
    last_asens = -_LNS_COOLDOWN
    last_rins = -_LNS_COOLDOWN
    undercover_done = False
    ftg_pending = run_lns and config.enable_ftg
    has_binaries = any(k is VarKind.BINARY for k in problem.integrality)
    has_continuous = any(k is VarKind.CONTINUOUS for k in problem.integrality)
    # an all-binary original without rows keeps its variables through
    # presolve, so a reformulated point is scored on its objective
    descent_q = (
        assemble_symmetric(original.n, original.terms_obj)
        if run_lns and original.is_all_binary() and not original.constraints
        else None
    )

    def submit(x: np.ndarray) -> None:
        """``pool.submit``, then a 1-flip descent from each new incumbent
        (a descent's own result is a 1-flip local optimum already)."""
        if pool.submit(x) and descent_q is not None:
            pool.submit(lns.one_flip_descent(
                descent_q, original.d, pool.incumbent_point, problem.lb, problem.ub))

    # Every sub-problem is ``replace(problem, lb=..., ub=...)``, and the
    # nested solve reads nothing else that changes within this call
    # (config and seed, objective, original, uncrush, repair and t0 are
    # fixed), so under its node limit it is a pure function of the bounds;
    # under the deadline a repeat would only have less time.  Each distinct
    # pair of bounds is therefore solved once per call, across restarts.
    solved: dict[tuple[bytes, bytes], np.ndarray | None] = {}

    def subsolve(sub_problem: Problem):
        # + 0.0: bounds that differ only in the sign of a zero are one key
        key = ((sub_problem.lb + 0.0).tobytes(), (sub_problem.ub + 0.0).tobytes())
        if key in solved:
            return solved[key]
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
        trace.lmo_calls += sub_trace.lmo_calls
        solved[key] = sub_trace.incumbent_reform
        return solved[key]

    def make_root(kind: str) -> Node:
        direction = None
        active = None
        if kind == "warm" and pool.incumbent_point is not None:
            seed_point = repair(pool.incumbent_point)
            if region0.contains(seed_point):
                active = ActiveSet.from_vertex(seed_point)
                # every other active-set vertex came from mip_lmo, which caches it
                cache.insert(seed_point)
        if kind == "random":
            direction = rng.standard_normal(problem.n)
        return Node(problem.lb.copy(), problem.ub.copy(), active, init_direction=direction)

    value, point = store.read() if store is not None else (math.inf, None)
    if point is not None:
        pool.adopt_external(value, point)
        trace.adoptions = 1
    stack: list[Node] = [make_root("warm" if point is not None else "initial")]
    termination = "exhausted"
    first_warm = False  # the kind of the first restart, fixed when it happens

    while stack:
        now = time.monotonic()
        if now > deadline:
            termination = "time_limit"
            break
        if config.node_limit is not None and trace.node_count >= config.node_limit:
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
        except RegionInfeasible as exc:
            # an empty region, or a MIP-LMO stopped before finding a vertex
            infeasible_node = True
            trace.lmo_calls += exc.lmo_calls
            if trace.node_count == 0:  # the first root
                termination = "time_limit" if time.monotonic() > deadline else "root_infeasible"

        if not infeasible_node:
            trace.lmo_calls += result.lmo_calls
            for v in result.vertices:
                submit(v)
            x_relax = result.x
            submit(round_integers(x_relax, region0.integer_mask, problem.lb, problem.ub))

            if run_lns and has_binaries and (
                not has_continuous or trace.node_count % 10 == 0
            ):
                lns.probability_rounding(
                    x_relax, problem, trials=10, rng=rng, subsolve=subsolve, submit=submit,
                )
            if ftg_pending:
                ftg_pending = False
                lns.follow_the_gradient(
                    objective, region, rng.standard_normal(problem.n),
                    budget=50, deadline=deadline, submit=submit,
                )
            if (
                run_lns
                and config.enable_asens
                and len(result.active_set) >= 2
                and trace.node_count - last_asens >= _LNS_COOLDOWN
            ):
                cand = lns.asens(result.active_set, problem, subsolve)
                if cand is not None:
                    last_asens = trace.node_count
                    submit(cand)
            if (
                run_lns
                and config.enable_rins
                and pool.incumbent_point is not None
                and trace.node_count - last_rins >= _LNS_COOLDOWN
            ):
                cand = lns.rins(pool.incumbent_point, x_relax, problem, subsolve)
                if cand is not None:
                    last_rins = trace.node_count
                    submit(cand)
            if run_lns and config.enable_undercover and not undercover_done:
                reference = pool.best_reference()
                if reference is not None:
                    undercover_done = True
                    cand = lns.undercover(problem, reference, deadline=deadline)
                    if cand is not None:
                        submit(cand)

            k = most_fractional(x_relax, region0.integer_mask)
            if k is not None:
                # children split the active set the relaxation ended with
                node.active_set = result.active_set
                down, up = branch(node, k, x_relax)
                stack.append(up)
                stack.append(down)  # down branch explored first

        # every R nodes a restart: the first is warm when an incumbent
        # exists, the kinds then alternate, and a warm turn without an
        # incumbent goes random
        trace.node_count += 1
        if trace.node_count % config.restart_interval == 0:
            has_incumbent = pool.incumbent_point is not None
            if trace.restart_count == 0:
                first_warm = has_incumbent
            warm = has_incumbent and (trace.restart_count % 2 == 0) == first_warm
            trace.restart_count += 1
            undercover_done = False
            ftg_pending = run_lns and config.enable_ftg
            stack = [make_root("warm" if warm else "random")]

    trace.termination = termination
    return trace
