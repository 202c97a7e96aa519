"""Primal heuristics: roundings, follow-the-gradient, and the large
neighborhood searches (ASENS, Undercover, RINS) plus a bipartite QUBO
alternation improver.

Heuristics never write incumbents directly: every candidate goes through
the caller-supplied submit callback, which evaluates the original
objective and constraints.  Sub-MIQCQP solves are delegated to an
injected ``subsolve`` callable so recursion stays budgeted (depth 1, no
nested LNS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fw import ActiveSet, RegionInfeasible, bpcg
from .lmo import Region, mip_lmo, vertex_key
from .model import Problem, VarKind
from .penalty import SmoothObjective

AGREEMENT_TOL = 1e-6


@dataclass
class SubproblemBudget:
    node_cap: int = 200
    time_slice: float = 2.0

    def __post_init__(self) -> None:
        if self.node_cap <= 0 or self.time_slice <= 0:
            raise ValueError("budgets must be strictly positive")


# ---------------------------------------------------------------------------
# roundings
# ---------------------------------------------------------------------------


def _half_up(v: float) -> float:
    return math.floor(v + 0.5)


def standard_rounding(x: np.ndarray, problem: Problem) -> np.ndarray:
    """Round integer coordinates half-up and clamp to bounds."""
    out = np.asarray(x, dtype=float).copy()
    for k in problem.integer_indices():
        out[k] = min(max(_half_up(out[k]), problem.lb[k]), problem.ub[k])
    return out


def probability_rounding(
    x: np.ndarray,
    problem: Problem,
    trials: int,
    rng: np.random.Generator,
    objective: SmoothObjective | None = None,
    box: tuple[np.ndarray, np.ndarray] | None = None,
    submit=None,
    fw_iter: int = 50,
    deadline: float | None = None,
) -> list[np.ndarray]:
    """Randomized fixing of binaries with probability x_k, followed by a
    short box-constrained FW solve for any remaining continuous part."""
    binaries = [k for k, kind in enumerate(problem.integrality) if kind is VarKind.BINARY]
    if not binaries:
        return []
    lb, ub = box if box is not None else (problem.lb, problem.ub)
    continuous = [k for k, kind in enumerate(problem.integrality)
                  if kind is VarKind.CONTINUOUS]
    candidates = []
    for _ in range(trials):
        cand = np.asarray(x, dtype=float).copy()
        for k in binaries:
            prob = min(max(x[k], 0.0), 1.0)
            cand[k] = 1.0 if rng.random() < prob else 0.0
            cand[k] = min(max(cand[k], problem.lb[k]), problem.ub[k])
        for k in problem.integer_indices():
            if k not in binaries:
                cand[k] = min(max(_half_up(x[k]), problem.lb[k]), problem.ub[k])
        if continuous and objective is not None:
            sub_lb, sub_ub = lb.copy(), ub.copy()
            for k in problem.integer_indices():
                sub_lb[k] = sub_ub[k] = cand[k]
            try:
                res = bpcg(objective, Region(sub_lb, sub_ub), max_iter=fw_iter,
                           eps=1e-6, deadline=deadline)
                cand = res.x
            except RegionInfeasible:
                continue
        candidates.append(cand)
        if submit is not None:
            submit(cand)
    return candidates


# ---------------------------------------------------------------------------
# follow the gradient
# ---------------------------------------------------------------------------


def follow_the_gradient(
    objective: SmoothObjective,
    region: Region,
    start_direction: np.ndarray,
    budget: int = 50,
    deadline: float | None = None,
    submit=None,
    value_fn=None,
) -> np.ndarray | None:
    """Unit-step vertex walk: v_{t+1} = LMO(grad f(v_t)).

    Stops on a revisited vertex or after ``budget`` follow steps; all
    visited vertices are submitted and the best one by ``value_fn``
    (original objective) is returned.
    """
    res = mip_lmo(start_direction, region, deadline=deadline)
    if res.point is None or not res.trusted:
        return None
    visited = [res.point]
    seen = {vertex_key(res.point)}
    v = res.point
    for _ in range(budget):
        grad = objective.gradient(v)
        res = mip_lmo(grad, region, deadline=deadline)
        if res.point is None or not res.trusted:
            break
        key = vertex_key(res.point)
        if key in seen:
            break
        seen.add(key)
        visited.append(res.point)
        v = res.point
    if submit is not None:
        for v in visited:
            submit(v)
    score = value_fn if value_fn is not None else objective.base_value
    return min(visited, key=score)


# ---------------------------------------------------------------------------
# large neighborhood searches
# ---------------------------------------------------------------------------


def _strict_majority(count: int, total: int) -> bool:
    return 2 * count > total


def asens(
    active_set: ActiveSet,
    problem: Problem,
    budget: SubproblemBudget,
    subsolve,
) -> np.ndarray | None:
    """Active Set Enforced Neighborhood Search.

    Fires only when strictly more than half of the variables take the
    same value across every active-set vertex; those are fixed and the
    remaining domains shrink to the active set's coordinate ranges.
    """
    if len(active_set) < 2:
        return None
    V = np.array(active_set.vertices)
    ref = V[0]
    agree = np.all(np.abs(V - ref) <= AGREEMENT_TOL, axis=0)
    if not _strict_majority(int(agree.sum()), problem.n):
        return None
    lb, ub = problem.lb.copy(), problem.ub.copy()
    lo, hi = V.min(axis=0), V.max(axis=0)
    for k in range(problem.n):
        integral = problem.integrality[k] is not VarKind.CONTINUOUS
        if agree[k]:
            val = _half_up(ref[k]) if integral else float(ref[k])
            val = min(max(val, lb[k]), ub[k])
            lb[k] = ub[k] = val
        else:
            new_lo, new_hi = float(lo[k]), float(hi[k])
            if integral:
                new_lo = math.floor(new_lo + 1e-9)
                new_hi = math.ceil(new_hi - 1e-9)
            lb[k] = max(lb[k], new_lo)
            ub[k] = min(ub[k], new_hi)
    if np.any(lb > ub):
        return None
    return subsolve(replace(problem, lb=lb, ub=ub), budget)


def rins(
    incumbent: np.ndarray,
    x_relax: np.ndarray,
    problem: Problem,
    budget: SubproblemBudget,
    subsolve,
) -> np.ndarray | None:
    """Fix the variables on which the incumbent and the relaxation agree
    (strict majority required) and solve the reduced problem."""
    agree = np.abs(np.asarray(incumbent) - np.asarray(x_relax)) <= AGREEMENT_TOL
    if not _strict_majority(int(agree.sum()), problem.n):
        return None
    lb, ub = problem.lb.copy(), problem.ub.copy()
    for k in np.flatnonzero(agree):
        val = incumbent[k]
        if problem.integrality[k] is not VarKind.CONTINUOUS:
            val = _half_up(val)
        val = min(max(val, lb[k]), ub[k])
        lb[k] = ub[k] = val
    return subsolve(replace(problem, lb=lb, ub=ub), budget)


# ---------------------------------------------------------------------------
# undercover
# ---------------------------------------------------------------------------


@dataclass
class NonlinearityGraph:
    """Variables appearing in quadratic terms; edges are bilinear pairs,
    squares force their variable into any cover."""

    nodes: set[int] = field(default_factory=set)
    edges: set[tuple[int, int]] = field(default_factory=set)
    forced: set[int] = field(default_factory=set)

    @classmethod
    def from_problem(cls, problem: Problem) -> "NonlinearityGraph":
        graph = cls()
        term_lists = [problem.terms_obj] + [con.terms for con in problem.constraints]
        for terms in term_lists:
            for (i, j, _) in terms:
                graph.nodes.add(i)
                graph.nodes.add(j)
                if i == j:
                    graph.forced.add(i)
                else:
                    graph.edges.add((i, j))
        return graph

    def leaves_linear(self, fixed: set[int]) -> bool:
        """True if fixing ``fixed`` leaves no term with two free variables."""
        if any(i not in fixed for i in self.forced):
            return False
        return all(i in fixed or j in fixed for (i, j) in self.edges)


def _greedy_cover(graph: NonlinearityGraph) -> set[int]:
    cover = set(graph.forced)
    remaining = [e for e in graph.edges if e[0] not in cover and e[1] not in cover]
    while remaining:
        degree: dict[int, int] = {}
        for (i, j) in remaining:
            degree[i] = degree.get(i, 0) + 1
            degree[j] = degree.get(j, 0) + 1
        best = min(degree, key=lambda k: (-degree[k], k))
        cover.add(best)
        remaining = [e for e in remaining if best not in e]
    return cover


def minimum_vertex_cover(
    graph: NonlinearityGraph,
    deadline: float | None = None,
) -> set[int]:
    """Minimum vertex cover of the nonlinearity graph.

    Forced vertices are in every cover, so only the edges between two
    unforced vertices go to the internal MIP; falls back to a greedy
    max-degree cover on timeout.
    """
    forced = set(graph.forced)
    edges = sorted((i, j) for (i, j) in graph.edges if i not in forced and j not in forced)
    if not edges:
        return forced
    variables = sorted({v for edge in edges for v in edge})
    pos = {v: k for k, v in enumerate(variables)}
    m = len(variables)
    a = np.zeros((len(edges), m))
    for r, (i, j) in enumerate(edges):
        a[r, pos[i]] = a[r, pos[j]] = -1.0  # x_i + x_j >= 1
    region = Region(np.zeros(m), np.ones(m), a, -np.ones(len(edges)), np.ones(m, dtype=bool))
    res = mip_lmo(np.ones(m), region, deadline=deadline)
    if res.status != "optimal" or res.point is None:
        return _greedy_cover(graph)
    return {variables[k] for k in range(m) if res.point[k] > 0.5} | forced


def undercover(
    problem: Problem,
    reference: np.ndarray,
    budget: SubproblemBudget,
    deadline: float | None = None,
) -> np.ndarray | None:
    """Fix a vertex cover of the nonlinearity graph to reference values so
    the remainder is a MILP, then solve it with the internal MIP."""
    graph = NonlinearityGraph.from_problem(problem)
    cover = minimum_vertex_cover(graph, deadline=deadline)

    lb, ub = problem.lb.copy(), problem.ub.copy()
    fixed_vals: dict[int, float] = {}
    for k in sorted(cover):
        val = float(reference[k])
        if problem.integrality[k] is not VarKind.CONTINUOUS:
            val = _half_up(val)
        val = min(max(val, lb[k]), ub[k])
        lb[k] = ub[k] = val
        fixed_vals[k] = val

    # substitute fixed endpoints: each quadratic term becomes linear
    def linearize(terms, base: np.ndarray) -> np.ndarray | None:
        coef = base.copy()
        for (i, j, q) in terms:
            if j in fixed_vals:
                coef[i] += q * fixed_vals[j]
            elif i in fixed_vals:
                coef[j] += q * fixed_vals[i]
            else:
                return None  # cover failed to linearize this term
        return coef

    direction = linearize(problem.terms_obj, problem.d.astype(float))
    if direction is None:
        return None
    a = []
    for con in problem.constraints:
        row = linearize(con.terms, con.b_dense(problem.n))
        if row is None:
            return None
        a.append(row)
    b = [-con.c for con in problem.constraints]
    region = Region(lb, ub, a, b, problem.integer_mask())
    res = mip_lmo(direction, region, time_budget=budget.time_slice,
                  node_budget=budget.node_cap, deadline=deadline)
    if res.point is None or not res.trusted:
        return None
    return res.point


# ---------------------------------------------------------------------------
# bipartite QUBO alternation
# ---------------------------------------------------------------------------


def bipartite_qubo_improve(
    terms: list[tuple[int, int, float]],
    d: np.ndarray,
    x0: np.ndarray,
    max_sweeps: int = 100,
) -> np.ndarray:
    """Alternating exact optimization over the two sides of a bipartite
    interaction graph (x^2 = x on binaries).

    A variable flips to 1 when its effective linear coefficient is
    negative, to 0 when positive, and stays put at exactly zero, so the
    objective never increases.  Raises ValueError on non-bipartite input.
    """
    n = len(d)
    adj: dict[int, list[tuple[int, float]]] = {k: [] for k in range(n)}
    diag = np.zeros(n)
    for (i, j, q) in terms:
        if i == j:
            diag[i] += q
        else:
            adj[i].append((j, q))
            adj[j].append((i, q))

    color = np.full(n, -1, dtype=int)
    for start in range(n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for (w, _) in adj[u]:
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    raise ValueError("interaction graph is not bipartite")

    x = np.round(np.asarray(x0, dtype=float)).clip(0.0, 1.0)
    sides = (np.flatnonzero(color == 0), np.flatnonzero(color == 1))
    for _ in range(max_sweeps):
        changed = False
        for side in sides:
            for i in side:
                coef = d[i] + diag[i] + sum(q * x[j] for (j, q) in adj[i])
                if coef < 0 and x[i] != 1.0:
                    x[i] = 1.0
                    changed = True
                elif coef > 0 and x[i] != 0.0:
                    x[i] = 0.0
                    changed = True
        if not changed:
            break
    return x
