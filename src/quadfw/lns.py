"""Primal heuristics: roundings, follow-the-gradient, the large
neighborhood searches (ASENS, Undercover, RINS) and a 1-flip descent
that improves binary points.

Heuristics never write incumbents directly: every candidate goes through
the caller-supplied submit callback, which evaluates the original
objective and constraints.  Integer coordinates are rounded and fixed by
``lmo.round_integers`` and ``lmo.fix_coordinates`` (half up, clamped to
the bounds); standard rounding is ``round_integers`` itself.

ASENS, RINS and probability rounding (for its continuous remainder) fix
variables and hand ``replace(problem, lb=..., ub=...)`` to an injected
``subsolve`` callable, which the caller runs without LNS, capped at
``SUBPROBLEM_NODE_CAP`` nodes, stopped after ``SUBPROBLEM_STALL_NODES``
nodes in a row without a new incumbent below the caller's incumbent
value (the stall-node limit of SCIP's sub-MIP heuristics, Berthold 2006,
counted against the caller's incumbent) and at the run's deadline, so
sub-solves never nest; it returns its own best point all the same.
``subsolve`` solves each distinct pair of bounds once per search and may
return the point it stored for an earlier call, so callers must not
mutate what it returns.  Undercover's remainder is a
MILP by construction and goes to the internal MIP directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

# bpcg stays importable here: perfbench/probe.py patches lns.bpcg
from .fw import ActiveSet, bpcg  # noqa: F401
from .lmo import Region, fix_coordinates, mip_lmo, round_integers, vertex_key
from .model import Problem, VarKind
from .penalty import SmoothObjective

AGREEMENT_TOL = 1e-6
# least objective decrease a 1-flip move must give
IMPROVE_TOL = 1e-9
# node limit of one sub-MIQCQP solve
SUBPROBLEM_NODE_CAP = 200
# a sub-solve stops after this many nodes in a row without a new incumbent
SUBPROBLEM_STALL_NODES = 50


# ---------------------------------------------------------------------------
# roundings
# ---------------------------------------------------------------------------


def probability_rounding(
    x: np.ndarray,
    problem: Problem,
    trials: int,
    rng: np.random.Generator,
    subsolve=None,
    submit=None,
) -> list[np.ndarray]:
    """Randomized fixing of binaries with probability x_k (other integers
    rounded).  With continuous variables, each rounded point fixes every
    integer coordinate and ``subsolve`` solves the continuous remainder;
    a trial whose sub-solve finds no point is skipped."""
    binary = np.array([kind is VarKind.BINARY for kind in problem.integrality], dtype=bool)
    if not binary.any():
        return []
    x = np.asarray(x, dtype=float)
    int_mask = problem.integer_mask()
    has_continuous = not int_mask.all()
    prob = np.clip(x[binary], 0.0, 1.0)
    rounded = round_integers(x, int_mask & ~binary, problem.lb, problem.ub)
    candidates = []
    for _ in range(trials):
        cand = rounded.copy()
        draw = np.where(rng.random(len(prob)) < prob, 1.0, 0.0)
        cand[binary] = np.clip(draw, problem.lb[binary], problem.ub[binary])
        if has_continuous and subsolve is not None:
            lb, ub = fix_coordinates(problem.lb, problem.ub, int_mask, int_mask, cand)
            cand = subsolve(replace(problem, lb=lb, ub=ub))
            if cand is None:
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
    deadline: float = math.inf,
    submit=None,
) -> None:
    """Unit-step vertex walk: v_{t+1} = LMO(grad f(v_t)).

    Stops on a revisited vertex or after ``budget`` follow steps; all
    visited vertices are submitted.
    """
    res = mip_lmo(start_direction, region, deadline=deadline)
    if res.point is None:
        return
    visited = [res.point]
    seen = {vertex_key(res.point)}
    v = res.point
    for _ in range(budget):
        grad = objective.gradient(v)
        res = mip_lmo(grad, region, deadline=deadline)
        if res.point is None:
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


# ---------------------------------------------------------------------------
# large neighborhood searches
# ---------------------------------------------------------------------------


def _strict_majority(count: int, total: int) -> bool:
    return 2 * count > total


def asens(
    active_set: ActiveSet,
    problem: Problem,
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
    int_mask = problem.integer_mask()
    lb, ub = fix_coordinates(problem.lb, problem.ub, int_mask, agree, ref)
    # the others shrink to the active set's range, integers rounded outward
    lo, hi = V.min(axis=0), V.max(axis=0)
    lo = np.where(int_mask, np.floor(lo + 1e-9), lo)
    hi = np.where(int_mask, np.ceil(hi - 1e-9), hi)
    free = ~agree
    lb[free] = np.maximum(lb[free], lo[free])
    ub[free] = np.minimum(ub[free], hi[free])
    if np.any(lb > ub):
        return None
    return subsolve(replace(problem, lb=lb, ub=ub))


def rins(
    incumbent: np.ndarray,
    x_relax: np.ndarray,
    problem: Problem,
    subsolve,
) -> np.ndarray | None:
    """Fix the variables on which the incumbent and the relaxation agree
    (strict majority required) and solve the reduced problem."""
    agree = np.abs(np.asarray(incumbent) - np.asarray(x_relax)) <= AGREEMENT_TOL
    if not _strict_majority(int(agree.sum()), problem.n):
        return None
    lb, ub = fix_coordinates(problem.lb, problem.ub, problem.integer_mask(), agree, incumbent)
    return subsolve(replace(problem, lb=lb, ub=ub))


# ---------------------------------------------------------------------------
# undercover
# ---------------------------------------------------------------------------


@dataclass
class NonlinearityGraph:
    """The quadratic terms as a graph: edges are bilinear pairs, squares
    force their variable into any cover."""

    edges: set[tuple[int, int]] = field(default_factory=set)
    forced: set[int] = field(default_factory=set)

    @classmethod
    def from_problem(cls, problem: Problem) -> "NonlinearityGraph":
        graph = cls()
        term_lists = [problem.terms_obj] + [con.terms for con in problem.constraints]
        for terms in term_lists:
            for (i, j, _) in terms:
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
    deadline: float = math.inf,
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
    deadline: float = math.inf,
) -> np.ndarray | None:
    """Fix a vertex cover of the nonlinearity graph to reference values so
    the remainder is a MILP, then solve it with the internal MIP."""
    graph = NonlinearityGraph.from_problem(problem)
    cover = minimum_vertex_cover(graph, deadline=deadline)

    fixed = np.array(sorted(cover), dtype=int)
    lb, ub = fix_coordinates(problem.lb, problem.ub, problem.integer_mask(), fixed, reference)
    fixed_vals = {int(k): float(lb[k]) for k in fixed}

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
    return mip_lmo(direction, region, deadline=deadline).point


# ---------------------------------------------------------------------------
# 1-flip descent
# ---------------------------------------------------------------------------


def one_flip_descent(
    q_mat: np.ndarray,
    d: np.ndarray,
    x: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> np.ndarray:
    """Best-improvement descent on 0.5 x'Qx + d'x from a 0/1 point,
    flipping only the binaries with ``lb < ub``.

    Flipping x_i changes the value by delta * g_i + Q_ii / 2, with
    delta = 1 - 2 x_i and g = Qx + d, so each step scores every flip in
    O(n), takes the best (lowest index among ties) and updates g.  Stops
    at a 1-flip local optimum: no flip lowers the value by more than
    ``IMPROVE_TOL``.
    """
    x = np.array(x, dtype=float)
    free = np.flatnonzero(lb < ub)
    if not len(free):
        return x
    half_diag = 0.5 * np.diag(q_mat)[free]
    g = q_mat @ x + d
    while True:
        delta = 1.0 - 2.0 * x[free]
        change = delta * g[free] + half_diag
        k = int(np.argmin(change))
        if change[k] >= -IMPROVE_TOL:
            return x
        i = free[k]
        g += delta[k] * q_mat[:, i]
        x[i] += delta[k]
