"""Linear minimization oracles over the mixed-integer feasible region.

The region is a box, one row block ``a @ x <= b`` and an integrality
mask.  Presolve normalizes every linear row to ``<=`` before a region is
built, so the oracles never see GE or EQ rows.

Three layers:

* ``box_lmo`` -- closed-form minimizer over a box (no rows),
* ``solve_lp`` -- dense two-phase simplex with bounded variables and
  Bland's rule as anti-cycling fallback, stopped at a pivot once its
  stop time has passed,
* ``mip_lmo`` -- depth-first branch-and-bound on top of ``solve_lp``
  (most-fractional branching, lowest index on ties, down branch first,
  pruning on the LP bound), capped at ``MIP_NODE_CAP`` nodes and stopped
  at the caller's deadline.

``round_integers``, ``fix_coordinates`` and ``integral_bounds`` are the
one integer-rounding rule (half up, clamped; bounds rounded inward) that
every snap, fixing and integer-bound rounding in the package uses.

A per-worker ``VertexCache`` stores integer vertices for lazified
Frank-Wolfe; ``lazy_lookup`` returns a cached vertex of sufficient
inner-product progress before paying for a fresh MIP solve.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .model import Problem, Sense

ROW_FEASIBILITY_TOL = 1e-7
INT_TOL = 1e-6
_LP_TOL = 1e-9
# nodes of one mip_lmo search; the benchmark's MIP calls take at most 125
MIP_NODE_CAP = 1000


@dataclass
class Region:
    """Box bounds, the rows ``a @ x <= b`` and integrality over a fixed
    variable set.

    ``a`` has shape ``(len(b), n)``; omitting ``a`` and ``b`` gives a
    region without rows.
    """

    lb: np.ndarray
    ub: np.ndarray
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    integer_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        self.b = np.zeros(0) if self.b is None else np.asarray(self.b, dtype=float)
        # (len(b), n), not (-1, n): the latter is ambiguous when n == 0
        a = np.zeros(0) if self.a is None else np.asarray(self.a, dtype=float)
        self.a = a.reshape(len(self.b), self.n)
        if self.integer_mask is None:
            self.integer_mask = np.zeros(self.n, dtype=bool)
        else:
            self.integer_mask = np.asarray(self.integer_mask, dtype=bool)

    @property
    def n(self) -> int:
        return len(self.lb)

    def with_bounds(self, lb: np.ndarray, ub: np.ndarray) -> "Region":
        return Region(lb, ub, self.a, self.b, self.integer_mask)

    def contains(self, x: np.ndarray, tol: float = ROW_FEASIBILITY_TOL,
                 int_tol: float | None = None) -> bool:
        return bool(self.members(np.asarray(x)[np.newaxis], tol, int_tol)[0])

    def members(self, points: np.ndarray, tol: float = ROW_FEASIBILITY_TOL,
                int_tol: float | None = None) -> np.ndarray:
        """Membership mask of the rows of ``points`` (shape ``(k, n)``):
        bounds and rows within ``tol``, integrality within ``int_tol``
        unless it is None."""
        inside = ~np.any((points < self.lb - tol) | (points > self.ub + tol), axis=1)
        inside &= ~np.any(points @ self.a.T > self.b + tol, axis=1)
        if int_tol is not None and self.integer_mask.any():
            x_int = points[:, self.integer_mask]
            inside &= ~(np.abs(x_int - np.round(x_int)).max(axis=1) > int_tol)
        return inside


def region_from_problem(problem: Problem) -> Region:
    """Region over a presolved problem: bounds plus its linear rows."""
    rows = [con for con in problem.constraints
            if con.is_linear() and con.sense is Sense.LE]
    a = [con.b_dense(problem.n) for con in rows]
    b = [-con.c for con in rows]
    return Region(problem.lb.copy(), problem.ub.copy(), a, b, problem.integer_mask())


# ---------------------------------------------------------------------------
# box fast path
# ---------------------------------------------------------------------------


def box_lmo(direction: np.ndarray, region: Region) -> np.ndarray:
    """argmin of direction'x over the box; ties resolve to the lower bound."""
    direction = np.asarray(direction, dtype=float)
    return np.where(direction > 0, region.lb, np.where(direction < 0, region.ub, region.lb)).astype(float)


# ---------------------------------------------------------------------------
# bounded-variable simplex
# ---------------------------------------------------------------------------


@dataclass
class LpResult:
    point: np.ndarray | None
    value: float
    status: str  # optimal | infeasible | error
    detail: str = ""


class _BoundedSimplex:
    """Dense two-phase simplex over l <= x <= u, Ax = b (slacks added).

    Nonbasic variables sit at a bound; the ratio test covers leaving
    variables hitting either bound and entering-variable bound flips.
    Dantzig pricing switches to Bland's rule after ``2 * n_total``
    consecutive degenerate pivots.  A pivot starting after ``stop_at``
    (a ``time.monotonic()`` reading) ends the run.
    """

    MAX_ITER = 20000

    def __init__(self, a_rows: np.ndarray, rhs: np.ndarray,
                 cost: np.ndarray, lb: np.ndarray, ub: np.ndarray, stop_at: float):
        m, n = a_rows.shape
        self.m, self.n_struct = m, n
        n_total = n + m  # structural + one slack per row
        self.A = np.zeros((m, n_total))
        self.A[:, :n] = a_rows
        self.A[:, n:] = np.eye(m)
        self.lo = np.concatenate([lb, np.zeros(m)])
        self.hi = np.concatenate([ub, np.full(m, np.inf)])
        self.b = rhs.astype(float)
        self.cost = np.concatenate([cost, np.zeros(m)])
        self.at_upper = np.zeros(n_total, dtype=bool)
        self.basis: list[int] = []
        self.n_art = 0
        self.stop_at = stop_at

    # -- setup ---------------------------------------------------------------

    def _add_artificials(self) -> None:
        n_total = self.A.shape[1]
        x = np.where(self.at_upper, self.hi, self.lo)
        resid = self.b - self.A[:, : self.n_struct] @ x[: self.n_struct]
        art_cols = []
        for i in range(self.m):
            slack = self.n_struct + i
            if resid[i] >= 0:
                self.basis.append(slack)  # slack absorbs the residual
            else:
                col = np.zeros(self.m)
                col[i] = -1.0
                art_cols.append(col)
                self.basis.append(n_total + len(art_cols) - 1)
        if art_cols:
            self.A = np.hstack([self.A, np.column_stack(art_cols)])
            self.lo = np.concatenate([self.lo, np.zeros(len(art_cols))])
            self.hi = np.concatenate([self.hi, np.full(len(art_cols), np.inf)])
            self.at_upper = np.concatenate([self.at_upper, np.zeros(len(art_cols), dtype=bool)])
            self.cost = np.concatenate([self.cost, np.zeros(len(art_cols))])
        self.n_art = len(art_cols)

    def _basic_values(self) -> np.ndarray:
        x_fixed = np.where(self.at_upper, self.hi, self.lo)
        x_fixed = np.where(np.isfinite(x_fixed), x_fixed, 0.0)
        nonbasic = np.ones(self.A.shape[1], dtype=bool)
        nonbasic[self.basis] = False
        rhs = self.b - self.A[:, nonbasic] @ x_fixed[nonbasic]
        B = self.A[:, self.basis]
        return np.linalg.solve(B, rhs)

    # -- core loop -----------------------------------------------------------

    def _run(self, cost: np.ndarray) -> str:
        n_total = self.A.shape[1]
        bland_after = 2 * n_total
        degenerate = 0
        for _ in range(self.MAX_ITER):
            if time.monotonic() > self.stop_at:
                return "time_limit"
            try:
                B = self.A[:, self.basis]
                x_b = self._basic_values()
                y = np.linalg.solve(B.T, cost[self.basis])
            except np.linalg.LinAlgError:
                return "singular"
            in_basis = np.zeros(n_total, dtype=bool)
            in_basis[self.basis] = True
            reduced = cost - y @ self.A
            enter = -1
            use_bland = degenerate >= bland_after
            best = -np.inf
            for j in range(n_total):
                if in_basis[j] or self.lo[j] == self.hi[j]:
                    continue
                zj = reduced[j]
                improving = (zj < -_LP_TOL and not self.at_upper[j]) or (
                    zj > _LP_TOL and self.at_upper[j])
                if not improving:
                    continue
                if use_bland:
                    enter = j
                    break
                if abs(zj) > best + 1e-15:
                    best = abs(zj)
                    enter = j
            if enter < 0:
                return "optimal"

            sigma = -1.0 if self.at_upper[enter] else 1.0
            try:
                w = np.linalg.solve(B, self.A[:, enter])
            except np.linalg.LinAlgError:
                return "singular"
            # basic values move by -sigma * t * w
            t_best = self.hi[enter] - self.lo[enter]  # bound flip cap
            leave_pos, leave_to_upper = -1, False
            for i in range(self.m):
                step = sigma * w[i]
                col = self.basis[i]
                if step > _LP_TOL:
                    limit = max(x_b[i] - self.lo[col], 0.0) / step
                    hits_upper = False
                elif step < -_LP_TOL and math.isfinite(self.hi[col]):
                    limit = max(self.hi[col] - x_b[i], 0.0) / (-step)
                    hits_upper = True
                else:
                    continue
                if limit < t_best - 1e-12 or (
                    limit < t_best + 1e-12
                    and leave_pos >= 0
                    and col < self.basis[leave_pos]
                ):
                    t_best = limit
                    leave_pos = i
                    leave_to_upper = hits_upper
            if not math.isfinite(t_best):
                return "unbounded"
            degenerate = degenerate + 1 if t_best <= 1e-11 else 0
            if leave_pos < 0:
                # entering variable flips to its other bound
                self.at_upper[enter] = not self.at_upper[enter]
            else:
                leaving = self.basis[leave_pos]
                self.basis[leave_pos] = enter
                self.at_upper[leaving] = leave_to_upper
                self.at_upper[enter] = False
        return "iteration_limit"

    def solve(self) -> tuple[str, np.ndarray | None, str]:
        self._add_artificials()
        n_total_real = self.n_struct + self.m
        if self.n_art:
            phase1 = np.zeros(self.A.shape[1])
            phase1[n_total_real:] = 1.0
            status = self._run(phase1)
            if status != "optimal":
                return "error", None, f"phase 1 {status}"
            x_b = self._basic_values()
            infeas = sum(
                abs(x_b[i]) for i in range(self.m) if self.basis[i] >= n_total_real
            )
            if infeas > 1e-7:
                return "infeasible", None, ""
            self.hi[n_total_real:] = 0.0  # pin artificials for phase 2
        status = self._run(self.cost)
        if status != "optimal":
            return "error", None, f"phase 2 {status}"
        x = np.where(self.at_upper, self.hi, self.lo)
        x = np.where(np.isfinite(x), x, 0.0)
        x_b = self._basic_values()
        for i, col in enumerate(self.basis):
            x[col] = x_b[i]
        return "optimal", x[: self.n_struct], ""


def solve_lp(direction: np.ndarray, region: Region, stop_at: float = math.inf) -> LpResult:
    """Minimize direction'x over the region's rows and bounds.

    Falls back to the coordinatewise box rule when there are no rows.  A
    simplex still running at ``stop_at`` (a ``time.monotonic()`` reading)
    returns status ``error``.
    """
    direction = np.asarray(direction, dtype=float)
    lb, ub = region.lb, region.ub
    if np.any(lb > ub + 1e-12):
        return LpResult(None, math.inf, "infeasible")
    if not len(region.b):
        x = box_lmo(direction, region)
        return LpResult(x, float(direction @ x), "optimal")

    simplex = _BoundedSimplex(region.a, region.b, direction, lb, ub, stop_at)
    status, x, detail = simplex.solve()
    if status == "optimal":
        x = np.clip(x, lb, ub)
        return LpResult(x, float(direction @ x), "optimal")
    if status == "infeasible":
        return LpResult(None, math.inf, "infeasible")
    return LpResult(None, math.inf, "error", detail)


# ---------------------------------------------------------------------------
# integer rounding: the one rule every snap, fixing and bound rounding uses
# ---------------------------------------------------------------------------


def round_integers(x: np.ndarray, int_mask: np.ndarray, lb: np.ndarray,
                   ub: np.ndarray) -> np.ndarray:
    """Copy of ``x`` with the masked coordinates rounded half up and
    clamped to their bounds; the others are left as they are.  Neither
    ``floor(x + 0.5)`` nor a bound from ``integral_bounds`` is -0.0, so
    -0.3 and 0.2 round to one vertex key."""
    out = np.array(x, dtype=float)
    out[int_mask] = np.clip(np.floor(out[int_mask] + 0.5), lb[int_mask], ub[int_mask])
    return out


def fix_coordinates(lb: np.ndarray, ub: np.ndarray, int_mask: np.ndarray,
                    fix: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """New bounds with the ``fix`` coordinates (a mask or indices) pinned at
    ``values``, integer coordinates rounded by ``round_integers``."""
    pinned = np.clip(round_integers(values, int_mask, lb, ub), lb, ub)
    lb, ub = lb.copy(), ub.copy()
    lb[fix] = ub[fix] = pinned[fix]
    return lb, ub


def integral_bounds(lb: np.ndarray, ub: np.ndarray,
                    int_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the bounds with the masked coordinates rounded inward."""
    lb, ub = lb.copy(), ub.copy()
    # + 0.0: np.ceil gives -0.0 on (-1, 0), and a clamp to it would carry
    # the sign into vertex keys, so one vertex would get two
    lb[int_mask] = np.ceil(lb[int_mask] - 1e-9) + 0.0
    ub[int_mask] = np.floor(ub[int_mask] + 1e-9)
    return lb, ub


# ---------------------------------------------------------------------------
# internal MIP
# ---------------------------------------------------------------------------


@dataclass
class MipResult:
    point: np.ndarray | None
    value: float
    status: str  # optimal | infeasible | timeout | error
    trusted: bool = True  # False exactly when a stopped search has no point


def most_fractional(x: np.ndarray, int_mask: np.ndarray) -> int | None:
    """Most fractional integer variable: the lowest index among the scores
    within 1e-12 of the largest; None when every one is within INT_TOL of
    an integer."""
    frac = x - np.floor(x)
    score = np.where(int_mask & (frac > INT_TOL) & (frac < 1.0 - INT_TOL),
                     np.minimum(frac, 1.0 - frac), 0.0)
    best = score.max(initial=0.0)
    if best == 0.0:
        return None
    return int(np.argmax(score >= best - 1e-12))


def mip_lmo(
    direction: np.ndarray,
    region: Region,
    deadline: float | None = None,
) -> MipResult:
    """Optimal mixed-integer vertex of min direction'x over the region.

    Depth-first search, branching on the most fractional integer variable
    (lowest index breaks ties), down branch explored first, nodes pruned
    when their LP bound reaches the incumbent minus 1e-9.

    A search stopped after ``MIP_NODE_CAP`` nodes or at ``deadline`` (a
    ``time.monotonic()`` reading) returns its incumbent with status
    ``timeout``, or no point (``trusted`` False) when it has none.
    """
    direction = np.asarray(direction, dtype=float)
    int_mask = region.integer_mask
    lb, ub = integral_bounds(region.lb, region.ub, int_mask)
    if np.any(lb > ub):
        return MipResult(None, math.inf, "infeasible")

    if not len(region.b):
        x = box_lmo(direction, region.with_bounds(lb, ub))
        return MipResult(x, float(direction @ x), "optimal")

    stop_at = math.inf if deadline is None else deadline
    stack: list[tuple[np.ndarray, np.ndarray]] = [(lb, ub)]
    incumbent: np.ndarray | None = None
    incumbent_val = math.inf
    nodes = 0
    timed_out = False
    any_lp_error = False

    while stack:
        if nodes >= MIP_NODE_CAP or time.monotonic() > stop_at:
            timed_out = True
            break
        node_lb, node_ub = stack.pop()
        nodes += 1
        res = solve_lp(direction, region.with_bounds(node_lb, node_ub), stop_at)
        if res.status == "infeasible":
            continue
        if res.status == "error":
            if time.monotonic() > stop_at:  # the LP was cut, not failed
                timed_out = True
                break
            any_lp_error = True
            continue
        if res.value >= incumbent_val - 1e-9:
            continue
        k = most_fractional(res.point, int_mask)
        if k is None:
            x = round_integers(res.point, int_mask, node_lb, node_ub)
            snap = np.abs(x - res.point)
            if snap.any() and not region.contains(x):
                # a snap within INT_TOL broke a row: branch on the largest
                k = int(np.argmax(snap))
            else:
                val = float(direction @ x)
                if val < incumbent_val:
                    incumbent = x
                    incumbent_val = val
                continue
        down_ub = node_ub.copy()
        down_ub[k] = math.floor(res.point[k])
        up_lb = node_lb.copy()
        up_lb[k] = math.ceil(res.point[k])
        stack.append((up_lb, node_ub))  # popped second
        stack.append((node_lb, down_ub))  # down branch explored first

    if timed_out:
        return MipResult(incumbent, incumbent_val, "timeout", trusted=incumbent is not None)
    if incumbent is None:
        if any_lp_error:
            return MipResult(None, math.inf, "error")
        return MipResult(None, math.inf, "infeasible")
    return MipResult(incumbent, incumbent_val, "optimal")


# ---------------------------------------------------------------------------
# vertex cache / lazification
# ---------------------------------------------------------------------------


def vertex_key(v: np.ndarray) -> bytes:
    """Identity of a vertex: its coordinates rounded at 1e-9."""
    return np.round(np.asarray(v, dtype=float), 9).tobytes()


class VertexCache:
    """Deduplicated store of previously returned vertices (per worker).

    Vertices are hashed by coordinates rounded at 1e-9, validated against
    the inserting region and kept as the rows of one matrix, oldest first.
    """

    def __init__(self) -> None:
        self._rows: np.ndarray | None = None  # capacity doubles when full
        self._count = 0
        self._keys: set[bytes] = set()

    def __len__(self) -> int:
        return self._count

    @property
    def vertices(self) -> np.ndarray:
        """The cached vertices as rows, oldest first (a read-only view)."""
        if self._rows is None:
            return np.zeros((0, 0))
        view = self._rows[: self._count]
        view.flags.writeable = False
        return view

    def insert(self, v: np.ndarray, region: Region) -> bool:
        """Insert a vertex after validating region membership; returns
        False for duplicates or vertices violating the region."""
        if not region.contains(v, ROW_FEASIBILITY_TOL, INT_TOL):
            return False
        key = vertex_key(v)
        if key in self._keys:
            return False
        self._keys.add(key)
        if self._rows is None or self._count == len(self._rows):
            grown = np.empty((max(2 * self._count, 16), len(v)))
            if self._rows is not None:
                grown[: self._count] = self._rows
            self._rows = grown
        self._rows[self._count] = v
        self._count += 1
        return True


def lazy_lookup(
    cache: VertexCache,
    gradient: np.ndarray,
    x_t: np.ndarray,
    phi: float,
    region: Region | None = None,
) -> np.ndarray | None:
    """Return a cached vertex v with <gradient, x_t - v> >= phi/2, or None.

    The most recently cached vertex that qualifies wins.  When ``region``
    is given, only vertices valid for it are considered (node bounds
    tighten as the tree descends, so cached vertices from other nodes may
    no longer apply).
    """
    if phi < 0:
        phi = 0.0
    threshold = phi / 2.0
    if not len(cache):
        return None
    vertices = cache.vertices
    if region is None:
        valid = np.arange(len(vertices))
    else:
        valid = np.flatnonzero(region.members(vertices, ROW_FEASIBILITY_TOL, INT_TOL))
    for k in valid[::-1]:
        v = vertices[k]
        if float(gradient @ (x_t - v)) >= threshold:
            return v.copy()
    return None
