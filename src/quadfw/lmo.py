"""Linear minimization oracles over the mixed-integer feasible region.

The region is a box, one row block ``a @ x <= b`` and an integrality
mask.  Presolve normalizes every linear row to ``<=`` before a region is
built, so the oracles never see GE or EQ rows.

Three layers:

* ``box_lmo`` -- closed-form minimizer over a box (no rows),
* ``solve_lp`` -- dense bounded dual simplex started at ``box_lmo``'s
  point (dual feasible on finite bounds, so there is no phase 1) or at a
  given dual feasible basis, with a bound-flipping ratio test that
  refuses pivot entries small beside their row's largest, and one fault
  rule: a revisited basis, or a ratio test that finds no column, loosens
  the rows by half the row tolerance once and goes on from that basis;
  after that the LP ends as error or infeasible.  It stops at a pivot
  once its stop time has passed, keeps the basis inverse under rank-one
  updates and makes one ``np.linalg.solve`` per LP, on the final basis,
  for the point.  It runs on the region's row block (``[a I]``, the slack
  basis and the slack bounds), which a region builds once and shares
  with its ``with_bounds`` copies, so the nodes of one MIP search, every
  MIP search over one region and the tree nodes cut from it build it once,
* ``mip_lmo`` -- depth-first branch-and-bound on top of ``solve_lp``
  (most-fractional branching, lowest index on ties, down branch first,
  pruning on the LP bound, each child's LP started from its parent's
  optimal basis), capped at ``MIP_NODE_CAP`` nodes and stopped at the
  caller's deadline.

``round_integers``, ``fix_coordinates`` and ``integral_bounds`` are the
one integer-rounding rule (half up, clamped; bounds rounded inward) that
every snap, fixing and integer-bound rounding in the package uses.

A per-worker ``VertexCache`` stores every vertex ``mip_lmo`` returns for
lazified Frank-Wolfe; ``lazy_lookup`` returns a cached vertex of the
given region with sufficient inner-product progress before paying for a
fresh MIP solve.  The cache tests each vertex against the rows once per
search and against the bounds once per node.
"""

from __future__ import annotations

import math
import operator
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .model import Problem, Sense

ROW_FEASIBILITY_TOL = 1e-7
INT_TOL = 1e-6
_LP_TOL = 1e-9
# a pivot entry within this factor of its row's largest movable entry counts as zero
_PIVOT_TOL = 1e-8
# nodes of one mip_lmo search; the benchmark's MIP calls take at most 125
MIP_NODE_CAP = 1000
# pivots of one LP before it returns status "error"
LP_PIVOT_CAP = 20000


class _RowBlock:
    """What every LP over the rows ``a @ x <= b`` has in common, whatever
    its bounds and cost: the matrix ``[a I]`` of the columns and their
    slacks, the slack basis, and templates of the extended bounds whose
    slack parts (``0 <= s < inf``) are filled in."""

    __slots__ = ("mat", "slack", "identity", "lo", "hi")

    def __init__(self, a: np.ndarray) -> None:
        m, n = a.shape
        self.mat = np.hstack([a, np.eye(m)])
        self.slack = np.arange(n, n + m)
        # the slack basis's inverse, shared: a pivot writes only into the
        # new inverse its update makes
        self.identity = np.eye(m)
        self.lo = np.zeros(n + m)
        self.hi = np.concatenate([np.zeros(n), np.full(m, np.inf)])


@dataclass
class Region:
    """Box bounds, the rows ``a @ x <= b`` and integrality over a fixed
    variable set.

    ``a`` has shape ``(len(b), n)``; omitting ``a`` and ``b`` gives a
    region without rows.  The LP row block (``[a I]`` and the slack
    bounds) is built once, on first use, and shared with every
    ``with_bounds`` copy, so the nodes of a search over one region build
    it once.  The fields are not to be changed in place after that.
    """

    lb: np.ndarray
    ub: np.ndarray
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    integer_mask: np.ndarray | None = None
    _block: _RowBlock | None = field(default=None, init=False, repr=False, compare=False)
    # set by mip_lmo on its node copies, whose bounds it has checked
    _finite: bool = field(default=False, init=False, repr=False, compare=False)

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

    def row_block(self) -> _RowBlock:
        """The LP row block of the rows, built on first use."""
        if self._block is None:
            self._block = _RowBlock(self.a)
        return self._block

    def with_bounds(self, lb: np.ndarray, ub: np.ndarray) -> "Region":
        """This region on other bounds.  The copy shares the rows, the
        mask and the row block (built here when there are rows), without
        converting or checking them again."""
        if len(self.b):
            self.row_block()
        region = object.__new__(Region)
        region.__dict__.update(self.__dict__)
        region.lb = np.asarray(lb, dtype=float)
        region.ub = np.asarray(ub, dtype=float)
        region._finite = False
        return region

    def contains(self, x: np.ndarray, tol: float = ROW_FEASIBILITY_TOL,
                 int_tol: float | None = None) -> bool:
        return bool(self.members(np.asarray(x)[np.newaxis], tol, int_tol)[0])

    def members(self, points: np.ndarray, tol: float = ROW_FEASIBILITY_TOL,
                int_tol: float | None = None) -> np.ndarray:
        """Membership mask of the rows of ``points`` (shape ``(k, n)``):
        bounds and rows within ``tol``, integrality within ``int_tol``
        unless it is None.  Rows and integrality are checked only on the
        points inside the bounds."""
        inside = self.inside(points, tol)
        kept = np.flatnonzero(inside)
        inside[kept] = self.fits(points[kept], tol, int_tol)
        return inside

    def inside(self, points: np.ndarray, tol: float = ROW_FEASIBILITY_TOL) -> np.ndarray:
        """Mask of the rows of ``points`` within ``tol`` of the bounds."""
        out = points < self.lb - tol
        out |= points > self.ub + tol
        return ~out.any(axis=1)

    def fits(self, points: np.ndarray, tol: float = ROW_FEASIBILITY_TOL,
             int_tol: float | None = None) -> np.ndarray:
        """Mask of the rows of ``points`` that meet the rows within ``tol``
        and, unless ``int_tol`` is None, integrality within ``int_tol``;
        the bounds are not checked."""
        ok = ~np.any(points @ self.a.T > self.b + tol, axis=1)
        if int_tol is not None and self.integer_mask.any():
            x_int = points[:, self.integer_mask]
            ok &= ~(np.abs(x_int - np.round(x_int)).max(axis=1) > int_tol)
        return ok


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
# bounded dual simplex
# ---------------------------------------------------------------------------


@dataclass
class LpResult:
    point: np.ndarray | None
    value: float
    status: str  # optimal | infeasible | error
    # the optimal run's final (basis, at_upper), a start for solve_lp
    state: tuple[np.ndarray, np.ndarray] | None = None


def _dual_simplex(block: _RowBlock, b: np.ndarray, cost: np.ndarray, lb: np.ndarray,
                  ub: np.ndarray, stop_at: float,
                  start: tuple[np.ndarray, np.ndarray] | None = None,
                  ) -> tuple[str, np.ndarray | None, tuple[np.ndarray, np.ndarray] | None]:
    """Dense bounded dual simplex for min cost'x over ``a @ x + s = b``,
    ``lb <= x <= ub`` (finite), ``s >= 0``, on the row block of ``a``.

    The block holds ``[a I]`` and the slack bounds, which every LP over
    these rows shares; a run adds only the cost and the bounds of ``x``.
    It starts from ``start``, a ``(basis, at_upper)`` state that is dual
    feasible for ``cost`` (an optimal state of the same cost under other
    bounds is), else from the slack basis with every column at the bound
    its cost favours (``box_lmo``'s point), which is dual feasible.  The
    run keeps the basis inverse: the identity on the slack basis, one
    ``np.linalg.inv`` on a given start, and a rank-one product-form update
    per pivot; the basic values, duals and pivot row are read from it.
    When it shows no violated basic variable, one ``np.linalg.solve`` on
    the basis confirms that and gives the returned point; a failed
    confirmation refactors the inverse and the run goes on.  The mask of
    the nonbasic columns that can move and the direction each would move
    in are kept from pivot to pivot.

    Each pivot sends the most violated basic variable to the bound it
    violates; the bound-flipping ratio test walks the breakpoints
    ``|d_j| / |alpha_j|`` (lowest index on ties), flipping each column
    passed, until one can absorb the rest of the violation and enters.
    Only columns with ``|alpha_j|`` above ``_LP_TOL`` and above
    ``_PIVOT_TOL`` times the largest ``|alpha|`` of the movable nonbasic
    columns take part, so no pivot leaves a near-singular basis.  The
    price: an entry that small beside its row's largest counts as zero
    (``1e-8 x0 + x1 >= 0.5`` over ``[0, 1e5]^2`` gives ``x1 = 0.5``,
    not 0.499).

    One fault rule: a run that comes back to a ``(basis, at_upper)``
    state it has passed, or whose ratio test finds no column (the state
    then stays as it is, and the next turn meets it again), loosens every
    row by ``ROW_FEASIBILITY_TOL / 2`` once and goes on from that basis,
    dual feasible for any ``b``.  On loosened rows a revisit returns
    error and an empty ratio test infeasible.  A pivot starting after
    ``stop_at`` (a ``time.monotonic()`` reading) ends the run.

    Returns ``(status, x, state)`` with status optimal, infeasible or
    error, and the final ``(basis, at_upper)`` when optimal; a singular
    basis raises ``numpy.linalg.LinAlgError``.
    """
    n = len(lb)
    mat = block.mat
    lo = block.lo.copy()
    lo[:n] = lb
    hi = block.hi.copy()
    hi[:n] = ub
    c = np.concatenate([cost, np.zeros(len(b))])
    movable = lo < hi
    width = hi - lo
    if start is None:
        basis, inverse = block.slack.copy(), block.identity
        at_upper = np.concatenate([cost < 0, np.zeros(len(b), dtype=bool)])
    else:
        basis, at_upper = start[0].copy(), start[1].copy()
        inverse = np.linalg.inv(mat[:, basis])
    # free: nonbasic and movable; sign: +1 at the lower bound, -1 at the
    # upper, the way a column moves toward its other bound.  Each pivot
    # updates both where it changes the state.
    free = movable.copy()
    free[basis] = False
    sign = np.where(at_upper, -1.0, 1.0)
    loosened = False
    seen: set[bytes] = set()  # (basis, at_upper) states passed on the current rows
    for _ in range(LP_PIVOT_CAP):
        if time.monotonic() > stop_at:
            return "error", None, None
        state = basis.tobytes() + at_upper.tobytes()
        if state in seen:
            # a cycle of degenerate pivots, or a ratio test that left the
            # state as it was
            if loosened:
                return "error", None, None
            seen.clear()
            b = b + 0.5 * ROW_FEASIBILITY_TOL
            loosened = True
        seen.add(state)
        x = np.where(at_upper, hi, lo)
        x[basis] = 0.0
        rest = b - mat @ x
        x_b = inverse @ rest
        below = lo[basis] - x_b
        violation = np.maximum(below, x_b - hi[basis])
        r = int(violation.argmax())
        if violation[r] <= _LP_TOL:
            columns = mat[:, basis]
            x_b = np.linalg.solve(columns, rest)
            below = lo[basis] - x_b
            violation = np.maximum(below, x_b - hi[basis])
            r = int(violation.argmax())
            if violation[r] <= _LP_TOL:
                x[basis] = x_b
                return "optimal", x[:n], (basis, at_upper)
            inverse = np.linalg.inv(columns)
        sigma = 1.0 if below[r] > 0 else -1.0  # +1: leaves at its lower bound
        y = c[basis] @ inverse
        rho = inverse[r]
        d = c - y @ mat
        alpha = rho @ mat
        # a column whose move toward its other bound repairs the row, on
        # an entry that is not small beside the row's largest movable one
        size = np.abs(alpha)
        pivot_tol = max(_LP_TOL, _PIVOT_TOL * size.max(where=free, initial=0.0))
        toward = sign * alpha if sigma > 0 else -(sign * alpha)
        eligible = (free & (toward < -pivot_tol)).nonzero()[0]
        steep = size[eligible]
        perm = (np.abs(d[eligible]) / steep).argsort(kind="stable")
        order = eligible[perm]
        left = violation[r] - (steep[perm] * width[order]).cumsum()
        # left falls along the walk, so it absorbs somewhere iff at its end
        absorbs = left <= _LP_TOL
        if not len(absorbs) or not absorbs[-1]:
            # no column covers the violation: infeasible on loosened rows;
            # else the state stays as it is and the next turn loosens them
            # (a row met only to rounding keeps a violation of about _LP_TOL)
            if loosened:
                return "infeasible", None, None
            continue
        k = int(absorbs.argmax())
        enter = order[k]
        leave = basis[r]
        passed = order[:k]
        at_upper[passed] ^= True
        sign[passed] = -sign[passed]
        at_upper[leave] = sigma < 0
        sign[leave] = sigma
        free[leave] = movable[leave]
        at_upper[enter] = False
        sign[enter] = 1.0
        free[enter] = False
        basis[r] = enter
        # product-form update: row r becomes the pivot row scaled by the
        # entering column's entry, the others lose their multiple of it
        column = inverse @ mat[:, enter]
        pivot_row = rho / column[r]
        inverse = inverse - column[:, np.newaxis] * pivot_row
        inverse[r] = pivot_row
    return "error", None, None


def solve_lp(direction: np.ndarray, region: Region, stop_at: float = math.inf,
             start: tuple[np.ndarray, np.ndarray] | None = None) -> LpResult:
    """Minimize direction'x over the region's rows and bounds.

    Falls back to the coordinatewise box rule when there are no rows;
    otherwise the dual simplex runs on the region's row block, which the
    region shares with its ``with_bounds`` copies.  ``start`` is a
    ``(basis, at_upper)`` state for the dual simplex, such as the
    ``state`` of an optimal ``LpResult`` of the same direction over other
    bounds; an optimal result carries its own.  A simplex still running
    at ``stop_at`` (a ``time.monotonic()`` reading) returns status
    ``error``.  Raises ``ValueError`` on an infinite bound: the dual
    simplex starts at a box vertex.
    """
    direction = np.asarray(direction, dtype=float)
    lb, ub = region.lb, region.ub
    if not (region._finite or (np.isfinite(lb).all() and np.isfinite(ub).all())):
        raise ValueError("solve_lp needs finite bounds")
    if (lb > ub + 1e-12).any():
        return LpResult(None, math.inf, "infeasible")
    if not len(region.b):
        x = box_lmo(direction, region)
        return LpResult(x, float(direction @ x), "optimal")

    try:
        status, x, state = _dual_simplex(region.row_block(), region.b, direction, lb, ub,
                                         stop_at, start)
    except np.linalg.LinAlgError:
        return LpResult(None, math.inf, "error")
    if status == "optimal":
        x = x.clip(lb, ub)
        return LpResult(x, float(direction @ x), "optimal", state)
    return LpResult(None, math.inf, status)


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
    deadline: float = math.inf,
) -> MipResult:
    """Optimal mixed-integer vertex of min direction'x over the region.

    Depth-first search, branching on the most fractional integer variable
    (lowest index breaks ties), down branch explored first, nodes pruned
    when their LP bound reaches the incumbent minus 1e-9.  Each child's LP
    starts from its parent's final simplex state.

    A search stopped after ``MIP_NODE_CAP`` nodes or at ``deadline`` (a
    ``time.monotonic()`` reading) returns its incumbent with status
    ``timeout``, or no point (``trusted`` False) when it has none.  A
    search in which an LP failed returns its incumbent, possibly none,
    with status ``error``.
    """
    direction = np.asarray(direction, dtype=float)
    int_mask = region.integer_mask
    lb, ub = integral_bounds(region.lb, region.ub, int_mask)
    if np.any(lb > ub):
        return MipResult(None, math.inf, "infeasible")

    if not len(region.b):
        x = box_lmo(direction, region.with_bounds(lb, ub))
        return MipResult(x, float(direction @ x), "optimal")
    # the rounding of finite LP values keeps every node's bounds finite
    if not (np.isfinite(lb).all() and np.isfinite(ub).all()):
        raise ValueError("mip_lmo needs finite bounds")

    # (lb, ub, the parent LP's final state): the parent's optimal basis is
    # dual feasible for a child, whose cost is the same
    stack: list[tuple[np.ndarray, np.ndarray, tuple | None]] = [(lb, ub, None)]
    incumbent: np.ndarray | None = None
    incumbent_val = math.inf
    nodes = 0
    timed_out = False
    any_lp_error = False

    while stack:
        if nodes >= MIP_NODE_CAP or time.monotonic() > deadline:
            timed_out = True
            break
        node_lb, node_ub, start = stack.pop()
        nodes += 1
        node = region.with_bounds(node_lb, node_ub)
        node._finite = True
        res = solve_lp(direction, node, deadline, start)
        if res.status == "infeasible":
            continue
        if res.status == "error":
            if time.monotonic() > deadline:  # the LP was cut, not failed
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
        stack.append((up_lb, node_ub, res.state))  # popped second
        stack.append((node_lb, down_ub, res.state))  # down branch explored first

    if timed_out:
        return MipResult(incumbent, incumbent_val, "timeout", trusted=incumbent is not None)
    if any_lp_error:  # a failed LP's subtree went unsearched
        return MipResult(incumbent, incumbent_val, "error")
    if incumbent is None:
        return MipResult(None, math.inf, "infeasible")
    return MipResult(incumbent, incumbent_val, "optimal")


# ---------------------------------------------------------------------------
# vertex cache / lazification
# ---------------------------------------------------------------------------


def vertex_key(v: np.ndarray) -> bytes:
    """Identity of a vertex: its coordinates rounded at 1e-9."""
    return np.round(np.asarray(v, dtype=float), 9).tobytes()


class _VertexFlags:
    """One flag per cached vertex for one key, a tuple of arrays compared
    by identity: each vertex's flag is computed once, and every flag anew
    when the key changes."""

    __slots__ = ("key", "flags", "done")

    def __init__(self) -> None:
        self.key: tuple[np.ndarray, ...] | None = None
        self.flags = np.zeros(0, dtype=bool)
        self.done = 0  # leading vertices whose flag is set

    def update(self, key: tuple[np.ndarray, ...], vertices: np.ndarray,
               test: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        if self.key is None or not all(map(operator.is_, self.key, key)):
            self.key = key
            self.done = 0
        count = len(vertices)
        if len(self.flags) < count:
            grown = np.zeros(max(2 * len(self.flags), count, 16), dtype=bool)
            grown[: self.done] = self.flags[: self.done]
            self.flags = grown
        if self.done < count:
            self.flags[self.done : count] = test(vertices[self.done : count])
            self.done = count
        return self.flags[:count]


class VertexCache:
    """Deduplicated store of the vertices ``mip_lmo`` returned (per worker).

    Vertices are hashed by coordinates rounded at 1e-9 and kept as the
    rows of one matrix, oldest first, unchecked on insert: ``lazy_lookup``
    serves only members of the region it is given (``members``).  Every
    region of one search shares its rows and integrality mask, and the
    lookups of one Frank-Wolfe node share its bounds, so the cache keeps
    per vertex whether it meets the rows and integrality it was last asked
    about, and whether it lies inside the bounds it was last asked about.
    Each vertex is tested once for each; the arrays are compared by
    identity, and other rows or other bounds are tested anew on every
    vertex.  A region's arrays are therefore not to be changed in place.
    """

    def __init__(self) -> None:
        self._rows: np.ndarray | None = None  # capacity doubles when full
        self._count = 0
        self._keys: set[bytes] = set()
        self._fits = _VertexFlags()
        self._inside = _VertexFlags()

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

    def insert(self, v: np.ndarray) -> bool:
        """Insert a vertex; returns False when its key is already cached."""
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

    def members(self, region: Region) -> np.ndarray:
        """Membership mask of the cached vertices, oldest first: bounds
        and rows within ``ROW_FEASIBILITY_TOL``, integrality within
        ``INT_TOL``; ``region.members`` of ``vertices``, from the flags."""
        vertices = self.vertices
        fits = self._fits.update(
            (region.a, region.b, region.integer_mask), vertices,
            lambda points: region.fits(points, ROW_FEASIBILITY_TOL, INT_TOL))
        inside = self._inside.update((region.lb, region.ub), vertices, region.inside)
        return fits & inside


def lazy_lookup(
    cache: VertexCache,
    gradient: np.ndarray,
    x_t: np.ndarray,
    phi: float,
    region: Region,
) -> np.ndarray | None:
    """Return a cached vertex v with <gradient, x_t - v> >= phi/2, or None.

    The most recently cached vertex that qualifies wins.  Only members of
    ``region`` (rows and bounds within ``ROW_FEASIBILITY_TOL``, integrality
    within ``INT_TOL``) qualify: this is the cache's one region check, and
    vertices cached at other nodes may lie outside this node's bounds.
    The cache tests each vertex's rows once per search and its bounds
    once per node (``VertexCache.members``), so a lookup tests only the
    vertices cached since the last one.
    """
    threshold = max(phi, 0.0) / 2.0
    if not len(cache):
        return None
    vertices = cache.vertices
    for k in np.flatnonzero(cache.members(region))[::-1]:
        v = vertices[k]
        if float(gradient @ (x_t - v)) >= threshold:
            return v.copy()
    return None
