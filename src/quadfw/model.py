"""In-memory representation of mixed-integer quadratically constrained
quadratic programs (MIQCQPs) and exact evaluation of objective and
constraints.

Term convention
---------------
Quadratic expressions are stored as sparse term lists ``(i, j, q)`` with
``i <= j``, where a term contributes ``q * x[i] * x[j]`` to the expression
value.  The objective value is::

    sum(q * x[i] * x[j] for (i, j, q) in terms_obj) + d @ x + c0

This equals the matrix form ``0.5 * x @ Q @ x + d @ x + c0`` with the
symmetric matrix ``Q`` defined by ``Q[i, j] = Q[j, i] = q`` for ``i < j``
and ``Q[i, i] = 2 * q``.  ``assemble_symmetric`` / ``terms_from_symmetric``
convert between the two representations.

All problems are minimized internally.  Instances declared as
maximization are negated at parse time (``sense_flag`` records the
original sense) and reported values are re-negated on output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

INFINITY = float("inf")

#: Default absolute feasibility tolerance for constraints and bounds.
DEFAULT_TOL_CONS = 1e-6
#: Default integrality tolerance.
DEFAULT_TOL_INT = 1e-6


class VarKind(enum.Enum):
    CONTINUOUS = "C"
    INTEGER = "I"
    BINARY = "B"


class Sense(enum.Enum):
    LE = "LE"
    GE = "GE"
    EQ = "EQ"


class ModelError(ValueError):
    """Raised on malformed model data (bad indices, dimension mismatch)."""


@dataclass
class QuadConstraint:
    """One normalized constraint ``sum(q*x_i*x_j) + b@x + c (<=|=) 0``.

    After normalization only LE constraints and recognized complementarity
    equalities (a single bilinear term, no linear part, zero constant) are
    stored; GE rows are negated and general EQ rows are split into LE
    pairs by :func:`normalize_constraint`.
    """

    terms: list[tuple[int, int, float]]
    b: dict[int, float]
    c: float
    sense: Sense = Sense.LE
    tag: str = "generic"  # generic | complementarity | perspective | indicator

    def is_linear(self) -> bool:
        return not self.terms

    def b_dense(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        for k, v in self.b.items():
            out[k] = v
        return out

    def max_abs_coef(self) -> float:
        vals = [abs(q) for (_, _, q) in self.terms]
        vals.extend(abs(v) for v in self.b.values())
        vals.append(abs(self.c))
        return max(vals) if vals else 0.0


@dataclass
class FeasibilityReport:
    max_violation: float
    worst_constraint: int | None
    integral: bool
    in_bounds: bool
    feasible: bool


@dataclass
class Problem:
    """One MIQCQP in minimization form.

    Bounds may contain ``+-inf`` between parsing and presolve; presolve
    guarantees finite bounds before the solver runs.
    """

    n: int
    terms_obj: list[tuple[int, int, float]]
    d: np.ndarray
    c0: float
    constraints: list[QuadConstraint]
    lb: np.ndarray
    ub: np.ndarray
    integrality: list[VarKind]
    sense_flag: str = "MIN"  # original sense, MIN or MAX
    name: str = ""
    # built on first evaluation; replace() and copy() start without one
    _compiled: "_CompiledTerms | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.d = np.asarray(self.d, dtype=float)
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        if len(self.d) != self.n or len(self.lb) != self.n or len(self.ub) != self.n:
            raise ModelError("objective/bound vectors do not match variable count")
        if len(self.integrality) != self.n:
            raise ModelError("integrality vector does not match variable count")
        for (i, j, q) in self.terms_obj:
            if not (0 <= i <= j < self.n):
                raise ModelError(f"objective term ({i},{j}) out of range")
            if q == 0.0:
                raise ModelError("zero-coefficient objective term")
        for k, kind in enumerate(self.integrality):
            if kind is VarKind.BINARY and not (self.lb[k] >= 0.0 and self.ub[k] <= 1.0):
                raise ModelError(f"binary variable {k} has bounds outside [0, 1]")
        for con in self.constraints:
            for (i, j, _) in con.terms:
                if not (0 <= i <= j < self.n):
                    raise ModelError(f"constraint term ({i},{j}) out of range")
            for k in con.b:
                if not (0 <= k < self.n):
                    raise ModelError(f"constraint linear index {k} out of range")

    # -- structure helpers -------------------------------------------------

    def integer_mask(self) -> np.ndarray:
        return np.array([k is not VarKind.CONTINUOUS for k in self.integrality])

    def integer_indices(self) -> list[int]:
        return [k for k, kind in enumerate(self.integrality) if kind is not VarKind.CONTINUOUS]

    def is_all_binary(self) -> bool:
        return all(k is VarKind.BINARY for k in self.integrality)

    def has_quadratic_constraints(self) -> bool:
        return any(con.terms for con in self.constraints)

    def linear_constraint_indices(self) -> list[int]:
        return [i for i, con in enumerate(self.constraints) if con.is_linear()]

    def compiled(self) -> "_CompiledTerms":
        """Term arrays for exact evaluation.  Built once, so the term
        lists, linear parts, constants and integrality must not change
        afterwards."""
        if self._compiled is None:
            self._compiled = _CompiledTerms(self)
        return self._compiled

    def bounds_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.lb)) and np.all(np.isfinite(self.ub)))

    def copy(self) -> "Problem":
        return replace(
            self,
            terms_obj=list(self.terms_obj),
            d=self.d.copy(),
            constraints=[
                QuadConstraint(list(c.terms), dict(c.b), c.c, c.sense, c.tag)
                for c in self.constraints
            ],
            lb=self.lb.copy(),
            ub=self.ub.copy(),
            integrality=list(self.integrality),
        )


# -- term-list / matrix conversions ---------------------------------------


def assemble_symmetric(n: int, terms: list[tuple[int, int, float]]) -> np.ndarray:
    """Dense symmetric Q with value(x) = 0.5 x'Qx for the given term list."""
    q_mat = np.zeros((n, n))
    for (i, j, q) in terms:
        if i == j:
            q_mat[i, i] += 2.0 * q
        else:
            q_mat[i, j] += q
            q_mat[j, i] += q
    return q_mat


def terms_from_symmetric(q_mat: np.ndarray) -> list[tuple[int, int, float]]:
    """Inverse of :func:`assemble_symmetric`; exact zeros are dropped."""
    n = q_mat.shape[0]
    terms = []
    for i in range(n):
        if q_mat[i, i] != 0.0:
            terms.append((i, i, q_mat[i, i] / 2.0))
        for j in range(i + 1, n):
            if q_mat[i, j] != 0.0:
                terms.append((i, j, q_mat[i, j]))
    return terms


def merge_terms(terms: list[tuple[int, int, float]]) -> list[tuple[int, int, float]]:
    """Canonicalize a raw term list: i <= j, duplicates merged, zeros dropped."""
    acc: dict[tuple[int, int], float] = {}
    for (i, j, q) in terms:
        key = (i, j) if i <= j else (j, i)
        acc[key] = acc.get(key, 0.0) + q
    return [(i, j, q) for (i, j), q in sorted(acc.items()) if q != 0.0]


# -- evaluation ------------------------------------------------------------


class _CompiledTerms:
    """Index/coefficient arrays of a problem's terms, built once.

    Every expression is a sequence of items ``q * xe[i] * xe[j]`` over the
    point extended by one coordinate ``xe[n] = 1.0``: a quadratic term is
    ``(i, j, q)``, a linear entry ``(k, n, v)`` and a constant ``(n, n, c)``
    (multiplying by 1.0 is exact).  Each sequence starts with the item
    ``(n, n, 0.0)``.  Summing with ``np.cumsum`` adds the items one after
    the other, so the values equal the per-term loops bit for bit: the
    leading ``0.0`` is the loop's ``0`` start, which turns a ``-0.0`` first
    product into ``0.0``.

    The constraint rows lie one after the other in one set of arrays, row
    ``r`` at items ``starts[r]:starts[r + 1]``: memory grows with the
    number of items, not with the number of rows times the longest row.
    """

    def __init__(self, problem: "Problem") -> None:
        n = problem.n
        self.obj = self._arrays([(n, n, 0.0)] + list(problem.terms_obj))
        rows = [
            [(n, n, 0.0)] + list(con.terms) + [(n, n, con.c)]
            + [(k, n, v) for k, v in con.b.items()]
            for con in problem.constraints
        ]
        self.starts = np.cumsum([0] + [len(row) for row in rows]).tolist()
        self.rows = self._arrays([item for row in rows for item in row])
        self.eq_rows = np.array([con.sense is Sense.EQ for con in problem.constraints], dtype=bool)
        self.integer_indices = np.array(problem.integer_indices(), dtype=int)

    @staticmethod
    def _arrays(items: list[tuple[int, int, float]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        idx_i = np.array([i for (i, _, _) in items], dtype=int)
        idx_j = np.array([j for (_, j, _) in items], dtype=int)
        coef = np.array([q for (_, _, q) in items], dtype=float)
        return idx_i, idx_j, coef

    @staticmethod
    def _products(arrays, xe: np.ndarray) -> np.ndarray:
        idx_i, idx_j, coef = arrays
        return coef * xe[idx_i] * xe[idx_j]

    def terms_value(self, xe: np.ndarray) -> float:
        return float(np.cumsum(self._products(self.obj, xe))[-1])

    def row_value(self, r: int, xe: np.ndarray) -> float:
        items = slice(self.starts[r], self.starts[r + 1])
        return float(np.cumsum(self._products([a[items] for a in self.rows], xe))[-1])

    def row_values(self, xe: np.ndarray) -> np.ndarray:
        products = self._products(self.rows, xe)
        return np.array(
            [np.cumsum(products[s:e])[-1] for s, e in zip(self.starts[:-1], self.starts[1:])],
            dtype=float,
        )


def _extended_point(problem: Problem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as a float vector, checked against ``problem.n``, and the same
    point with the constant coordinate 1.0 appended."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ModelError(f"point has dimension {x.shape}, expected ({problem.n},)")
    return x, np.append(x, 1.0)


def _largest_positive(values: np.ndarray) -> tuple[int | None, float]:
    """First index of the largest positive entry and that entry, or
    ``(None, 0.0)``; NaN entries are skipped."""
    positive = np.flatnonzero(values > 0.0)
    if not positive.size:
        return None, 0.0
    k = int(positive[np.argmax(values[positive])])
    return k, float(values[k])


def eval_objective(problem: Problem, x: np.ndarray) -> float:
    """Objective value (minimization form) exactly as stored."""
    x, xe = _extended_point(problem, x)
    return problem.compiled().terms_value(xe) + float(problem.d @ x) + problem.c0


def eval_constraint(problem: Problem, idx: int, x: np.ndarray) -> float:
    """LHS value g(x) of constraint ``idx``; an LE row is feasible iff <= 0."""
    if not (0 <= idx < len(problem.constraints)):
        raise ModelError(f"constraint index {idx} out of range")
    _, xe = _extended_point(problem, x)
    return problem.compiled().row_value(idx, xe)


def check_feasibility(
    problem: Problem,
    x: np.ndarray,
    tol_cons: float = DEFAULT_TOL_CONS,
    tol_int: float = DEFAULT_TOL_INT,
) -> FeasibilityReport:
    """Feasibility of ``x`` against constraints, bounds and integrality.

    ``max_violation`` is the largest constraint violation or bound
    violation; ``feasible`` requires integrality within ``tol_int``,
    bounds within ``tol_cons`` and ``max_violation <= tol_cons``.
    ``worst_constraint`` is the first row of largest positive violation.
    """
    if tol_cons <= 0 or tol_int <= 0:
        raise ModelError("tolerances must be positive")
    x, xe = _extended_point(problem, x)
    compiled = problem.compiled()
    x_int = x[compiled.integer_indices]
    integral = bool(np.all(np.abs(x_int - np.round(x_int)) <= tol_int))
    finite_lb = np.isfinite(problem.lb)
    finite_ub = np.isfinite(problem.ub)
    _, bound_viol = _largest_positive(np.concatenate([
        problem.lb[finite_lb] - x[finite_lb], x[finite_ub] - problem.ub[finite_ub],
    ]))
    g = compiled.row_values(xe)
    worst, worst_viol = _largest_positive(np.where(compiled.eq_rows, np.abs(g), g))
    max_violation = max(worst_viol, bound_viol)
    in_bounds = bound_viol <= tol_cons
    feasible = integral and in_bounds and max_violation <= tol_cons
    return FeasibilityReport(
        max_violation=max_violation,
        worst_constraint=worst,
        integral=integral,
        in_bounds=in_bounds,
        feasible=feasible,
    )


# -- constraint normalization ----------------------------------------------


def is_complementarity_form(terms: list[tuple[int, int, float]], b: dict[int, float], c: float) -> bool:
    """Structural test for ``x_i * x_j = 0``: one bilinear term, nothing else."""
    return len(terms) == 1 and terms[0][0] != terms[0][1] and not b and c == 0.0


def normalize_constraint(
    terms: list[tuple[int, int, float]],
    b: dict[int, float],
    c: float,
    sense: Sense,
) -> list[QuadConstraint]:
    """Normalize a raw constraint to stored form.

    GE rows become negated LE rows.  EQ rows are split into an LE pair,
    except the complementarity form ``x_i * x_j = 0`` which is kept as a
    single EQ constraint for presolve to act on.
    """
    terms = merge_terms(terms)
    b = {k: v for k, v in b.items() if v != 0.0}
    row = QuadConstraint(terms, b, c)
    if sense is Sense.LE:
        return [row]
    if sense is Sense.GE:
        return [_negated(row)]
    if is_complementarity_form(terms, b, c):
        return [QuadConstraint(terms, b, c, sense=Sense.EQ)]
    return [row, _negated(row)]


def _negated(con: QuadConstraint) -> QuadConstraint:
    """The LE row ``-g(x) <= 0`` of a stored row ``g(x)``."""
    return QuadConstraint(
        [(i, j, -q) for (i, j, q) in con.terms],
        {k: -v for k, v in con.b.items()},
        -con.c,
        tag=con.tag,
    )


def split_equality(con: QuadConstraint) -> list[QuadConstraint]:
    """Split a stored EQ constraint into its LE pair (used when presolve
    cannot reformulate a complementarity)."""
    if con.sense is not Sense.EQ:
        return [con]
    row = QuadConstraint(list(con.terms), dict(con.b), con.c, tag=con.tag)
    return [row, _negated(row)]
