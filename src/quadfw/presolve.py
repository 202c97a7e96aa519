"""Presolve: activity-based bound propagation, structural reformulation of
complementarity and perspective constraints, and partial convexification
of all-binary quadratic objectives.

``run_presolve`` chains the transforms in a fixed order (propagate,
perspective, complementarity) and returns a :class:`PresolveResult`
holding the reformulated problem and one index map per rewrite: the
original index of each kept variable, the removed epigraph variables and
the complementarity triples.  ``uncrush`` reads the first two to map
points of the reformulated space back to the original variable space, so
candidate solutions can always be checked against the problem as parsed;
``repair_aux`` reads the triples.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .lmo import integral_bounds, round_integers
from .model import (
    INFINITY,
    Problem,
    QuadConstraint,
    Sense,
    VarKind,
    assemble_symmetric,
    is_complementarity_form,
    merge_terms,
    split_equality,
    terms_from_symmetric,
)

ARTIFICIAL_BOUND = 1.0e5
_FEAS_EPS = 1e-9
# passes of bound propagation over the linear rows
PROPAGATION_ROUNDS = 10


class PresolveError(ValueError):
    pass


@dataclass
class Spectrum:
    """Eigendecomposition of a symmetric matrix; Q = V diag(lam) V'."""

    eigenvalues: np.ndarray  # ascending
    rotation: np.ndarray  # eigenvectors as columns, for validation only


@dataclass
class PresolveResult:
    problem: Problem
    status: str  # "ok" | "infeasible"
    # original index of each reformulated variable but the appended binaries
    kept: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    # removed epigraph variables: original index of w, reformulated index of x
    epigraph_w: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    epigraph_x: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    # (i, j, z) of each complementarity x_i * x_j = 0 with its binary z
    complementarity: list[tuple[int, int, int]] = field(default_factory=list)
    # bounds set to -+ARTIFICIAL_BOUND in place of infinite ones
    artificial_lb: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    artificial_ub: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def on_artificial_bound(self, x: np.ndarray) -> bool:
        """Whether a reformulated-space point lies on an artificial bound."""
        near = 1e-9 * ARTIFICIAL_BOUND
        return bool(np.any(self.artificial_lb & (x <= self.problem.lb + near))
                    or np.any(self.artificial_ub & (x >= self.problem.ub - near)))

    def uncrush(self, x: np.ndarray) -> np.ndarray:
        """Map a point of the reformulated space to the original space."""
        x = np.asarray(x, dtype=float)
        out = np.empty(len(self.kept) + len(self.epigraph_w))
        out[self.kept] = x[:len(self.kept)]
        out[self.epigraph_w] = x[self.epigraph_x] ** 2
        return out

    def repair_aux(self, x: np.ndarray) -> np.ndarray:
        """Set complementarity binaries consistently with their pair so
        externally produced candidates satisfy the indicator rows; a
        binary whose pair is all zero is rounded."""
        out = np.array(x, dtype=float)
        undecided = []
        for i, j, z in self.complementarity:
            if out[j] > 1e-9:
                out[z] = 0.0
            elif out[i] > 1e-9:
                out[z] = 1.0
            else:
                undecided.append(z)
        if undecided:
            out = round_integers(out, undecided, self.problem.lb, self.problem.ub)
        return out


# ---------------------------------------------------------------------------
# bound propagation
# ---------------------------------------------------------------------------


def propagate_bounds(
    problem: Problem, deadline: float = math.inf
) -> tuple[np.ndarray, np.ndarray, str]:
    """Activity-based bound strengthening over the linear constraints.

    Returns tightened ``(lb, ub, status)`` with status ``"ok"`` or
    ``"infeasible"``.  Integer bounds are rounded inward.  Quadratic
    constraints are not propagated.  At most ``PROPAGATION_ROUNDS``
    passes run, and after the first none starts once ``deadline`` (a
    ``time.monotonic()`` reading) has passed; the bounds after each pass
    are valid.
    """
    int_mask = problem.integer_mask()
    lb, ub = integral_bounds(problem.lb, problem.ub, int_mask)
    rows = []  # (variable indices, coefficients, beta) of each row a'x <= beta
    for con in problem.constraints:
        if con.is_linear() and con.sense is Sense.LE:
            idx = np.fromiter(con.b.keys(), dtype=int, count=len(con.b))
            coef = np.fromiter(con.b.values(), dtype=float, count=len(con.b))
            rows.append((idx, coef, -con.c))

    for _ in range(PROPAGATION_ROUNDS):
        changed = False
        for idx, coef, beta in rows:
            # x_k's own contribution uses the bound its tightening leaves
            # alone, so the row's minimum activity is computed once per pass
            up = coef > 0
            bound = np.where(up, lb[idx], ub[idx])
            finite = np.isfinite(bound)
            n_inf = len(bound) - int(np.count_nonzero(finite))
            if n_inf > 1:
                continue
            contrib = coef * np.where(finite, bound, 0.0)
            # minimum activity of the other variables of the row
            rest = contrib.sum() - contrib
            usable = ~finite if n_inf else finite
            limit = (beta - rest) / coef
            tighten = usable & np.where(up, limit < ub[idx] - _FEAS_EPS,
                                        limit > lb[idx] + _FEAS_EPS)
            if tighten.any():
                k = idx[tighten]
                lb[k], ub[k] = integral_bounds(np.where(up, lb[idx], limit)[tighten],
                                               np.where(up, limit, ub[idx])[tighten],
                                               int_mask[k])
                changed = True
        if np.any(lb > ub + _FEAS_EPS):
            return lb, ub, "infeasible"
        if not changed or time.monotonic() > deadline:
            break
    return lb, ub, "ok"


# ---------------------------------------------------------------------------
# complementarity reformulation
# ---------------------------------------------------------------------------


def _complementarity_candidates(problem: Problem) -> list[int]:
    return [idx for idx, con in enumerate(problem.constraints)
            if con.sense is Sense.EQ and is_complementarity_form(con.terms, con.b, con.c)]


def reformulate_complementarity(
    problem: Problem,
) -> tuple[Problem, list[tuple[int, int, int]]]:
    """Replace ``x_i * x_j = 0`` rows by a fresh binary z and big-M rows
    ``x_i <= M_i z``, ``x_j <= M_j (1 - z)`` (z = 0 forces the smaller
    index to zero); returns the ``(i, j, z)`` of each rewritten row.

    Requires both variables nonnegative with finite upper bounds;
    non-matching rows are left for the penalty (split into an LE pair by
    the caller).
    """
    records: list[tuple[int, int, int]] = []
    new_cons: list[QuadConstraint] = []
    added_vars = 0
    n0 = problem.n
    lb = list(problem.lb)
    ub = list(problem.ub)
    kinds = list(problem.integrality)
    candidates = set(_complementarity_candidates(problem))

    for idx, con in enumerate(problem.constraints):
        if idx not in candidates:
            new_cons.append(con)
            continue
        i, j, _ = con.terms[0]
        if problem.lb[i] < 0 or problem.lb[j] < 0 or not (
            math.isfinite(problem.ub[i]) and math.isfinite(problem.ub[j])
        ):
            new_cons.append(con)  # left for the penalty (split later)
            continue
        z = n0 + added_vars
        added_vars += 1
        lb.append(0.0)
        ub.append(1.0)
        kinds.append(VarKind.BINARY)
        m_i, m_j = problem.ub[i], problem.ub[j]
        # z = 0 => x_i <= 0 ; z = 1 => x_j <= 0
        new_cons.append(QuadConstraint([], {i: 1.0, z: -m_i}, 0.0, tag="indicator"))
        new_cons.append(QuadConstraint([], {j: 1.0, z: m_j}, -m_j, tag="indicator"))
        records.append((i, j, z))

    if not records:
        return problem, []
    out = replace(
        problem,
        n=n0 + added_vars,
        d=np.concatenate([problem.d, np.zeros(added_vars)]),
        constraints=new_cons,
        lb=np.array(lb),
        ub=np.array(ub),
        integrality=kinds,
    )
    return out, records


# ---------------------------------------------------------------------------
# perspective reformulation
# ---------------------------------------------------------------------------


def _match_perspective(problem: Problem, idx: int) -> tuple[int, int, int, float] | None:
    """Match constraint ``idx`` against the pattern ``x^2 <= z * w``;
    returns ``(x, w, z, c)`` with ``c`` the objective coefficient of w."""
    con = problem.constraints[idx]
    if con.sense is not Sense.LE or con.b or con.c != 0.0 or len(con.terms) != 2:
        return None
    square = [t for t in con.terms if t[0] == t[1]]
    bilinear = [t for t in con.terms if t[0] != t[1]]
    if len(square) != 1 or len(bilinear) != 1:
        return None
    x, _, a = square[0]
    p, q, bcoef = bilinear[0]
    if a <= 0 or abs(bcoef + a) > 1e-12 * max(1.0, abs(a)):
        return None
    if problem.integrality[p] is VarKind.BINARY and problem.integrality[q] is not VarKind.BINARY:
        z, w = p, q
    elif problem.integrality[q] is VarKind.BINARY and problem.integrality[p] is not VarKind.BINARY:
        z, w = q, p
    else:
        return None
    if x in (z, w):
        return None
    if problem.integrality[w] is not VarKind.CONTINUOUS:
        return None
    # uncrush sets w = x^2, which is 0 at x = 0
    if problem.lb[x] < 0 or problem.lb[w] != 0.0 or not math.isfinite(problem.ub[x]):
        return None
    # w must appear only here and linearly in the objective with c > 0
    coef = problem.d[w]
    if coef <= 0:
        return None
    if any(w in (i, j) for (i, j, _) in problem.terms_obj):
        return None
    for other_idx, other in enumerate(problem.constraints):
        if other_idx == idx:
            continue
        if w in other.b or any(w in (i, j) for (i, j, _) in other.terms):
            return None
    return x, w, z, coef


def reformulate_perspective(problem: Problem) -> tuple[Problem, list[tuple[int, int]]]:
    """Rewrite ``min ... + c*w  s.t. x^2 <= z*w`` as ``min ... + c*x^2``
    with an activation row ``x <= ub(x) * z``; the epigraph variable w is
    removed from the problem.  Returns the original index of each
    removed w with the reformulated index of its x."""
    matches = {}  # row -> (x, w, z, c)
    removed: set[int] = set()
    for idx in range(len(problem.constraints)):
        m = _match_perspective(problem, idx)
        if m and m[1] not in removed:
            matches[idx] = m
            removed.add(m[1])
    if not matches:
        return problem, []

    keep = [k for k in range(problem.n) if k not in removed]
    old_to_new = {k: new for new, k in enumerate(keep)}

    new_terms = [(old_to_new[i], old_to_new[j], q) for (i, j, q) in problem.terms_obj]
    ub = problem.ub.copy()
    for (x, w, _, coef) in matches.values():
        new_terms.append((old_to_new[x], old_to_new[x], coef))
        # original x^2 <= z*w <= ub(w) implies a bound on x
        ub[x] = min(ub[x], math.sqrt(max(problem.ub[w], 0.0)))
    xs = [x for (x, _, _, _) in matches.values()]
    _, ub[xs] = integral_bounds(problem.lb[xs], ub[xs], problem.integer_mask()[xs])

    new_cons: list[QuadConstraint] = []
    for idx, con in enumerate(problem.constraints):
        if idx in matches:
            continue
        new_cons.append(
            QuadConstraint(
                [(old_to_new[i], old_to_new[j], q) for (i, j, q) in con.terms],
                {old_to_new[k]: v for k, v in con.b.items()},
                con.c,
                con.sense,
                con.tag,
            )
        )
    for (x, _, z, _) in matches.values():
        new_cons.append(
            QuadConstraint([], {old_to_new[x]: 1.0, old_to_new[z]: -ub[x]}, 0.0,
                           tag="perspective")
        )

    out = Problem(
        n=len(keep),
        terms_obj=merge_terms(new_terms),
        d=problem.d[keep],
        c0=problem.c0,
        constraints=new_cons,
        lb=problem.lb[keep],
        ub=ub[keep],
        integrality=[problem.integrality[k] for k in keep],
        sense_flag=problem.sense_flag,
        name=problem.name,
    )
    return out, [(w, old_to_new[x]) for (x, w, _, _) in matches.values()]


# ---------------------------------------------------------------------------
# symmetric eigendecomposition (LAPACK via numpy)
# ---------------------------------------------------------------------------


def eigen_symmetric(q_mat: np.ndarray) -> Spectrum:
    """Eigendecomposition of a symmetric matrix by ``numpy.linalg.eigh``.

    Eigenvalues are returned ascending with the eigenvector columns in
    the same order.
    """
    q_mat = np.asarray(q_mat, dtype=float)
    n = q_mat.shape[0]
    if q_mat.shape != (n, n):
        raise PresolveError("matrix must be square")
    if n and np.max(np.abs(q_mat - q_mat.T)) > 1e-9:
        raise PresolveError("matrix is not symmetric")
    lam, vecs = np.linalg.eigh(0.5 * (q_mat + q_mat.T))
    return Spectrum(eigenvalues=lam, rotation=vecs)


# ---------------------------------------------------------------------------
# partial convexification of binary quadratics
# ---------------------------------------------------------------------------


def convexify_binary(problem: Problem, ell: float) -> tuple[Problem, float]:
    """Shift the objective Hessian so a proportion ``ell`` of its
    eigenvalues is nonnegative, exact on binary points via ``x^2 = x``.

    With ascending eigenvalues lam_(1..n) and ``j = n - ceil(ell*n) + 1``,
    the shift is ``s = max(0, -lam_(j))``; the transformed objective uses
    ``Q + s*I`` and ``d - s/2`` and agrees with the original on {0,1}^n.
    """
    if not (0.0 <= ell <= 1.0):
        raise PresolveError("convexification proportion must lie in [0, 1]")
    if not problem.is_all_binary():
        raise PresolveError("convexification requires an all-binary problem")
    n = problem.n
    # nudge against float noise in ell*n (e.g. 0.1*30 = 3.0000000000000004)
    target = math.ceil(ell * n - 1e-9)
    if target == 0 or n == 0:
        return problem, 0.0
    q_mat = assemble_symmetric(n, problem.terms_obj)
    spectrum = eigen_symmetric(q_mat)
    lam_j = spectrum.eigenvalues[n - target]  # lam_(j), 1-based j = n - target + 1
    shift = max(0.0, -float(lam_j))
    if shift == 0.0:
        return problem, 0.0
    q_new = q_mat + shift * np.eye(n)
    out = replace(
        problem,
        terms_obj=terms_from_symmetric(q_new),
        d=problem.d - shift / 2.0,
    )
    return out, shift


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def run_presolve(problem: Problem, deadline: float = math.inf) -> PresolveResult:
    """Propagate bounds (stopped between passes at ``deadline``), apply
    structural reformulations, finalize bounds.

    Any EQ constraint not consumed by the complementarity transform is
    split into an LE pair so the penalty relaxation applies; remaining
    infinite bounds become artificial bounds of +-1e5 (flagged).  The
    result maps back to the original space: ``kept`` is every original
    index but the removed epigraph variables, ``epigraph_w`` and
    ``epigraph_x`` pair each of those with its x, and
    ``complementarity`` lists the ``(i, j, z)`` of each rewritten pair.
    """
    lb, ub, status = propagate_bounds(problem, deadline)
    if status == "infeasible":
        return PresolveResult(problem=problem, status="infeasible", kept=np.arange(problem.n))
    work = replace(problem.copy(), lb=lb, ub=ub)

    work, epigraphs = reformulate_perspective(work)
    epigraph_w, epigraph_x = np.array(epigraphs, dtype=int).reshape(-1, 2).T
    kept = np.delete(np.arange(problem.n), epigraph_w)

    work, complementarity = reformulate_complementarity(work)

    # leftover equalities (complementarities the transform skipped)
    new_cons: list[QuadConstraint] = []
    for con in work.constraints:
        if con.sense is Sense.EQ:
            new_cons.extend(split_equality(con))
        else:
            new_cons.append(con)
    work = replace(work, constraints=new_cons)

    artificial_lb, artificial_ub = ~np.isfinite(work.lb), ~np.isfinite(work.ub)
    work = replace(work, lb=np.where(artificial_lb, -ARTIFICIAL_BOUND, work.lb),
                   ub=np.where(artificial_ub, ARTIFICIAL_BOUND, work.ub))

    return PresolveResult(
        problem=work,
        status="ok",
        kept=kept,
        epigraph_w=epigraph_w,
        epigraph_x=epigraph_x,
        complementarity=complementarity,
        artificial_lb=artificial_lb,
        artificial_ub=artificial_ub,
    )
