"""Power-penalty relaxation of quadratic constraints.

Each remaining quadratic constraint ``g_i(x) <= 0`` is dropped from the
constraint set and ``max(g_i(x), 0)^p`` is added to the objective,
for an exponent ``p > 1``.  Linear constraints are not penalized; they
are handled by the linear minimization oracle.  Every oracle reads the
values g_i(x) from one stacked product over the penalized rows, so the
value, the gradient and the line derivative see the same rounding of g_i.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .model import Problem, QuadConstraint, assemble_symmetric


class SmoothObjective:
    """Value/gradient oracle pair for the penalty-relaxed objective.

    Owns dense matrix forms of the objective and the penalized
    constraints, stacked as ``(m, n, n)`` / ``(m, n)`` / ``(m,)`` arrays,
    read-only after construction.  The portfolio runs its workers one
    after the other on one thread, and one instance serves a worker and
    all its sub-solves; the memo below has no lock, so an instance must
    not be called from two threads at once.  The objective
    stays out of the stack: ``base_value`` and the gradient's
    ``q_mat @ x + d`` evaluate it on their own.

    It keeps one point in memory: the last one it was called at, keyed by
    the bytes of its coordinates, with what has been computed there (the
    row product, the value, ``q_mat @ x + d`` and the gradient).  A call
    at the same point gets those results back instead of recomputing
    them; the bytes are compared on every call, so a point changed in
    place is a new point.  Arrays are handed out read-only.
    ``n_value_evals`` and ``n_gradient_evals`` count calls;
    ``n_row_products`` counts the stacked row products computed.
    """

    def __init__(self, problem: Problem, p: float = 1.5):
        if p <= 1.0:
            raise ValueError("penalty exponent must exceed 1")
        self.p = p
        n = problem.n
        self.q_mat = assemble_symmetric(n, problem.terms_obj)
        self.d = problem.d.astype(float)
        self.c0 = problem.c0
        self.penalized: list[QuadConstraint] = [
            con for con in problem.constraints if con.terms
        ]
        m = len(self.penalized)
        self._a = np.zeros((m, n, n))
        self._b = np.zeros((m, n))
        self._c = np.zeros(m)
        for i, con in enumerate(self.penalized):
            self._a[i] = assemble_symmetric(n, con.terms)
            self._b[i] = con.b_dense(n)
            self._c[i] = con.c
        self.n_value_evals = 0
        self.n_gradient_evals = 0
        self.n_row_products = 0
        self._key: bytes | None = None
        self._memo: dict[str, object] = {}

    # -- oracles -----------------------------------------------------------

    def base_value(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.q_mat @ x + self.d @ x + self.c0)

    def _at(self, x: np.ndarray) -> dict[str, object]:
        """What has been computed at ``x``; emptied when ``x`` is a new point."""
        key = x.tobytes()
        if key != self._key:
            self._key = key
            self._memo = {}
        return self._memo

    def _rows(self, x: np.ndarray, memo: dict[str, object]) -> tuple[np.ndarray, np.ndarray]:
        """``(A_i x)_i`` as an ``(m, n)`` array and ``g_i(x)`` as an
        ``(m,)`` array, from one stacked product over the penalized rows."""
        rows = memo.get("rows")
        if rows is None:
            self.n_row_products += 1
            ax = self._a @ x
            g = 0.5 * (ax @ x) + self._b @ x + self._c
            g.flags.writeable = False  # constraint_values hands it out
            rows = memo["rows"] = (ax, g)
        return rows

    def _slope(self, x: np.ndarray, memo: dict[str, object]) -> np.ndarray:
        """The objective's gradient ``q_mat @ x + d``."""
        slope = memo.get("slope")
        if slope is None:
            slope = memo["slope"] = self.q_mat @ x + self.d
            slope.flags.writeable = False
        return slope

    def constraint_values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self._rows(x, self._at(x))[1]

    # Both oracles skip the stacked product when no row is penalized: its
    # fixed numpy overhead made them 4 to 7 times slower on the binary QPs
    # of the benchmark, which have no penalized rows.

    def value(self, x: np.ndarray) -> float:
        self.n_value_evals += 1
        x = np.asarray(x, dtype=float)
        memo = self._at(x)
        total = memo.get("value")
        if total is None:
            total = self.base_value(x)
            if self.penalized:
                g = self._rows(x, memo)[1]
                total += float(np.sum(g[g > 0.0] ** self.p))
            memo["value"] = total
        return total

    def gradient(self, x: np.ndarray) -> np.ndarray:
        self.n_gradient_evals += 1
        x = np.asarray(x, dtype=float)
        memo = self._at(x)
        grad = memo.get("gradient")
        if grad is None:
            grad = self._slope(x, memo)
            if self.penalized:
                ax, g = self._rows(x, memo)
                on = g > 0.0
                grad = grad + (self.p * g[on] ** (self.p - 1.0)) @ (ax[on] + self._b[on])
                grad.flags.writeable = False
            memo["gradient"] = grad
        return grad

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return self.value(x), self.gradient(x)

    def line_derivative(self, x: np.ndarray, d: np.ndarray) -> Callable[[float], float]:
        """phi'(gamma) = d/dgamma value(x + gamma d), as a callable.

        Along the line the objective and every g_i are quadratic in gamma,
        so their coefficients are computed once here and each call costs
        O(m) scalar work: g_i(gamma) = g_i + gamma s_i + gamma^2 t_i / 2.
        """
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        memo = self._at(x)
        s0 = float(self._slope(x, memo) @ d)
        t0 = float(d @ self.q_mat @ d)
        rows = []
        if self.penalized:
            ax, g_x = self._rows(x, memo)
            rows = list(zip(g_x.tolist(),
                            ((ax + self._b) @ d).tolist(),
                            ((self._a @ d) @ d).tolist()))
        p = self.p

        def phi_prime(gamma: float) -> float:
            total = s0 + gamma * t0
            for g, s, t in rows:
                g += gamma * (s + 0.5 * gamma * t)
                if g > 0.0:
                    total += p * g ** (p - 1.0) * (s + gamma * t)
            return total

        return phi_prime
