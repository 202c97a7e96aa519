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
    constraints, stacked as ``(m, n, n)`` / ``(m, n)`` / ``(m,)`` arrays;
    read-only after construction, one instance per worker.  The objective
    stays out of the stack: ``base_value`` and the gradient's
    ``q_mat @ x + d`` evaluate it on their own.
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

    # -- oracles -----------------------------------------------------------

    def base_value(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.q_mat @ x + self.d @ x + self.c0)

    def _rows(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(A_i x)_i`` as an ``(m, n)`` array and ``g_i(x)`` as an
        ``(m,)`` array, from one stacked product over the penalized rows."""
        ax = self._a @ x
        return ax, 0.5 * (ax @ x) + self._b @ x + self._c

    def constraint_values(self, x: np.ndarray) -> np.ndarray:
        return self._rows(np.asarray(x, dtype=float))[1]

    # Both oracles skip the stacked product when no row is penalized: its
    # fixed numpy overhead made them 4 to 7 times slower on the binary QPs
    # of the benchmark, which have no penalized rows.

    def value(self, x: np.ndarray) -> float:
        self.n_value_evals += 1
        x = np.asarray(x, dtype=float)
        total = self.base_value(x)
        if self.penalized:
            g = self._rows(x)[1]
            total += float(np.sum(g[g > 0.0] ** self.p))
        return total

    def gradient(self, x: np.ndarray) -> np.ndarray:
        self.n_gradient_evals += 1
        x = np.asarray(x, dtype=float)
        grad = self.q_mat @ x + self.d
        if self.penalized:
            ax, g = self._rows(x)
            on = g > 0.0
            grad = grad + (self.p * g[on] ** (self.p - 1.0)) @ (ax[on] + self._b[on])
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
        s0 = float((self.q_mat @ x + self.d) @ d)
        t0 = float(d @ self.q_mat @ d)
        ax, g_x = self._rows(x)
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
