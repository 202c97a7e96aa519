"""Power-penalty relaxation of quadratic constraints.

Each remaining quadratic constraint ``g_i(x) <= 0`` is dropped from the
constraint set and ``max(g_i(x), 0)^p`` is added to the objective,
for an exponent ``p > 1``.  Linear constraints are not penalized; they
are handled by the linear minimization oracle.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .model import Problem, QuadConstraint, assemble_symmetric


def penalty_value(g: float, p: float) -> float:
    """max(g, 0)^p for a real exponent p > 1."""
    if p <= 1.0:
        raise ValueError("penalty exponent must exceed 1")
    return max(g, 0.0) ** p


class SmoothObjective:
    """Value/gradient oracle pair for the penalty-relaxed objective.

    Owns dense matrix forms of the objective and the penalized
    constraints, stacked as ``(m, n, n)`` / ``(m, n)`` / ``(m,)`` arrays;
    read-only after construction, one instance per worker.
    """

    def __init__(self, problem: Problem, p: float = 1.5):
        if p <= 1.0:
            raise ValueError("penalty exponent must exceed 1")
        self.problem = problem
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
        self._cons = list(zip(self._a, self._b, self._c))
        self.n_value_evals = 0
        self.n_gradient_evals = 0

    # -- oracles -----------------------------------------------------------

    def base_value(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.q_mat @ x + self.d @ x + self.c0)

    def constraint_values(self, x: np.ndarray) -> np.ndarray:
        return np.array([float(0.5 * x @ a @ x + b @ x + c) for (a, b, c) in self._cons])

    def value(self, x: np.ndarray) -> float:
        self.n_value_evals += 1
        x = np.asarray(x, dtype=float)
        total = self.base_value(x)
        for g in self.constraint_values(x).tolist():
            if g > 0.0:
                total += g**self.p
        return total

    def gradient(self, x: np.ndarray) -> np.ndarray:
        self.n_gradient_evals += 1
        x = np.asarray(x, dtype=float)
        grad = self.q_mat @ x + self.d
        for g, (a, b, _) in zip(self.constraint_values(x).tolist(), self._cons):
            if g > 0.0:
                grad = grad + (self.p * g ** (self.p - 1.0)) * (a @ x + b)
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
        ax = self._a @ x
        rows = list(zip((0.5 * (ax @ x) + self._b @ x + self._c).tolist(),
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
