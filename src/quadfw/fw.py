"""Blended Pairwise Conditional Gradient (BPCG) over a linear
minimization oracle.

Each step compares the local pairwise gap across the active set against
the current global gap estimate: large local gaps take a pairwise step
(transporting weight from the away vertex to the local FW vertex),
otherwise a vertex is obtained lazily from the cache or a fresh MIP
call and a global FW step is taken.  The step size comes from a
bracketed regula falsi on the derivative of the objective restricted to
the search line, with a halving safeguard on the full objective, so the
objective never increases even on nonconvex relaxations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .lmo import Region, VertexCache, lazy_lookup, mip_lmo, vertex_key
from .penalty import SmoothObjective

WEIGHT_TOL = 1e-12


class RegionInfeasible(RuntimeError):
    """The LMO reports an empty feasible region; ``lmo_calls`` counts the
    oracle calls of the run that raised it, the failed one included."""

    def __init__(self, message: str, lmo_calls: int = 0):
        super().__init__(message)
        self.lmo_calls = lmo_calls


class ActiveSet:
    """Vertices and convex weights representing the current FW iterate."""

    def __init__(self, vertices: list[np.ndarray] | None = None,
                 weights: list[float] | None = None):
        self.vertices: list[np.ndarray] = [np.asarray(v, dtype=float).copy()
                                           for v in (vertices or [])]
        self.weights: list[float] = list(weights or [])
        if len(self.vertices) != len(self.weights):
            raise ValueError("vertex/weight length mismatch")
        self._keys = {vertex_key(v): i for i, v in enumerate(self.vertices)}
        if len(self._keys) != len(self.vertices):
            raise ValueError("duplicate vertices in active set")

    @classmethod
    def from_vertex(cls, v: np.ndarray) -> "ActiveSet":
        return cls([v], [1.0])

    def __len__(self) -> int:
        return len(self.vertices)

    def copy(self) -> "ActiveSet":
        return ActiveSet(self.vertices, self.weights)

    def iterate(self) -> np.ndarray:
        return sum(w * v for w, v in zip(self.weights, self.vertices))

    def find(self, v: np.ndarray) -> int | None:
        return self._keys.get(vertex_key(v))

    def _rebuild_index(self) -> None:
        self._keys = {vertex_key(v): i for i, v in enumerate(self.vertices)}

    def _drop_zero_weights(self) -> None:
        keep = [i for i, w in enumerate(self.weights) if w > WEIGHT_TOL]
        if len(keep) != len(self.weights):
            self.vertices = [self.vertices[i] for i in keep]
            self.weights = [self.weights[i] for i in keep]
            self._rebuild_index()

    def renormalize(self) -> None:
        total = sum(self.weights)
        if total <= 0:
            raise ValueError("active set weights sum to zero")
        self.weights = [w / total for w in self.weights]

    def fw_step(self, v: np.ndarray, gamma: float) -> None:
        """Blend toward vertex v with step gamma."""
        self.weights = [w * (1.0 - gamma) for w in self.weights]
        idx = self.find(v)
        if idx is None:
            self.vertices.append(np.asarray(v, dtype=float).copy())
            self.weights.append(gamma)
            self._keys[vertex_key(v)] = len(self.vertices) - 1
        else:
            self.weights[idx] += gamma
        self._drop_zero_weights()

    def pairwise_step(self, away_idx: int, local_idx: int, gamma: float) -> None:
        """Move weight gamma from the away vertex onto the local vertex."""
        self.weights[away_idx] -= gamma
        self.weights[local_idx] += gamma
        self._drop_zero_weights()

    def extremes(self, gradient: np.ndarray) -> tuple[int, int]:
        """Indices of the away vertex (max inner product with the gradient)
        and the local vertex (min)."""
        scores = [float(gradient @ v) for v in self.vertices]
        away = max(range(len(scores)), key=lambda i: scores[i])
        local = min(range(len(scores)), key=lambda i: scores[i])
        return away, local


@dataclass
class FwResult:
    x: np.ndarray
    active_set: ActiveSet
    dual_gap: float
    iterations: int
    vertices: list[np.ndarray]  # vertices discovered via the LMO
    objective_trace: list[float]
    lmo_calls: int = 0
    status: str = "ok"


def secant_step(phi_prime, gamma_max: float, max_iter: int = 40,
                tol: float = 1e-10, interval_tol: float = 1e-12) -> float:
    """Approximate root of the directional derivative on [0, gamma_max].

    Illinois regula falsi (Dowell & Jarratt, BIT 1971): the root stays
    bracketed by [lo, hi] with phi'(lo) < 0 < phi'(hi), and when the same
    endpoint is replaced twice in a row the other one's value is halved,
    so a flat side (a penalty kink) cannot stall the search.  A
    nonnegative derivative at 0 yields 0, a nonpositive derivative at
    gamma_max yields gamma_max.
    """
    if gamma_max <= 0:
        return 0.0
    lo, hi = 0.0, gamma_max
    f_lo = phi_prime(lo)
    if f_lo >= 0.0:
        return 0.0
    f_hi = phi_prime(hi)
    if f_hi <= 0.0:
        return gamma_max
    gamma, side = hi, 0
    for _ in range(max_iter):
        gamma = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        f = phi_prime(gamma)
        if abs(f) <= tol:
            break
        if f < 0.0:
            lo, f_lo = gamma, f
            if side < 0:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = gamma, f
            if side > 0:
                f_lo *= 0.5
            side = 1
        if hi - lo < interval_tol:
            break
    return gamma


def _safeguarded_gamma(objective: SmoothObjective, x: np.ndarray, d: np.ndarray,
                       gamma: float, f_x: float) -> float:
    """Halve gamma until the step does not increase the objective."""
    while gamma >= 1e-12:
        if objective.value(x + gamma * d) <= f_x:
            return gamma
        gamma *= 0.5
    return 0.0


def _line_search(objective: SmoothObjective, x: np.ndarray, d: np.ndarray,
                 gamma_max: float, f_x: float) -> float:
    gamma = secant_step(objective.line_derivative(x, d), gamma_max)
    if gamma <= 0.0:
        return 0.0
    return _safeguarded_gamma(objective, x, d, gamma, f_x)


def bpcg(
    objective: SmoothObjective,
    region: Region,
    warm: ActiveSet | None = None,
    max_iter: int = 10,
    eps: float = 1e-4,
    cache: VertexCache | None = None,
    deadline: float = math.inf,
    init_direction: np.ndarray | None = None,
) -> FwResult:
    """Run BPCG until the dual gap falls below eps, the iteration budget
    is exhausted, or the deadline passes.  Every vertex the MIP oracle
    returns enters ``cache`` when one is given.

    Raises :class:`RegionInfeasible` when the LMO returns no vertex: the
    region is empty, or the MIP search stopped before finding one.  The
    global gap estimate is <grad, x - v> from the most recent true LMO
    call.  Only a gap from an ``optimal`` LMO answer ends the run as
    ``converged``: a vertex from a stopped or failed MIP search may not
    be the minimizer, so its gap can be too small.
    """
    discovered: list[np.ndarray] = []
    lmo_calls = 0
    proven = False  # the most recent true LMO call was optimal

    def full_lmo(direction: np.ndarray) -> np.ndarray:
        nonlocal lmo_calls, proven
        lmo_calls += 1
        res = mip_lmo(direction, region, deadline=deadline)
        if res.point is None:
            raise RegionInfeasible(f"LMO returned no vertex ({res.status})", lmo_calls)
        proven = res.status == "optimal"
        discovered.append(res.point)
        if cache is not None:
            cache.insert(res.point)
        return res.point

    def fw_toward(v: np.ndarray) -> bool:
        """Line search toward v and take the FW step; True if x moved."""
        nonlocal x, f_x
        gamma = _line_search(objective, x, v - x, 1.0, f_x)
        if gamma <= 0.0:
            return False
        active.fw_step(v, gamma)
        x = (1.0 - gamma) * x + gamma * v
        f_x = objective.value(x)
        return True

    active = warm.copy() if warm is not None and len(warm) else None
    if active is None:
        if init_direction is None:
            mid = 0.5 * (region.lb + region.ub)
            init_direction = objective.gradient(mid)
        v0 = full_lmo(init_direction)
        active = ActiveSet.from_vertex(v0)
    active.renormalize()
    x = active.iterate()
    f_x = objective.value(x)
    trace = [f_x]

    grad = objective.gradient(x)
    v_fw = full_lmo(grad)
    phi = float(grad @ (x - v_fw))
    status = "ok"
    iterations = 0

    for _ in range(max_iter):
        if phi <= eps and proven:
            status = "converged"
            break
        if time.monotonic() > deadline:
            status = "deadline"
            break
        iterations += 1
        grad = objective.gradient(x)
        away_idx, local_idx = active.extremes(grad)
        a = active.vertices[away_idx]
        s = active.vertices[local_idx]
        local_gap = float(grad @ (a - s))

        if local_gap >= phi and away_idx != local_idx:
            d = s - a
            gamma_max = active.weights[away_idx]
            gamma = _line_search(objective, x, d, gamma_max, f_x)
            if gamma > 0.0:
                active.pairwise_step(away_idx, local_idx, gamma)
                x = x + gamma * d
                f_x = objective.value(x)
            else:
                # no local progress possible; force a fresh FW vertex next
                phi_stale = phi
                v = full_lmo(grad)
                phi = float(grad @ (x - v))
                if phi <= eps and proven:
                    trace.append(f_x)
                    status = "converged"
                    break
                if not fw_toward(v) and phi >= phi_stale:  # genuinely stuck
                    trace.append(f_x)
                    status = "stalled"
                    break
        else:
            v = None
            fresh = False
            if cache is not None:
                v = lazy_lookup(cache, grad, x, phi, region)
            if v is None:
                v = full_lmo(grad)
                fresh = True
                phi = float(grad @ (x - v))
                if phi <= eps and proven:
                    trace.append(f_x)
                    status = "converged"
                    break
            if not fw_toward(v) and not fresh:
                # cached vertex gave no progress; pay for a true call once
                v = full_lmo(grad)
                phi = float(grad @ (x - v))
                fw_toward(v)
        # keep the iterate exact; weights drift slightly over steps
        active.renormalize()
        x = active.iterate()
        trace.append(f_x)

    return FwResult(
        x=x,
        active_set=active,
        dual_gap=phi,
        iterations=iterations,
        vertices=discovered,
        objective_trace=trace,
        lmo_calls=lmo_calls,
        status=status,
    )
