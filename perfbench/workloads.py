"""Instance families and workload definitions of the quadfw benchmark.

Every instance is built from numpy arrays drawn from a seeded generator,
written out as canonical text by this module (not by the package's own
writer) and kept beside the text as a ``quadfw.model.Problem`` built
straight from the arrays.  The solver only ever sees the text; the
``Problem`` is the "original instance" the output check scores against.

Each workload solves a fixed pool of family instances, so that the
best-known references in ``references.json`` apply to every run and two
commits are scored against the same values.  The run seed chooses the
order of the pool and the solver seed (``Config.seed``) of every solve.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from quadfw.config import Config
from quadfw.model import Problem, QuadConstraint, Sense, VarKind

# Family seeds are fixed: changing them changes the pool and invalidates
# references.json (run.py refuses to run on a fingerprint mismatch).
BINQP_FAMILY_SEED = 20251
MIXED_FAMILY_SEED = 20252


@dataclass
class Instance:
    name: str
    text: str  # canonical text handed to parse_canonical
    problem: Problem  # built from the generator's arrays, never parsed

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()[:16]


@dataclass
class Workload:
    name: str
    family: str
    pool: int  # instances of the family solved in one pass
    # seconds on the benchmark clock for pi_norm: the time limit where it
    # binds, else a round figure above the slowest solve of the pool
    horizon: float
    workers: int
    time_limit: float
    node_limit: int | None
    why: str
    deterministic: bool = field(init=False)

    def __post_init__(self) -> None:
        # one worker under a node limit is the only reproducible setting
        self.deterministic = self.workers == 1 and self.node_limit is not None

    def config(self, seed: int) -> Config:
        return Config(
            time_limit=self.time_limit,
            workers=self.workers,
            node_limit=self.node_limit,
            seed=seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="binqp_lin",
            family="binqp",
            pool=24,
            horizon=10.0,
            workers=1,
            time_limit=60.0,
            node_limit=12,
            why="all-binary QPs with two linear rows, one worker: Jacobi "
                "convexification in setup, LMO (simplex, MIP tree, lazy cache) "
                "dominates search, no penalty terms",
        ),
        Workload(
            name="miqcqp_mixed",
            family="mixed",
            pool=8,
            horizon=20.0,
            workers=1,
            time_limit=60.0,
            node_limit=8,
            why="half-integer MIQCQPs with nonconvex rows and complementarity "
                "pairs, one worker: presolve rewrites, penalty gradients in the "
                "secant line search dominate",
        ),
        Workload(
            name="parallel_w2",
            family="binqp",
            pool=8,
            horizon=10.0,
            workers=2,
            time_limit=60.0,
            node_limit=12,
            why="the binqp_lin family on 2 worker threads, node-limited: "
                "shared incumbent store, convexification per worker, thread "
                "contention on the parallel throughput",
        ),
        # Runnable by name but not declared in BENCHMARK.json: at the parent
        # commit about one solve in eight raises "event times must lie in
        # [0, horizon]" (incumbents stamped after the deadline), which makes
        # gap, found_frac and pi_norm bimodal across runs.
        Workload(
            name="portfolio_w2",
            family="binqp",
            pool=8,
            horizon=4.0,
            workers=2,
            time_limit=2.0,
            node_limit=None,
            why="the binqp_lin family on 2 worker threads under a binding time "
                "limit: deadline paths, overrun and failures at tight limits",
        ),
    )
}


# ---------------------------------------------------------------------------
# canonical text
# ---------------------------------------------------------------------------


def _canonical(name: str, kinds: list[str], lb, ub, obj_terms, d,
               rows: list[tuple[str, list, dict, str, float]]) -> str:
    """Canonical text; each row is (id, quad terms, linear dict, sense, rhs)."""
    lines = [f"NAME {name}", "SENSE MIN", f"NVARS {len(kinds)}"]
    for k, kind in enumerate(kinds):
        lines.append(f"VAR {k} {kind} {float(lb[k])!r} {float(ub[k])!r}")
    lines += [f"OBJ QUAD {i} {j} {float(q)!r}" for (i, j, q) in obj_terms]
    lines += [f"OBJ LIN {k} {float(v)!r}" for k, v in enumerate(d) if v != 0.0]
    for (rid, terms, lin, sense, rhs) in rows:
        lines += [f"CON {rid} QUAD {i} {j} {float(q)!r}" for (i, j, q) in terms]
        lines += [f"CON {rid} LIN {k} {float(v)!r}" for k, v in sorted(lin.items())]
        lines.append(f"CON {rid} SENSE {sense} {float(rhs)!r}")
    return "\n".join(lines) + "\n"


def _row_constraint(terms, lin: dict, sense: str, rhs: float) -> QuadConstraint:
    """Normalized form of ``terms + lin (sense) rhs`` as the model stores it."""
    if sense == "LE":
        return QuadConstraint(list(terms), dict(lin), -rhs)
    if sense == "EQ":
        return QuadConstraint(list(terms), dict(lin), -rhs, Sense.EQ)
    raise ValueError(f"unsupported sense {sense}")


def _dense_terms(q: np.ndarray) -> list[tuple[int, int, float]]:
    n = q.shape[0]
    terms = [(i, i, float(q[i, i]) / 2.0) for i in range(n)]
    terms += [(i, j, float(q[i, j])) for i in range(n) for j in range(i + 1, n)]
    return terms


def _build(name, kinds, lb, ub, obj_terms, d, rows) -> Instance:
    kind_map = {"B": VarKind.BINARY, "I": VarKind.INTEGER, "C": VarKind.CONTINUOUS}
    problem = Problem(
        n=len(kinds),
        terms_obj=list(obj_terms),
        d=np.asarray(d, dtype=float),
        c0=0.0,
        constraints=[_row_constraint(t, lin, s, r) for (_, t, lin, s, r) in rows],
        lb=np.asarray(lb, dtype=float),
        ub=np.asarray(ub, dtype=float),
        integrality=[kind_map[k] for k in kinds],
        name=name,
    )
    return Instance(name, _canonical(name, kinds, lb, ub, obj_terms, d, rows), problem)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def binqp_instance(index: int) -> Instance:
    """All-binary QP, n in [40, 60]: dense indefinite Q, a cardinality row
    sum(x) <= n/4 and a knapsack row with integer weights 1..10 whose
    capacity binds on part of the instances."""
    rng = np.random.default_rng([BINQP_FAMILY_SEED, index])
    n = int(rng.integers(40, 61))
    q = rng.normal(size=(n, n))
    q = 0.5 * (q + q.T)
    d = rng.normal(size=n)
    k = int(round(0.25 * n))
    w = rng.integers(1, 11, size=n).astype(float)
    cap = float(np.floor(1.25 * k * w.mean()))
    rows = [
        ("card", [], {i: 1.0 for i in range(n)}, "LE", float(k)),
        ("knap", [], {i: float(w[i]) for i in range(n)}, "LE", cap),
    ]
    return _build(f"binqp-{index:03d}", ["B"] * n, np.zeros(n), np.ones(n),
                  _dense_terms(q), d, rows)


def mixed_instance(index: int) -> Instance:
    """MIQCQP, n in [30, 40]: first half integer in [0, 3], second half
    continuous in [0, 4]; four nonconvex quadratic rows with 2n random
    terms, one linear row, four complementarity pairs x_i * x_j = 0 on
    continuous variables.  A planted point satisfies every row with a
    slack of 0.1 to 0.5, so every instance is feasible."""
    rng = np.random.default_rng([MIXED_FAMILY_SEED, index])
    n = int(rng.integers(30, 41))
    ni = n // 2
    kinds = ["I"] * ni + ["C"] * (n - ni)
    lb = np.zeros(n)
    ub = np.concatenate([np.full(ni, 3.0), np.full(n - ni, 4.0)])
    anchor = np.concatenate([rng.integers(0, 4, size=ni).astype(float),
                             rng.uniform(0.0, 4.0, size=n - ni)])
    perm = rng.permutation(np.arange(ni, n))
    pairs = []
    for t in range(4):
        i, j = sorted((int(perm[2 * t]), int(perm[2 * t + 1])))
        pairs.append((i, j))
        anchor[j if rng.random() < 0.5 else i] = 0.0
    q = rng.normal(scale=0.5, size=(n, n))
    q = 0.5 * (q + q.T)
    d = rng.normal(size=n)

    rows = []
    for r in range(4):
        acc: dict[tuple[int, int], float] = {}
        for _ in range(2 * n):
            i, j = sorted(int(v) for v in rng.choice(n, size=2))
            acc[(i, j)] = acc.get((i, j), 0.0) + float(rng.normal())
        terms = [(i, j, c) for (i, j), c in acc.items()]
        lin = {int(k): float(rng.normal()) for k in rng.choice(n, size=n // 3, replace=False)}
        lhs = sum(c * anchor[i] * anchor[j] for (i, j, c) in terms)
        lhs += sum(v * anchor[k] for k, v in lin.items())
        rows.append((f"q{r}", terms, lin, "LE", lhs + float(rng.uniform(0.1, 0.5))))
    w = rng.uniform(0.5, 2.0, size=n)
    rows.append(("lin", [], {k: float(w[k]) for k in range(n)}, "LE",
                 float(w @ anchor) + float(rng.uniform(0.1, 0.5))))
    for t, (i, j) in enumerate(pairs):
        rows.append((f"comp{t}", [(i, j, 1.0)], {}, "EQ", 0.0))
    return _build(f"mixed-{index:03d}", kinds, lb, ub, _dense_terms(q), d, rows)


FAMILIES = {"binqp": binqp_instance, "mixed": mixed_instance}


def pool(workload: Workload) -> list[Instance]:
    return [FAMILIES[workload.family](i) for i in range(workload.pool)]
