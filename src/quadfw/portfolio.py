"""Parallel portfolio: W workers with varied penalty exponents (or
convexification proportions for all-binary QPs), a shared monotone
incumbent store, and a merged incumbent trace.

Worker assignment is static round-robin over the applicable grid; each
worker gets seed ``base_seed + index``.  Worker 0 runs on the calling
thread and the others on a thread pool, so a one-worker run starts no
thread.  All share one clock that starts when ``run_portfolio`` is
called: presolve and convexification count toward the time limit, the
TTF and the primal integral.  Workers poll the deadline at node
boundaries, LMO entry and every simplex pivot, which bounds the overrun
to the rest of one node; ``run_portfolio`` waits for every worker and
re-raises a worker's exception.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import bnb
from .config import Config
from .ingest import build_report
from .model import Problem
from .penalty import SmoothObjective
from .presolve import convexify_binary, run_presolve


def _worker_setups(base: Problem, config: Config) -> list[tuple[Config, Problem]]:
    """Resolve per-worker configs: p grid with quadratic constraints,
    ell grid for all-binary QPs, plain seed spread otherwise."""
    setups = []
    has_quad_cons = base.has_quadratic_constraints()
    binary_qp = base.is_all_binary() and not has_quad_cons
    for w in range(config.workers):
        if has_quad_cons:
            cfg = config.for_worker(w, p=config.p_grid[w % len(config.p_grid)])
            setups.append((cfg, base))
        elif binary_qp:
            prob, _ = convexify_binary(base, config.ell_grid[w % len(config.ell_grid)])
            setups.append((config.for_worker(w), prob))
        else:
            setups.append((config.for_worker(w), base))
    return setups


def merge_traces(traces: list[bnb.SolveTrace]) -> list[tuple[float, float]]:
    """Earliest time each objective level was reached, strictly improving
    (internal minimization sense)."""
    events = sorted(
        (ev for trace in traces for ev in trace.events),
        key=lambda ev: (ev[0], ev[1]),
    )
    merged = []
    best = np.inf
    for (t, v) in events:
        if v < best:
            merged.append((t, v))
            best = v
    return merged


def run_portfolio(problem: Problem, config: Config, return_details: bool = False):
    """Presolve, run the workers, merge traces, build the run report.

    Every event time is measured from the moment of this call, and the
    time limit ends there plus ``config.time_limit``.  With
    ``return_details`` the per-worker traces (including incumbent points
    in original space) are returned alongside the report.
    """
    origin = time.monotonic()
    presolved = run_presolve(problem)
    sign = -1.0 if problem.sense_flag == "MAX" else 1.0
    if presolved.status == "infeasible":
        report = build_report(
            instance=problem.name,
            status="no_solution",
            events=[],
            config=config.echo(),
            time_limit=config.time_limit,
            reference=config.reference,
            sense_flag=problem.sense_flag,
            termination="presolve_infeasible",
        )
        return (report, []) if return_details else report

    setups = _worker_setups(presolved.problem, config)
    store = bnb.IncumbentStore()

    def run_worker(cfg: Config, prob: Problem) -> bnb.SolveTrace:
        return bnb.solve(
            prob,
            cfg,
            objective=SmoothObjective(prob, cfg.p),
            original=problem,
            uncrush=presolved.uncrush,
            repair=presolved.repair_aux,
            store=store,
            t0=origin,
        )

    with ThreadPoolExecutor(max_workers=len(setups)) as executor:
        others = [executor.submit(run_worker, cfg, prob) for (cfg, prob) in setups[1:]]
        first = run_worker(*setups[0])  # the calling thread is worker 0
    traces = [first] + [future.result() for future in others]
    merged = merge_traces(traces)
    events = [(t, sign * v) for (t, v) in merged]
    status = "feasible" if merged else "no_solution"
    terminations = sorted({t.termination for t in traces if t.termination})
    report = build_report(
        instance=problem.name,
        status=status,
        events=events,
        config=config.echo(),
        time_limit=config.time_limit,
        reference=config.reference,
        sense_flag=problem.sense_flag,
        nodes=sum(t.node_count for t in traces),
        restarts=sum(t.restart_count for t in traces),
        termination="+".join(terminations),
    )
    return (report, traces) if return_details else report
