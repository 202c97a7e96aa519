"""Parallel portfolio: W workers with varied penalty exponents (or
convexification proportions for all-binary QPs), a shared monotone
incumbent store, and a merged incumbent trace.

Worker assignment is static round-robin over the applicable grid; each
worker gets seed ``base_seed + index``.  Workers poll the shared deadline
at node boundaries and LMO entry, bounding overrun to about a node.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from . import bnb
from .config import Config
from .ingest import build_report
from .model import Problem
from .penalty import SmoothObjective
from .presolve import convexify_binary, run_presolve


@dataclass
class WorkerOutcome:
    trace: bnb.SolveTrace
    config: Config
    error: BaseException | None = None


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
            cfg = config.for_worker(w, ell=config.ell_grid[w % len(config.ell_grid)])
            prob, _ = convexify_binary(base, cfg.ell)
            setups.append((cfg, prob))
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
    """Presolve, spawn workers, merge traces, build the run report.

    With ``return_details`` the per-worker traces (including incumbent
    points in original space) are returned alongside the report.
    """
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
    deadline = time.monotonic() + config.time_limit
    outcomes: list[WorkerOutcome | None] = [None] * len(setups)

    def run_worker(index: int, cfg: Config, prob: Problem) -> None:
        try:
            objective = SmoothObjective(prob, cfg.p)
            trace = bnb.solve(
                prob,
                cfg,
                objective=objective,
                original=problem,
                uncrush=presolved.uncrush,
                repair=presolved.repair_aux,
                store=store,
                deadline=deadline,
            )
            outcomes[index] = WorkerOutcome(trace, cfg)
        except BaseException as exc:  # surfaced after join
            outcomes[index] = WorkerOutcome(bnb.SolveTrace(), cfg, error=exc)

    threads = []
    for w, (cfg, prob) in enumerate(setups):
        thread = threading.Thread(target=run_worker, args=(w, cfg, prob), daemon=True)
        threads.append(thread)
        thread.start()
    for thread in threads:
        remaining = max(deadline - time.monotonic(), 0.0) + 10.0
        thread.join(timeout=remaining)
    for outcome in outcomes:
        if outcome is not None and outcome.error is not None:
            raise outcome.error

    traces = [o.trace for o in outcomes if o is not None]
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
