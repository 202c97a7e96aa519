"""Portfolio: W workers with varied penalty exponents (or
convexification proportions for all-binary QPs), a shared monotone
incumbent store, and one incumbent trace.

Worker assignment is static round-robin over the applicable grid; each
worker gets seed ``base_seed + index``.  The workers run one after the
other on the calling thread, each to its node limit or to its fair
share of the time left: worker ``w`` may use ``1 / (W - w)`` of it, so
the last one stops at the run's time limit.  All share one clock that
starts when ``run_portfolio`` is called: presolve and convexification
count toward the time limit, the TTF and the primal integral.  Workers
poll their stop time at node boundaries, LMO entry and every simplex
pivot, which bounds the overrun to the rest of one node.  A later worker
adopts the store's incumbent at its first root, which then starts warm
from it, so each worker's events improve on every earlier worker's and
the run's trace is the workers' events in the order they ran.  A worker's
exception propagates and no later worker runs.  A best point on one of
presolve's artificial bounds adds ``+artificial_bound`` to the report's
termination.
"""

from __future__ import annotations

import time
from dataclasses import replace

from . import bnb
from .config import Config
from .ingest import build_report
from .model import Problem
from .penalty import SmoothObjective
from .presolve import convexify_binary, run_presolve


def _worker_setup(base: Problem, config: Config, w: int) -> tuple[Config, Problem, float]:
    """Resolve worker w's config, problem and penalty exponent: seed
    ``seed + w``, the ell grid's convexification for all-binary QPs, and
    the p grid round-robin (which acts only where quadratic rows are
    penalized)."""
    p = config.p_grid[w % len(config.p_grid)]
    if base.is_all_binary() and not base.has_quadratic_constraints():
        base, _ = convexify_binary(base, config.ell_grid[w % len(config.ell_grid)])
    return config.for_worker(w), base, p


def run_portfolio(problem: Problem, config: Config, return_details: bool = False):
    """Presolve, run the workers, build the run report from their traces.

    Every event time is measured from the moment of this call, and the
    time limit ends there plus ``config.time_limit``.  With
    ``return_details`` the per-worker traces (including incumbent points
    in original space) are returned alongside the report.
    """
    origin = time.monotonic()
    presolved = run_presolve(problem, deadline=origin + config.time_limit)
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

    store = bnb.IncumbentStore()
    traces = []
    objectives = []
    for w in range(config.workers):
        cfg, prob, p = _worker_setup(presolved.problem, config, w)
        objective = SmoothObjective(prob, p)
        objectives.append(objective)
        left = max(config.time_limit - (time.monotonic() - origin), 0.0)
        later = config.workers - 1 - w
        # a 1 / (W - w) share of the time left; the last worker gets exactly the limit
        limit = config.time_limit - left * later / (later + 1)
        traces.append(bnb.solve(
            prob,
            replace(cfg, time_limit=limit),
            objective=objective,
            original=problem,
            uncrush=presolved.uncrush,
            repair=presolved.repair_aux,
            store=store,
            t0=origin,
        ))
    events = [(t, sign * v) for trace in traces for (t, v) in trace.events]
    status = "feasible" if events else "no_solution"
    terminations = sorted({t.termination for t in traces if t.termination})
    _, best = store.read()
    if best is not None and presolved.on_artificial_bound(best):
        terminations.append("artificial_bound")
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
        workers=[_worker_stats(t, o) for t, o in zip(traces, objectives)],
    )
    return (report, traces) if return_details else report


def _worker_stats(trace: bnb.SolveTrace, objective: SmoothObjective) -> dict:
    """One worker's counters for the report: its search's node count,
    termination, MIP-oracle calls and whether it adopted the store's
    incumbent, and the calls its objective answered and the stacked row
    products it computed for them."""
    return {
        "nodes": trace.node_count,
        "termination": trace.termination,
        "lmo_calls": trace.lmo_calls,
        "adoptions": trace.adoptions,
        "value_calls": objective.n_value_evals,
        "gradient_calls": objective.n_gradient_evals,
        "row_products": objective.n_row_products,
    }
