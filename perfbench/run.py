#!/usr/bin/env python3
"""Seeded single-process benchmark of quadfw.

    python3 perfbench/run.py --workload binqp_lin --seed 1 --seconds 30 --trace 0

Drives quadfw the way ``quadfw solve`` does: each instance is handed over
as canonical text, parsed with ``ingest.parse_canonical`` and solved with
``portfolio.run_portfolio``, one instance at a time (a closed loop with one
client).  The loop runs for ``--seconds`` and at least until every
instance of the workload's pool has been solved once.

``--trace 0`` reports the end-to-end metrics, taken on the benchmark's
clock, with only the two seams of ``probe.py`` installed.  ``--trace 1``
solves every instance twice, untraced and then traced with spans around
each layer's public functions, and reports the per-layer metrics; on the
one-worker workloads the two solves must agree exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every line before
it is a human-readable report.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# one BLAS thread, so that the two-worker workload runs two threads on two cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import pathlib
import platform
import resource
import statistics
import sys
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# a run may not outlast this, however slow the program gets
MAX_RUN_SECONDS = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def _import_package():
    """Import quadfw from this checkout's ``src`` and nowhere else."""
    if not (SRC / "quadfw" / "__init__.py").is_file():
        raise BenchError(f"no quadfw package under {SRC}")
    sys.path.insert(0, str(SRC))
    import quadfw

    if pathlib.Path(quadfw.__file__).resolve().parent != (SRC / "quadfw").resolve():
        raise BenchError(f"quadfw imported from {quadfw.__file__}, not from {SRC}")


@dataclass
class Solve:
    instance: int
    wall: float
    setup: float
    nodes: int
    best: float | None
    arrivals: list[tuple[float, float]]  # (seconds on the benchmark clock, value)
    error: str | None = None
    check: str | None = None  # output-check failure, None when it passed
    gap: float = 1.0
    pi_norm: float = 1.0
    ttf: float = 0.0
    ref_beaten: bool = False
    workers: int = 1

    @property
    def failed(self) -> bool:
        return self.error is not None or self.check is not None

    @property
    def search(self) -> float:
        return max(self.wall - self.setup, 1e-9)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def primal_gap(value: float | None, ref: float) -> float:
    """Berthold's primal gap in [0, 1]; no solution scores 1."""
    if value is None:
        return 1.0
    if value == 0.0 and ref == 0.0:
        return 0.0
    if value * ref < 0.0:
        return 1.0
    return abs(value - ref) / max(abs(value), abs(ref))


def beats(value: float, ref: float) -> bool:
    return value < ref - 1e-9 * max(1.0, abs(ref))


def score(solve: Solve, ref: float, horizon: float) -> None:
    """Final gap, normalized primal integral over [0, H] and time to first."""
    best = None if solve.failed else solve.best
    solve.ref_beaten = best is not None and beats(best, ref)
    solve.gap = 0.0 if solve.ref_beaten else primal_gap(best, ref)
    if solve.failed or not solve.arrivals:
        solve.pi_norm = 1.0
        solve.ttf = horizon
        return
    solve.ttf = solve.arrivals[0][0]
    total, prev_t, prev_gap, level = 0.0, 0.0, 1.0, math.inf
    for (t, value) in sorted(solve.arrivals):
        if value >= level:  # another worker's weaker incumbent
            continue
        level = value
        t = min(t, horizon)
        total += prev_gap * (t - prev_t)
        prev_t = t
        prev_gap = 0.0 if beats(value, ref) else primal_gap(value, ref)
    total += prev_gap * (horizon - prev_t)
    solve.pi_norm = total / horizon


def output_check(solve: Solve, instance, report, traces) -> str | None:
    """Re-verify the final incumbent against the generated instance."""
    from quadfw.model import check_feasibility, eval_objective

    seam_best = min((v for (_, v) in solve.arrivals), default=None)
    if report.status != "feasible":
        if seam_best is not None:
            return f"status {report.status} but an incumbent arrived ({seam_best})"
        return None
    if seam_best is None:
        return "feasible report without any incumbent arrival"
    owners = [t for t in traces if t.incumbent_value is not None]
    if not owners:
        return "feasible report without an incumbent point"
    point = min(owners, key=lambda t: t.incumbent_value).incumbent_point
    feas = check_feasibility(instance.problem, point)
    if not feas.feasible:
        return f"incumbent infeasible (max violation {feas.max_violation:.3g})"
    value = eval_objective(instance.problem, point)
    tol = 1e-7 * max(1.0, abs(value))
    if abs(value - report.best_objective) > tol:
        return f"objective {value!r} != reported {report.best_objective!r}"
    if abs(seam_best - report.best_objective) > tol:
        return f"arrived best {seam_best!r} != reported {report.best_objective!r}"
    return None


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def integer_lattice(problem) -> int | None:
    """Number of lattice points of an all-integer problem, else None."""
    from quadfw.model import VarKind

    size = 1
    for k in range(problem.n):
        if problem.integrality[k] is VarKind.CONTINUOUS:
            return None
        size *= int(math.floor(problem.ub[k]) - math.ceil(problem.lb[k]) + 1)
    return size


def references(instances) -> dict[str, float]:
    """Brute force where the lattice has at most 2^20 points, otherwise the
    best-known value stored in references.json (checked against the
    instance fingerprint and re-verified through its stored point)."""
    import numpy as np
    from quadfw.model import check_feasibility, eval_objective
    from quadfw.oracle import MAX_ENUMERATION, brute_force

    stored = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    refs = {}
    for inst in instances:
        lattice = integer_lattice(inst.problem)
        if lattice is not None and lattice <= MAX_ENUMERATION:
            result = brute_force(inst.problem)
            if result.value is None:
                raise BenchError(f"{inst.name}: brute force finds no feasible point")
            refs[inst.name] = result.value
            continue
        entry = stored.get(inst.name)
        if entry is None or entry["fingerprint"] != inst.fingerprint:
            raise BenchError(f"{inst.name}: no stored reference for this instance text")
        point = np.asarray(entry["point"], dtype=float)
        if not check_feasibility(inst.problem, point).feasible:
            raise BenchError(f"{inst.name}: stored reference point is infeasible")
        if abs(eval_objective(inst.problem, point) - entry["value"]) > 1e-7 * max(1.0, abs(entry["value"])):
            raise BenchError(f"{inst.name}: stored reference value does not match its point")
        refs[inst.name] = float(entry["value"])
    return refs


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def solve_once(probe, workload, instance, index: int, traced: bool) -> Solve:
    """Parse and solve one instance on the benchmark clock; the pool index
    is the solver seed (see ``schedule``)."""
    from quadfw import ingest, portfolio
    from probe import clock

    config = workload.config(index)
    gc.collect()  # garbage of the previous solve is not charged to this one
    probe.reset_solve()
    if traced:
        probe.start_tracing()
    report = traces = None
    error = None
    t_call = clock()
    try:
        problem = ingest.parse_canonical(instance.text)
        report, traces = portfolio.run_portfolio(problem, config, return_details=True)
    except Exception as exc:  # counted as a failed solve, the workload goes on
        error = f"{type(exc).__name__}: {exc}"
    t_end = clock()
    probe.stop_tracing()
    start = probe.search_start if probe.search_start is not None else t_end
    solve = Solve(
        instance=index,
        wall=t_end - t_call,
        setup=start - t_call,
        nodes=report.nodes if report is not None else probe.top_nodes,
        best=report.best_objective if report is not None else None,
        arrivals=[(t - t_call, v) for (t, v) in probe.arrivals],
        error=error,
        workers=workload.workers,
    )
    if report is not None:
        solve.check = output_check(solve, instance, report, traces)
    return solve


def schedule(seed: int, size: int):
    """Endless stream of pool indices: one seeded permutation per pass.

    The solver seed of an instance is its pool index, so a one-worker
    solve of an instance does the same work in every pass of every run
    and only timings vary with the run seed.  With solver seeds drawn
    from the run seed, ttf_s and gap on miqcqp_mixed spread by about 20%
    and peak_rss_mb on binqp_lin by 14% between runs."""
    import numpy as np

    rng = np.random.default_rng(seed)
    while True:
        yield from (int(idx) for idx in rng.permutation(size))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def by_instance(solves: list[Solve]) -> dict[int, list[Solve]]:
    groups: dict[int, list[Solve]] = {}
    for s in solves:
        groups.setdefault(s.instance, []).append(s)
    return groups


def end_to_end(solves: list[Solve], workload, rss_kb: int) -> dict[str, tuple[float, str]]:
    """Every instance weighs the same, however often the run solved it:
    values are reduced per instance first, then across instances."""
    groups = by_instance(solves).values()

    def mean_of_means(attr) -> float:
        return statistics.fmean(statistics.fmean(attr(s) for s in g) for g in groups)

    def median_of_medians(attr) -> float:
        return statistics.median(statistics.median(attr(s) for s in g) for g in groups)

    nodes = sum(statistics.fmean(s.nodes for s in g) for g in groups)
    search = sum(statistics.fmean(s.search for s in g) for g in groups)
    return {
        "setup_s": (median_of_medians(lambda s: s.setup), "s"),
        "nodes_per_s": (nodes / search, "1/s"),
        "gap": (mean_of_means(lambda s: s.gap), "fraction"),
        "found_frac": (mean_of_means(lambda s: float(s.best is not None and not s.failed)), "fraction"),
        "pi_norm": (mean_of_means(lambda s: s.pi_norm), "fraction"),
        "ttf_s": (median_of_medians(lambda s: s.ttf), "s"),
        "error_frac": (sum(s.failed for s in solves) / len(solves), "fraction"),
        "overrun_s": (median_of_medians(lambda s: max(0.0, s.wall - workload.time_limit)), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def print_instances(solves: list[Solve], instances, refs) -> None:
    """Exact counts beside the timings: identical work varies in wall time."""
    print(f"  {'instance':<11} {'solves':>6} {'nodes':>6} {'search_s':>9} {'setup_s':>8} "
          f"{'ttf_s':>7} {'best':>12} {'reference':>12} {'gap':>8}")
    for idx, group in sorted(by_instance(solves).items()):
        inst = instances[idx]
        bests = {s.best for s in group}
        best = "varies" if len(bests) > 1 else ("-" if None in bests else f"{group[0].best:.6g}")
        print(f"  {inst.name:<11} {len(group):>6} {sum(s.nodes for s in group):>6} "
              f"{sum(s.search for s in group):>9.3f} {statistics.median(s.setup for s in group):>8.4f} "
              f"{statistics.median(s.ttf for s in group):>7.4f} {best:>12} {refs[inst.name]:>12.6g} "
              f"{statistics.fmean(s.gap for s in group):>8.5f}")


def _pct(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def per_layer(probe, traced: list[Solve], untraced: list[Solve], mismatches: int) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics from the spans of the traced solves.

    Returns name -> (value, unit, note); the note says why a metric is
    absent (reported as 0) on this workload.
    """
    from probe import LNS_SHORT

    spans: dict[str, list[list]] = {}
    leaves: dict[tuple[str, str], list] = {}
    for buf in probe.buffers:
        for span in buf.spans:
            spans.setdefault(span[0], []).append((buf, span))
        for key, (calls, secs) in buf.leaves.items():
            acc = leaves.setdefault(key, [0, 0.0])
            acc[0] += calls
            acc[1] += secs

    def durations(name: str) -> list[float]:
        return [s[2] - s[1] for (_, s) in spans.get(name, [])]

    def summaries(name: str) -> list:
        return [s[4] for (_, s) in spans.get(name, [])]

    def mean(values) -> float:
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    def leaf_calls(names, enclosing=None) -> tuple[int, float]:
        calls, secs = 0, 0.0
        for (leaf, enc), (c, t) in leaves.items():
            if leaf in names and (enclosing is None or enc == enclosing):
                calls += c
                secs += t
        return calls, secs

    n_solves = len(traced)
    busy_base = sum(s.workers * s.search for s in traced)
    out: dict[str, tuple[float, str, str]] = {}

    def put(name, value, unit, note=""):
        out[name] = (float(value), unit, note)

    put("ingest.parse_ms", 1e3 * sum(durations("ingest.parse_canonical")) / n_solves, "ms")
    put("presolve.run_ms", 1e3 * sum(durations("presolve.run_presolve")) / n_solves, "ms")
    conv = durations("presolve.convexify_binary")
    note = "" if conv else "no all-binary QP, convexification never runs"
    put("presolve.convexify_ms", 1e3 * sum(conv) / n_solves, "ms", note)
    put("presolve.convexify_calls", len(conv), "count", note)

    value_calls, _ = leaf_calls({"penalty.value", "penalty.value_and_gradient"})
    grad_calls, _ = leaf_calls({"penalty.gradient", "penalty.value_and_gradient"})
    pen_calls, pen_secs = leaf_calls({"penalty.value", "penalty.gradient", "penalty.value_and_gradient"})
    put("penalty.build_ms", 1e3 * sum(durations("penalty.build")) / n_solves, "ms")
    put("penalty.value_calls", value_calls, "count")
    put("penalty.grad_calls", grad_calls, "count")
    put("penalty.eval_us", 1e6 * pen_secs / pen_calls if pen_calls else 0.0, "us")
    put("penalty.busy_frac", pen_secs / busy_base, "fraction")

    bpcg = spans.get("fw.bpcg", [])
    ok = [s[4] for (_, s) in bpcg if s[4] and s[4][0] != "raised"]
    put("fw.bpcg_calls", len(bpcg), "count")
    put("fw.bpcg_self_ms", 1e3 * mean(s[2] - s[1] - s[5] for (_, s) in bpcg), "ms")
    put("fw.iters_per_call", mean(r[0] for r in ok), "count")
    put("fw.lmo_calls_per_call", mean(r[1] for r in ok), "count")
    secant = durations("fw.secant_step")
    grads_in_secant, _ = leaf_calls({"penalty.gradient"}, "fw.secant_step")
    put("fw.linesearch_calls", len(secant), "count")
    put("fw.linesearch_us", 1e6 * mean(secant), "us")
    put("fw.grads_per_linesearch", grads_in_secant / len(secant) if secant else 0.0, "count")

    mip = durations("lmo.mip_lmo")
    mip_sum = summaries("lmo.mip_lmo")
    lp = durations("lmo.solve_lp")
    lps_in_mip = sum(1 for (buf, s) in spans.get("lmo.solve_lp", [])
                     if s[3] >= 0 and buf.spans[s[3]][0] == "lmo.mip_lmo")
    lazy = durations("lmo.lazy_lookup")
    lazy_hits = sum(1 for r in summaries("lmo.lazy_lookup") if r is True)
    put("lmo.mip_calls", len(mip), "count")
    put("lmo.mip_ms_p50", 1e3 * _pct(mip, 50), "ms")
    put("lmo.mip_ms_p90", 1e3 * _pct(mip, 90), "ms")
    put("lmo.lp_calls", len(lp), "count")
    put("lmo.lp_ms_p50", 1e3 * _pct(lp, 50), "ms")
    put("lmo.lp_ms_p90", 1e3 * _pct(lp, 90), "ms")
    put("lmo.lps_per_mip", lps_in_mip / len(mip) if mip else 0.0, "count")
    put("lmo.lazy_calls", len(lazy), "count")
    put("lmo.lazy_hit_rate", lazy_hits / len(lazy) if lazy else 0.0, "fraction")
    put("lmo.lazy_ms", 1e3 * mean(lazy), "ms")
    put("lmo.busy_frac", (sum(mip) + sum(lazy)) / busy_base, "fraction")
    put("lmo.mip_timeouts", sum(1 for r in mip_sum if r and r[0] == "timeout"), "count")
    put("lmo.mip_untrusted", sum(1 for r in mip_sum if r and r[0] != "raised" and not r[1]), "count")
    put("lmo.lp_errors", sum(1 for r in summaries("lmo.solve_lp") if r == "error"), "count")

    solves = spans.get("bnb.solve", [])
    top = [s for (_, s) in solves if s[4] and s[4][0] is True]
    sub = [s for (_, s) in solves if s[4] and s[4][0] is False]
    top_nodes = sum(s[4][1] for s in top)
    put("bnb.nodes", top_nodes, "count")
    put("bnb.sub_nodes", sum(s[4][1] for s in sub), "count")
    put("bnb.restarts", sum(s[4][2] for s in top), "count")
    for kind in ("exhausted", "node_limit", "time_limit", "root_infeasible"):
        put(f"bnb.terminations.{kind}", sum(1 for s in top if s[4][3] == kind), "count")
    top_self = sum(s[2] - s[1] - s[5] for s in top)
    put("bnb.self_ms_per_node", 1e3 * top_self / top_nodes if top_nodes else 0.0, "ms")
    submits = durations("bnb.SolutionPool.submit")
    accepted = sum(1 for r in summaries("bnb.SolutionPool.submit") if r and r[1] is True)
    put("bnb.pool_submits", len(submits), "count")
    put("bnb.pool_submit_us", 1e6 * mean(submits), "us")
    put("bnb.pool_accept_rate", accepted / len(submits) if submits else 0.0, "fraction")

    for attr, short in LNS_SHORT.items():
        d = durations(f"lns.{attr}")
        note = "" if d else "never triggered on this workload"
        put(f"lns.{short}.calls", len(d), "count", note)
        put(f"lns.{short}.ms", 1e3 * mean(d), "ms", note)
        put(f"lns.{short}.wins", probe.lns_wins.get(short, 0), "count", note)

    worker_secs = sum(s[2] - s[1] for s in top)
    put("portfolio.worker_busy_frac", worker_secs / busy_base, "fraction")
    put("portfolio.worker_nodes_per_s", top_nodes / worker_secs if worker_secs else 0.0, "1/s")

    nps_traced = sum(s.nodes for s in traced) / sum(s.search for s in traced)
    nps_plain = sum(s.nodes for s in untraced) / sum(s.search for s in untraced)
    # both lists hold the same solves, so the sums compare like with like
    put("trace.overhead_frac", 1.0 - nps_traced / nps_plain, "fraction")
    put("trace.solves", n_solves, "count")
    put("trace.repro_mismatches", mismatches, "count")

    # layer split the workloads were chosen for: inclusive shares of search time
    pen_in_secant = leaf_calls({"penalty.value", "penalty.gradient", "penalty.value_and_gradient"},
                               "fw.secant_step")[1]
    out["_split"] = {
        "lmo (mip_lmo + lazy_lookup)": (sum(mip) + sum(lazy)) / busy_base,
        "penalty + line search": (pen_secs - pen_in_secant + sum(secant)) / busy_base,
        "pool submits": sum(submits) / busy_base,
    }
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def run(args) -> int:
    _import_package()
    sys.path.insert(0, str(HERE))
    import numpy as np

    import probe as probe_mod
    from workloads import WORKLOADS, pool

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    instances = pool(workload)
    refs = references(instances)

    print(f"# quadfw benchmark  workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# python={platform.python_version()} numpy={np.__version__} "
          f"nproc={os.cpu_count()} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")
    print(f"# pool={len(instances)} workers={workload.workers} node_limit={workload.node_limit} "
          f"time_limit={workload.time_limit} horizon={workload.horizon}")

    probe = probe_mod.Probe()
    try:
        stream = schedule(args.seed, len(instances))
        first = next(stream)

        def solve(idx: int, traced: bool) -> Solve:
            inst = instances[idx]
            result = solve_once(probe, workload, inst, idx, traced)
            score(result, refs[inst.name], workload.horizon)
            return result

        # warm-up: imports and first calls settle; it repeats the first
        # measured solve, which makes it the determinism check as well
        warm = solve(first, False)

        measured: list[Solve] = []
        traced: list[Solve] = []
        mismatches = 0
        rss_kb = None
        clock = probe_mod.clock
        t0 = clock()
        item = first
        while True:
            plain = solve(item, False)
            measured.append(plain)
            if args.trace:
                again = solve(item, True)
                traced.append(again)
                if workload.deterministic and (again.nodes, again.best) != (plain.nodes, plain.best):
                    mismatches += 1
                    print(f"! traced solve differs: {instances[item].name} nodes {plain.nodes}/{again.nodes} "
                          f"best {plain.best}/{again.best}")
            elapsed = clock() - t0
            covered = len({s.instance for s in measured}) == len(instances)
            if covered and rss_kb is None:
                # peak after one solve of every instance: a fixed amount of
                # work; later repeats only add allocator fragmentation, which
                # made the peak track the number of solves a run fits in
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if elapsed >= MAX_RUN_SECONDS:
                if not covered:
                    print(f"! stopped after {elapsed:.0f} s with part of the pool unsolved")
                break
            if covered and elapsed >= args.seconds:
                break
            item = next(stream)
        measured_seconds = clock() - t0
    finally:
        probe.close()

    for s in measured + traced:
        if s.error:
            print(f"! solve error: {instances[s.instance].name}: {s.error}")
        if s.check:
            print(f"! output check failed: {instances[s.instance].name}: {s.check}")
    if workload.deterministic:
        same = (warm.nodes, warm.best) == (measured[0].nodes, measured[0].best)
        print(f"# determinism (same instance and seed solved twice): "
              f"{'identical' if same else 'MISMATCH'} nodes {warm.nodes}/{measured[0].nodes} "
              f"best {warm.best}/{measured[0].best}")
    wrong = [s for s in measured + traced if s.check]
    print(f"# output check: {len(measured) + len(traced) - len(wrong)} of "
          f"{len(measured) + len(traced)} solves verified, {len(wrong)} wrong")
    print(f"# measured {len(measured)} solves in {measured_seconds:.1f} s; "
          f"ref_beaten={sum(s.ref_beaten for s in measured)}")

    print_instances(measured, instances, refs)
    if rss_kb is None:  # stopped before the pool was covered
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    e2e = end_to_end(measured, workload, rss_kb)
    for name, (value, unit) in e2e.items():
        print(f"  {name:<14} {value:>12.6g} {unit}")

    metrics = {}
    if args.trace:
        layers = per_layer(probe, traced, measured, mismatches)
        split = layers.pop("_split")
        for name, (value, unit, note) in layers.items():
            print(f"  {name:<32} {value:>12.6g} {unit}" + (f"   ({note})" if note else ""))
            metrics[name] = {"value": value, "unit": unit}
        print("# inclusive share of worker search time: "
              + ", ".join(f"{k} {v:.1%}" for k, v in split.items()))
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{workload.name}-{args.seed}.jsonl.gz"
        print(f"# {probe.write_spans(path)} spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {name: metrics[name] for name in wanted}

    result = {
        "correct": not wrong,
        "attempted": len(measured) + len(traced),
        "failed": sum(s.failed for s in measured + traced),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
