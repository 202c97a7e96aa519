import json
import time
from dataclasses import replace

import numpy as np
import pytest

from quadfw import bnb, portfolio
from quadfw.cli import main
from quadfw.config import Config
from quadfw.ingest import parse_canonical
from quadfw.lmo import vertex_key
from quadfw.model import Problem, QuadConstraint, VarKind, check_feasibility
from quadfw.portfolio import run_portfolio

from conftest import random_binary_qp, random_miqcqp

INSTANCE = """\
NAME clitest
SENSE MIN
NVARS 3
VAR 0 B 0 1
VAR 1 B 0 1
VAR 2 B 0 1
OBJ QUAD 0 1 2.0
OBJ QUAD 1 2 -3.0
OBJ LIN 0 -1.0
OBJ LIN 2 0.5
CON cap LIN 0 1
CON cap LIN 1 1
CON cap LIN 2 1
CON cap SENSE LE 2
"""

# min -x0*x1 - x1 with x1^2 <= 4: the p grid applies (a quadratic row)
# and p = 1.5 finds -4.0 at (1, 2)
QUADRATIC_ROW = """\
NVARS 2
VAR 0 B 0 1
VAR 1 I 0 3
OBJ QUAD 0 1 -1.0
OBJ LIN 1 -1.0
CON sq QUAD 1 1 1.0
CON sq SENSE LE 4
"""

# min x0*x1 - x1 over a free x0: presolve bounds x0 by +-1e5, and the
# best point found, (-1e5, 3), lies on that bound
FREE_VARIABLE = """\
NVARS 2
VAR 0 C -inf +inf
VAR 1 I 0 3
OBJ QUAD 0 1 1.0
OBJ LIN 1 -1.0
"""

INFEASIBLE = """\
NVARS 1
VAR 0 B 0 1
CON bad LIN 0 1
CON bad SENSE GE 2
"""


def strip_times(data: dict) -> dict:
    out = json.loads(json.dumps(data))
    for event in out.get("events", []):
        event["time"] = 0.0
    out.get("metrics", {})["ttf"] = 0.0
    out.get("metrics", {})["primal_integral"] = 0.0
    return out


class TestSolveCommand:
    def test_solve_writes_report_and_exit_zero(self, tmp_path, capsys):
        inst = tmp_path / "inst.qfw"
        inst.write_text(INSTANCE)
        out = tmp_path / "report.json"
        code = main(["solve", str(inst), "--workers", "1", "--time-limit", "5",
                     "--node-limit", "40", "--seed", "3", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["status"] == "feasible"
        assert data["instance"] == "clitest"
        assert data["events"]

    def test_deterministic_reports_modulo_timestamps(self, tmp_path):
        inst = tmp_path / "inst.qfw"
        inst.write_text(INSTANCE)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["solve", str(inst), "--workers", "1", "--time-limit", "30",
                "--node-limit", "40", "--seed", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        a = strip_times(json.loads(out1.read_text()))
        b = strip_times(json.loads(out2.read_text()))
        assert a == b

    def test_no_solution_exit_code(self, tmp_path):
        inst = tmp_path / "bad.qfw"
        inst.write_text(INFEASIBLE)
        code = main(["solve", str(inst), "--workers", "1", "--time-limit", "2"])
        assert code == 2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        inst = tmp_path / "broken.qfw"
        inst.write_text("NVARS 1\nWHAT 0\n")
        code = main(["solve", str(inst)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error" in err

    @pytest.mark.parametrize("limit", ["-1", "nan", "inf"])
    def test_invalid_time_limit_exit_code(self, tmp_path, capsys, limit):
        inst = tmp_path / "ok.qfw"
        inst.write_text(INSTANCE)
        assert main(["solve", str(inst), "--workers", "1", "--time-limit", limit]) == 1
        report = json.loads(capsys.readouterr().err, parse_constant=pytest.fail)
        assert report["status"] == "error"
        assert "time limit" in report["termination"]
        assert report["metrics"]["ttf"] == 0.0

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_invalid_penalty_exponent_exit_code(self, tmp_path, capsys, p):
        inst = tmp_path / "quad.qfw"
        inst.write_text(QUADRATIC_ROW)
        assert main(["solve", str(inst), "--workers", "1", "--time-limit", "5",
                     "--p", p]) == 1
        report = json.loads(capsys.readouterr().err, parse_constant=pytest.fail)
        assert report["status"] == "error"
        assert "penalty exponents" in report["termination"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--ref", "nan", "reference objective"),
        ("--ref", "inf", "reference objective"),
        ("--node-limit", "-3", "node limit"),
        ("--fw-iter", "-1", "iteration budget"),
        ("--seed", "-1", "seed"),
    ], ids=["ref_nan", "ref_inf", "negative_node_limit", "negative_fw_iter", "negative_seed"])
    def test_invalid_config_value_exit_code(self, tmp_path, capsys, flag, value, message):
        inst = tmp_path / "quad.qfw"
        inst.write_text(QUADRATIC_ROW)
        assert main(["solve", str(inst), "--workers", "1", "--time-limit", "5",
                     flag, value]) == 1
        report = json.loads(capsys.readouterr().err, parse_constant=pytest.fail)
        assert report["status"] == "error"
        assert message in report["termination"]

    @pytest.mark.parametrize("flag, value", [("--p", ""), ("--ell", ",")],
                             ids=["p_empty", "ell_comma"])
    def test_empty_grid_exit_code(self, tmp_path, capsys, flag, value):
        # an empty list used to fall back to the default grid and run
        inst = tmp_path / "quad.qfw"
        inst.write_text(QUADRATIC_ROW)
        assert main(["solve", str(inst), "--workers", "1", "--time-limit", "5",
                     "--node-limit", "5", flag, value]) == 1
        report = json.loads(capsys.readouterr().err, parse_constant=pytest.fail)
        assert report["status"] == "error"
        assert "grids must not be empty" in report["termination"]

    def test_duplicate_nvars_exit_code(self, tmp_path, capsys):
        # a second NVARS used to shrink n, and the solve died on an IndexError
        inst = tmp_path / "twice.qfw"
        inst.write_text("NVARS 3\nVAR 0 B 0 1\nVAR 1 B 0 1\nVAR 2 B 0 1\n"
                        "OBJ LIN 2 5\nNVARS 2\n")
        assert main(["solve", str(inst), "--workers", "1", "--time-limit", "5"]) == 1
        report = json.loads(capsys.readouterr().err, parse_constant=pytest.fail)
        assert report["status"] == "error"
        assert "duplicate NVARS directive" in report["termination"]

    def test_removed_flag_is_a_usage_error(self, tmp_path):
        inst = tmp_path / "inst.qfw"
        inst.write_text(INSTANCE)
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(inst), "--qubo-bipartite"])
        assert exc.value.code == 2

    def test_point_on_artificial_bound_is_reported(self, tmp_path):
        inst = tmp_path / "free.qfw"
        inst.write_text(FREE_VARIABLE)
        out = tmp_path / "r.json"
        assert main(["solve", str(inst), "--workers", "1", "--time-limit", "5",
                     "--node-limit", "20", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["status"] == "feasible"
        assert report["best_objective"] == pytest.approx(-300003.0)
        assert report["termination"] == "exhausted+artificial_bound"

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.qfw")]) == 1

    def test_qplib_format_flag(self, tmp_path):
        from test_ingest import QPLIB_QIQ

        inst = tmp_path / "inst.qplib"
        inst.write_text(QPLIB_QIQ)
        out = tmp_path / "r.json"
        code = main(["solve", str(inst), "--format", "qplib", "--workers", "1",
                     "--time-limit", "3", "--node-limit", "30",
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["status"] == "feasible"

    def test_heuristic_flags_accepted(self, tmp_path):
        inst = tmp_path / "inst.qfw"
        inst.write_text(INSTANCE)
        code = main(["solve", str(inst), "--workers", "1", "--time-limit", "2",
                     "--node-limit", "10", "--no-asens", "--no-undercover",
                     "--no-rins", "--no-ftg",
                     "--p", "1.3,1.6", "--ell", "0.7,0.9",
                     "--out", str(tmp_path / "r.json")])
        assert code == 0
        config = json.loads((tmp_path / "r.json").read_text())["config"]
        assert config["heuristics"] == {"asens": False, "undercover": False, "rins": False,
                                        "ftg": False}
        assert config["p_grid"] == [1.3, 1.6]
        assert config["ell_grid"] == [0.7, 0.9]


class TestMetricsCommand:
    def test_aggregate(self, tmp_path, capsys):
        r1 = {"instance": "a", "status": "feasible",
              "metrics": {"ttf": 3.0, "gap": 0.1, "primal_integral": 12.0}}
        r2 = {"instance": "b", "status": "no_solution",
              "metrics": {"ttf": None, "gap": None, "primal_integral": 300.0}}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        p1.write_text(json.dumps(r1))
        p2.write_text(json.dumps(r2))
        assert main(["metrics", str(p1), str(p2)]) == 0
        out = capsys.readouterr().out
        assert "1/2" in out
        assert "Found" in out


class TestConfig:
    @pytest.mark.parametrize("grid", ["p_grid", "ell_grid"])
    def test_empty_grid_is_refused(self, grid):
        # a portfolio picks worker w's entry as grid[w % len(grid)]
        with pytest.raises(ValueError, match="grids"):
            Config(**{grid: ()})


class TestPortfolio:
    def test_w1_equals_direct_solve(self):
        rng = np.random.default_rng(2)
        p = random_binary_qp(rng, 5)
        cfg = Config(workers=1, time_limit=30.0, node_limit=30, seed=4)
        report = run_portfolio(p, cfg)
        # direct solve with the first grid config: all-binary QP -> ell grid
        from quadfw.presolve import convexify_binary, run_presolve

        pres = run_presolve(p)
        prob, _ = convexify_binary(pres.problem, cfg.ell_grid[0])
        direct = bnb.solve(prob, cfg.for_worker(0),
                           original=p, uncrush=pres.uncrush, repair=pres.repair_aux)
        assert [v for (_, v) in direct.events] == [e[1] for e in report.events]

    def test_distinct_p_assignment(self):
        # quadratically constrained instance routes p grid round-robin
        rng = np.random.default_rng(5)
        p = Problem(
            n=3, terms_obj=[(0, 1, 1.0)], d=np.array([-1.0, -1.0, -1.0]), c0=0.0,
            constraints=[QuadConstraint([(0, 0, 1.0), (1, 1, 1.0)], {}, -2.0)],
            lb=np.zeros(3), ub=np.ones(3), integrality=[VarKind.BINARY] * 3,
        )
        from quadfw.portfolio import _worker_setup
        from quadfw.presolve import run_presolve

        pres = run_presolve(p)
        config = Config(workers=7, time_limit=1.0)
        setups = [_worker_setup(pres.problem, config, w) for w in range(7)]
        assert [p for (_, _, p) in setups] == [1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8]

    def test_no_variables_solves_to_constant(self):
        # an empty region has a (0, 0) row block; it must not break the LMO
        p = parse_canonical("NVARS 0\nOBJ CONST 3.5\n")
        report = run_portfolio(p, Config(workers=1, time_limit=5.0))
        assert report.status == "feasible"
        assert report.best_objective == 3.5

    def test_merged_trace_strictly_improving_and_feasible(self):
        rng = np.random.default_rng(6)
        p = random_binary_qp(rng, 7)
        cfg = Config(workers=3, time_limit=30.0, node_limit=40, seed=0)
        report, traces = run_portfolio(p, cfg, return_details=True)
        values = [e[1] for e in report.events]
        assert all(b < a for a, b in zip(values, values[1:]))
        for trace in traces:
            for x in trace.event_points:
                assert check_feasibility(p, x, 1e-6, 1e-6).feasible

    def test_report_events_are_the_workers_events_in_order(self):
        # each later worker starts from the store's best, so its events
        # improve on every earlier worker's and need no merge
        p = random_miqcqp(np.random.default_rng(1), 8, n_quad=2, n_lin=2)
        cfg = Config(workers=3, time_limit=60.0, node_limit=8, seed=0)
        report, traces = run_portfolio(p, cfg, return_details=True)
        assert sum(1 for t in traces if t.events) >= 2
        assert report.events == [
            (round(t, 3), v) for trace in traces for (t, v) in trace.events]

    def test_max_sense_reporting(self):
        # maximize x0 + x1: internal minimization of the negation
        text = (
            "SENSE MAX\nNVARS 2\nVAR 0 B 0 1\nVAR 1 B 0 1\n"
            "OBJ LIN 0 1\nOBJ LIN 1 1\n"
        )
        from quadfw.ingest import parse_canonical

        p = parse_canonical(text)
        report = run_portfolio(p, Config(workers=1, time_limit=5.0, node_limit=20))
        assert report.best_objective == 2.0
        values = [e[1] for e in report.events]
        assert values == sorted(values)  # improving means increasing for MAX

    def test_time_limit_zero_no_solution(self):
        rng = np.random.default_rng(8)
        p = random_binary_qp(rng, 4)
        report = run_portfolio(p, Config(workers=2, time_limit=0.0))
        assert report.status == "no_solution"
        assert report.primal_integral == 0.0
        assert report.events == []

    def test_tight_time_limit_never_raises(self):
        # incumbents of a node that overran the deadline used to be stamped
        # after it, and the report rejected events outside [0, time_limit]
        rng = np.random.default_rng(12)
        p = random_binary_qp(rng, 120)
        report = run_portfolio(p, Config(workers=2, time_limit=1.0, seed=0))
        assert all(0.0 <= t <= 1.0 for t, _ in report.events)

    def test_incumbents_of_an_overrunning_node_are_refused(self, monkeypatch):
        # the root node outlives the time limit, so every candidate it
        # produces arrives after the deadline
        import time

        search = bnb.bpcg

        def overrunning(*args, **kwargs):
            time.sleep(0.3)
            return search(*args, **kwargs)

        monkeypatch.setattr(bnb, "bpcg", overrunning)
        p = random_binary_qp(np.random.default_rng(13), 6)
        report = run_portfolio(p, Config(workers=1, time_limit=0.2, seed=0))
        assert report.events == []
        assert report.status == "no_solution"

    def test_wall_clock_overrun_bounded(self):
        import time

        rng = np.random.default_rng(9)
        p = random_binary_qp(rng, 12)  # big enough to outlive the limit
        t0 = time.monotonic()
        run_portfolio(p, Config(workers=2, time_limit=1.5, seed=0))
        assert time.monotonic() - t0 <= 1.5 + 2.0

    @staticmethod
    def slow_presolve(monkeypatch, seconds):
        presolve = portfolio.run_presolve

        def slow(problem, **kwargs):
            time.sleep(seconds)
            return presolve(problem, **kwargs)

        monkeypatch.setattr(portfolio, "run_presolve", slow)

    def test_setup_counts_toward_ttf(self, monkeypatch):
        self.slow_presolve(monkeypatch, 0.3)
        p = random_binary_qp(np.random.default_rng(14), 6)
        report = run_portfolio(p, Config(workers=1, time_limit=30.0, node_limit=10, seed=0))
        assert report.events
        assert all(t >= 0.3 for t, _ in report.events)
        assert report.ttf >= 0.3

    def test_setup_counts_toward_the_limit(self, monkeypatch):
        self.slow_presolve(monkeypatch, 0.3)
        p = random_binary_qp(np.random.default_rng(14), 6)
        report = run_portfolio(p, Config(workers=1, time_limit=0.2, seed=0))
        assert report.events == []
        assert report.status == "no_solution"

    @pytest.mark.parametrize("failing", [0, 1])  # the first worker, a later one
    def test_worker_exception_is_raised(self, monkeypatch, failing):
        class WorkerFailed(Exception):
            pass

        solve = bnb.solve

        def failing_worker(problem, config, **kwargs):
            if config.seed == failing:
                raise WorkerFailed(f"worker {failing}")
            return solve(problem, config, **kwargs)

        monkeypatch.setattr(bnb, "solve", failing_worker)
        p = random_binary_qp(np.random.default_rng(15), 5)
        with pytest.raises(WorkerFailed):
            run_portfolio(p, Config(workers=2, time_limit=5.0, node_limit=5, seed=0))

    def test_workers_run_one_after_the_other(self, monkeypatch):
        log = []
        solve = bnb.solve

        def logged(problem, config, **kwargs):
            if kwargs["store"] is None:  # an LNS sub-solve inside a worker
                return solve(problem, config, **kwargs)
            log.append(("enter", config.seed))
            trace = solve(problem, config, **kwargs)
            log.append(("exit", config.seed))
            return trace

        monkeypatch.setattr(bnb, "solve", logged)
        p = random_binary_qp(np.random.default_rng(15), 5)
        run_portfolio(p, Config(workers=2, time_limit=30.0, node_limit=5, seed=0))
        assert log == [("enter", 0), ("exit", 0), ("enter", 1), ("exit", 1)]

    def test_time_limit_shared_between_workers(self, monkeypatch):
        started = []
        solve = bnb.solve

        def timed(problem, config, **kwargs):
            if kwargs["store"] is not None:  # not an LNS sub-solve
                started.append(time.monotonic() - kwargs["t0"])
            return solve(problem, config, **kwargs)

        monkeypatch.setattr(bnb, "solve", timed)
        p = random_binary_qp(np.random.default_rng(9), 80)  # outlives the limit
        limit = 1.5
        report, traces = run_portfolio(
            p, Config(workers=2, time_limit=limit, seed=0), return_details=True
        )
        assert traces[0].termination == "time_limit"
        assert all(t <= (started[0] + limit) / 2 for t, _ in traces[0].events)
        assert traces[1].node_count >= 1
        assert all(t <= limit for t, _ in report.events)

    def test_node_limited_workers_repeat_exactly(self, monkeypatch):
        # worker 1 adopts worker 0's incumbent from the store at its first root
        adopted = []
        adopt = bnb.SolutionPool.adopt_external

        def logged(pool, value, point):
            adopted.append(value < pool.incumbent_value)
            adopt(pool, value, point)

        monkeypatch.setattr(bnb.SolutionPool, "adopt_external", logged)
        p = random_binary_qp(np.random.default_rng(9), 20)
        cfg = Config(workers=3, time_limit=60.0, node_limit=12, restart_interval=10, seed=0)

        def run():
            _, traces = run_portfolio(p, cfg, return_details=True)
            return [(t.node_count, [v for _, v in t.events]) for t in traces]

        first = run()
        assert any(adopted)
        assert run() == first

    def test_first_root_adopts_the_store_incumbent(self, monkeypatch):
        # each bpcg and adopt_external call is logged with the solve that
        # made it: (worker seed, whether it is a top-level worker search)
        calls, adoptions, solves = [], [], []
        solve, bpcg = bnb.solve, bnb.bpcg
        adopt = bnb.SolutionPool.adopt_external

        def tracked(problem, config, **kwargs):
            solves.append((config.seed, kwargs["store"] is not None))
            try:
                return solve(problem, config, **kwargs)
            finally:
                solves.pop()

        def logged_bpcg(*args, **kwargs):
            calls.append((solves[-1], kwargs["warm"]))
            return bpcg(*args, **kwargs)

        def logged_adopt(pool, value, point):
            adoptions.append((solves[-1], value < pool.incumbent_value))
            adopt(pool, value, point)

        monkeypatch.setattr(bnb, "solve", tracked)
        monkeypatch.setattr(bnb, "bpcg", logged_bpcg)
        monkeypatch.setattr(bnb.SolutionPool, "adopt_external", logged_adopt)
        p = random_binary_qp(np.random.default_rng(9), 20)
        cfg = Config(workers=2, time_limit=60.0, node_limit=12, seed=0)
        report, traces = run_portfolio(p, cfg, return_details=True)

        first = {w: next(warm for who, warm in calls if who == (w, True)) for w in (0, 1)}
        assert first[0] is None
        assert first[1] is not None and len(first[1].vertices) == 1
        assert vertex_key(first[1].vertices[0]) == vertex_key(traces[0].incumbent_reform)
        # sub-solves (no store) ran, and none of them adopted
        assert any(not top for (_, top), _ in calls)
        assert all(top for (_, top), _ in adoptions)
        assert ((1, True), True) in adoptions
        stats = report.to_dict()["stats"]["workers"]
        assert stats[0]["adoptions"] == 0
        assert stats[1]["adoptions"] == 1

    def test_worker_stats(self, monkeypatch):
        # every FW node's LMO calls, sub-solves included, reach the report
        lmo_calls = []
        bpcg = bnb.bpcg

        def counted(*args, **kwargs):
            result = bpcg(*args, **kwargs)
            lmo_calls.append(result.lmo_calls)
            return result

        monkeypatch.setattr(bnb, "bpcg", counted)
        p = random_miqcqp(np.random.default_rng(4), 10, n_quad=2, n_lin=1)
        cfg = Config(workers=1, time_limit=60.0, node_limit=30, seed=0)
        report = run_portfolio(p, cfg).to_dict()
        (entry,) = report["stats"]["workers"]
        assert len(lmo_calls) > entry["nodes"]  # LNS sub-solves ran
        assert entry["lmo_calls"] == sum(lmo_calls)
        assert entry["nodes"] == report["nodes"]
        assert entry["termination"] == report["termination"] == "node_limit"
        # calls at a point just evaluated reuse its row product
        assert 0 < entry["row_products"] < entry["value_calls"] + entry["gradient_calls"]
        assert run_portfolio(p, cfg).to_dict()["stats"] == report["stats"]
        two = run_portfolio(p, replace(cfg, workers=2)).to_dict()
        assert len(two["stats"]["workers"]) == 2
        assert sum(w["nodes"] for w in two["stats"]["workers"]) == two["nodes"]
