import json

import numpy as np

from quadfw import bnb
from quadfw.cli import main
from quadfw.config import Config
from quadfw.ingest import parse_canonical
from quadfw.model import Problem, QuadConstraint, VarKind, check_feasibility
from quadfw.portfolio import merge_traces, run_portfolio

from conftest import random_binary_qp

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
                     "--no-rins", "--no-ftg", "--qubo-bipartite",
                     "--p", "1.3,1.6", "--ell", "0.7,0.9",
                     "--out", str(tmp_path / "r.json")])
        assert code == 0


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
        direct = bnb.solve(prob, cfg.for_worker(0, ell=cfg.ell_grid[0]),
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
        from quadfw.portfolio import _worker_setups
        from quadfw.presolve import run_presolve

        pres = run_presolve(p)
        setups = _worker_setups(pres.problem, Config(workers=7, time_limit=1.0))
        assert [cfg.p for (cfg, _) in setups] == [1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8]

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

    def test_merge_traces_earliest_level(self):
        t1 = bnb.SolveTrace(events=[(1.0, 5.0), (4.0, 1.0)])
        t2 = bnb.SolveTrace(events=[(2.0, 3.0), (3.0, 1.0)])
        merged = merge_traces([t1, t2])
        assert merged == [(1.0, 5.0), (2.0, 3.0), (3.0, 1.0)]

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
