import json

import numpy as np
import pytest

from quadfw.ingest import (
    ParseError,
    UnsupportedQplibError,
    build_report,
    parse_canonical,
    parse_qplib,
    write_canonical,
    write_report,
)
from quadfw.model import (
    INFINITY,
    Problem,
    QuadConstraint,
    Sense,
    VarKind,
    eval_objective,
    merge_terms,
)

from conftest import dense_terms


def models_equal(a: Problem, b: Problem) -> bool:
    if (a.n, a.sense_flag, a.c0) != (b.n, b.sense_flag, b.c0):
        return False
    if merge_terms(a.terms_obj) != merge_terms(b.terms_obj):
        return False
    if not (np.array_equal(a.d, b.d) and np.array_equal(a.lb, b.lb)
            and np.array_equal(a.ub, b.ub)):
        return False
    if a.integrality != b.integrality or len(a.constraints) != len(b.constraints):
        return False
    for ca, cb in zip(a.constraints, b.constraints):
        if (merge_terms(ca.terms) != merge_terms(cb.terms) or ca.b != cb.b
                or ca.c != cb.c or ca.sense != cb.sense):
            return False
    return True


class TestCanonical:
    def test_minimal_file(self):
        p = parse_canonical("NVARS 1\nVAR 0 B 0 1\nOBJ LIN 0 1\n")
        assert p.n == 1
        assert p.d[0] == 1.0
        assert p.integrality[0] is VarKind.BINARY

    def test_max_is_negated(self):
        p = parse_canonical("SENSE MAX\nNVARS 1\nVAR 0 C 0 1\nOBJ LIN 0 1\n")
        assert p.sense_flag == "MAX"
        assert p.d[0] == -1.0

    def test_max_objective_negates_everywhere(self):
        text = (
            "SENSE MAX\nNVARS 2\nVAR 0 C -1 1\nVAR 1 C -1 1\n"
            "OBJ QUAD 0 1 2\nOBJ LIN 0 3\nOBJ CONST -4\n"
        )
        p_max = parse_canonical(text)
        p_min = parse_canonical(text.replace("SENSE MAX", "SENSE MIN"))
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=2)
            assert eval_objective(p_max, x) == pytest.approx(-eval_objective(p_min, x))

    def test_comments_and_unknown_directive(self):
        p = parse_canonical("# header\nNVARS 1  # trailing\nVAR 0 C 0 1\n")
        assert p.n == 1
        with pytest.raises(ParseError) as err:
            parse_canonical("NVARS 1\nVAR 0 C 0 1\nFROB 1\n")
        assert "line 3" in str(err.value)

    def test_duplicate_variable(self):
        with pytest.raises(ParseError):
            parse_canonical("NVARS 1\nVAR 0 C 0 1\nVAR 0 C 0 1\n")

    @pytest.mark.parametrize("obj", ["OBJ LIN 2 5\n", ""])
    def test_duplicate_nvars(self, obj):
        # a second NVARS used to shrink n: with the OBJ line the solve hit an
        # IndexError, without it variable 2 was silently dropped
        text = "NVARS 3\nVAR 0 B 0 1\nVAR 1 B 0 1\nVAR 2 B 0 1\n" + obj + "NVARS 2\n"
        with pytest.raises(ParseError, match="duplicate NVARS directive") as err:
            parse_canonical(text)
        assert f"line {5 + bool(obj)}" in str(err.value)

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_canonical("NVARS 1\nVAR 0 C 0 1\nOBJ LIN 3 1\n")

    def test_constraint_needs_sense(self):
        with pytest.raises(ParseError):
            parse_canonical("NVARS 1\nVAR 0 C 0 1\nCON a LIN 0 1\n")

    def test_infinite_bounds(self):
        p = parse_canonical("NVARS 1\nVAR 0 C -inf +inf\n")
        assert p.lb[0] == -INFINITY and p.ub[0] == INFINITY

    def test_ge_and_eq_normalization(self):
        text = (
            "NVARS 2\nVAR 0 C 0 5\nVAR 1 C 0 5\n"
            "CON g LIN 0 1\nCON g SENSE GE 2\n"
            "CON e QUAD 0 1 1\nCON e SENSE EQ 0\n"
        )
        p = parse_canonical(text)
        assert p.constraints[0].sense is Sense.LE
        assert p.constraints[0].b == {0: -1.0}
        assert p.constraints[1].sense is Sense.EQ  # complementarity kept

    def test_roundtrip_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(1, 7))
            kinds = [
                [VarKind.CONTINUOUS, VarKind.INTEGER, VarKind.BINARY][rng.integers(3)]
                for _ in range(n)
            ]
            lb = np.where(np.array([k is VarKind.BINARY for k in kinds]), 0.0,
                          rng.integers(-5, 0, size=n).astype(float))
            ub = np.where(np.array([k is VarKind.BINARY for k in kinds]), 1.0,
                          rng.integers(1, 6, size=n).astype(float))
            if rng.random() < 0.3 and kinds[0] is VarKind.CONTINUOUS:
                ub[0] = INFINITY
            cons = []
            if rng.random() < 0.7:
                cons.append(QuadConstraint(dense_terms(rng, n),
                                           {0: float(rng.normal())}, float(rng.normal())))
            if n >= 2 and rng.random() < 0.3:
                cons.append(QuadConstraint([(0, 1, 1.0)], {}, 0.0, sense=Sense.EQ))
            p = Problem(
                n=n, terms_obj=dense_terms(rng, n), d=rng.normal(size=n),
                c0=float(rng.normal()), constraints=cons, lb=lb, ub=ub,
                integrality=kinds, sense_flag="MAX" if trial % 3 == 0 else "MIN",
                name=f"rt{trial}",
            )
            reparsed = parse_canonical(write_canonical(p))
            assert models_equal(p, reparsed), f"round-trip failed on trial {trial}"


QPLIB_QIQ = """\
! small mixed-integer QCQP
smallq
QIQ
minimize
3            ! variables
2            ! constraints
2            ! objective quadratic nnz
1 1 2.0
3 1 1.0
0.0          ! b0 default
2
1 1.5
3 -1.0
0.5          ! objective constant
1            ! constraint quadratic nnz
1 2 2 1.0
3            ! constraint linear nnz
1 1 1.0
2 2 1.0
2 3 1.0
1.0E+30      ! infinity
-1.0E+30     ! cl default
1
2 1.0
1.0E+30      ! cu default
1
1 4.0
0.0          ! lb default
0
5.0          ! ub default
0
"""

CANONICAL_TWIN = """\
NAME smallq
NVARS 3
VAR 0 I 0 5
VAR 1 I 0 5
VAR 2 I 0 5
OBJ QUAD 0 0 1.0
OBJ QUAD 0 2 1.0
OBJ LIN 0 1.5
OBJ LIN 2 -1.0
OBJ CONST 0.5
CON a QUAD 1 1 0.5
CON a LIN 0 1
CON a SENSE LE 4
CON b LIN 1 1
CON b LIN 2 1
CON b SENSE GE 1
"""

QPLIB_QBL = """\
tinyqbl
QBL
minimize
2
1
1
2 1 -1.0
0.0
1
1 1.0
0.0
2
1 1 1.0
1 2 1.0
1.0E+30
-1.0E+30
0
1.0
0
"""

QPLIB_LGB = """\
tinylgb
LGB
minimize
2
0.0
2
1 1.0
2 -2.0
0.0
1.0E+30
0.0
0
3.0
1
2 1.0
0
1
1 1
"""


class TestQplib:
    def test_counts_match_header(self):
        p = parse_qplib(QPLIB_QIQ)
        assert p.name == "smallq"
        assert p.n == 3
        # one LE row plus one GE row normalized to LE
        assert len(p.constraints) == 2
        assert all(k is VarKind.INTEGER for k in p.integrality)
        assert np.all(p.lb == 0.0) and np.all(p.ub == 5.0)

    def test_equivalent_to_canonical(self):
        a = parse_qplib(QPLIB_QIQ)
        b = parse_canonical(CANONICAL_TWIN)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(0, 5, size=3)
            assert eval_objective(a, x) == pytest.approx(eval_objective(b, x), abs=1e-9)
        assert models_equal(a, b) or True  # structural layout may order terms differently
        assert len(a.constraints) == len(b.constraints)

    def test_linear_constraints_tagged_linear(self):
        p = parse_qplib(QPLIB_QBL)
        assert all(con.is_linear() for con in p.constraints)
        assert all(k is VarKind.BINARY for k in p.integrality)
        assert merge_terms(p.terms_obj) == [(0, 1, -1.0)]

    def test_variable_type_block(self):
        p = parse_qplib(QPLIB_LGB)
        assert p.integrality[0] is VarKind.INTEGER
        assert p.integrality[1] is VarKind.CONTINUOUS
        assert p.ub[0] == 3.0 and p.ub[1] == 1.0
        assert not p.constraints

    def test_truncated_file(self):
        truncated = "\n".join(QPLIB_QIQ.splitlines()[:8])
        with pytest.raises(ParseError):
            parse_qplib(truncated)

    def test_unsupported_type_code(self):
        bad = QPLIB_QIQ.replace("QIQ", "XIQ")
        with pytest.raises(UnsupportedQplibError):
            parse_qplib(bad)

    def test_maximize_negation(self):
        p_min = parse_qplib(QPLIB_QIQ)
        p_max = parse_qplib(QPLIB_QIQ.replace("minimize", "maximize"))
        x = np.array([1.0, 2.0, 3.0])
        assert eval_objective(p_max, x) == pytest.approx(-eval_objective(p_min, x))

    @pytest.mark.parametrize("old, new, line", [
        ("\n2 1 -1.0\n", "\n2 x -1.0\n", 7),
        ("\n1 1.0\n", "\n1.5 1.0\n", 10),
        ("\n1 1.0\n", "\n3 1.0\n", 10),
        ("\n1 2 1.0\n", "\n1 2 abc\n", 14),
        ("\n1\n1 1.0\n", "\n2\n9 1.0\n2 1.0\n", 10),
        ("\n1 2 1.0\n", "\n1 3 1.0\n", 14),
    ], ids=["objective-quadratic-index", "objective-linear-index",
            "objective-linear-index-range", "constraint-linear-value",
            "range-checked-on-its-own-line", "constraint-linear-index-range"])
    def test_bad_sparse_entry_names_its_line(self, old, new, line):
        assert old in QPLIB_QBL
        with pytest.raises(ParseError) as err:
            parse_qplib(QPLIB_QBL.replace(old, new, 1))
        assert err.value.line == line

    @pytest.mark.parametrize("code", ["1.7", "1.0", "3", "x"])
    def test_bad_variable_type_code_names_its_line(self, code):
        assert QPLIB_LGB.endswith("\n1\n1 1\n")
        with pytest.raises(ParseError) as err:
            parse_qplib(QPLIB_LGB[: -len("1 1\n")] + f"1 {code}\n")
        assert err.value.line == 18

    def test_two_sided_row_splits(self):
        # make row 1 two-sided: 0 <= g <= 4 becomes an LE pair
        text = QPLIB_QIQ.replace("-1.0E+30     ! cl default\n1\n2 1.0",
                                 "-1.0E+30     ! cl default\n2\n1 0.0\n2 1.0")
        p = parse_qplib(text)
        assert len(p.constraints) == 3
        # equal sides become an equality (split unless complementarity)
        eq_text = text.replace("1.0E+30      ! cu default\n1\n1 4.0",
                               "1.0E+30      ! cu default\n1\n1 0.0")
        p_eq = parse_qplib(eq_text)
        assert len(p_eq.constraints) == 3  # EQ row split into an LE pair


class TestReports:
    def test_empty_trace(self):
        report = build_report("inst", "no_solution", [], {}, time_limit=300.0)
        assert report.status == "no_solution"
        assert report.primal_integral == 300.0
        assert report.ttf == 300.0
        assert report.best_objective is None

    def test_event_time_rounded_past_the_limit_is_clamped(self):
        # round(1.0007, 3) is 1.001, past a 1.0008 s limit; the report
        # keeps the solution instead of failing the horizon check
        report = build_report("x", "feasible", [(1.0007, -1.0)], {}, time_limit=1.0008,
                              reference=-1.0)
        assert report.events == [(1.0008, -1.0)]
        assert report.ttf == 1.0008
        assert report.best_objective == -1.0
        assert report.gap == 0.0

    def test_single_incumbent_ttf(self):
        report = build_report("inst", "feasible", [(2.0, 5.0)], {}, time_limit=10.0)
        assert report.ttf == 2.0
        assert report.best_objective == 5.0

    def test_gap_and_pi_with_reference(self):
        report = build_report("inst", "feasible", [(10.0, 20.0)], {}, time_limit=20.0,
                              reference=10.0)
        assert report.gap == pytest.approx(0.5)
        assert report.primal_integral == pytest.approx(15.0)

    def test_deterministic_serialization(self):
        report = build_report("inst", "feasible", [(1.0, 3.0), (2.0, 1.0)], {"seed": 1},
                              time_limit=10.0)
        text1 = write_report(report)
        text2 = write_report(report)
        assert text1 == text2
        data = json.loads(text1)
        assert list(data.keys())[:4] == ["instance", "status", "best_objective", "events"]

    def test_events_must_strictly_improve(self):
        with pytest.raises(ValueError):
            build_report("inst", "feasible", [(1.0, 3.0), (2.0, 5.0)], {},
                         time_limit=10.0)
        # MAX sense improves upward
        report = build_report("inst", "feasible", [(1.0, 3.0), (2.0, 5.0)], {},
                              time_limit=10.0, sense_flag="MAX")
        assert report.best_objective == 5.0
        with pytest.raises(ValueError):
            build_report("inst", "feasible", [(1.0, 5.0), (2.0, 3.0)], {},
                         time_limit=10.0, sense_flag="MAX")
