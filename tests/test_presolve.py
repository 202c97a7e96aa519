import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from quadfw.model import (
    Problem,
    QuadConstraint,
    Sense,
    VarKind,
    assemble_symmetric,
    check_feasibility,
    eval_objective,
)
from quadfw.oracle import brute_force
from quadfw.presolve import (
    PresolveError,
    convexify_binary,
    eigen_symmetric,
    propagate_bounds,
    reformulate_complementarity,
    reformulate_perspective,
    run_presolve,
)

from conftest import dense_terms, random_binary_qp


def lin_con(coeffs: dict, rhs: float) -> QuadConstraint:
    return QuadConstraint([], coeffs, -rhs)


class TestPropagation:
    def test_activity_tightening(self):
        p = Problem(
            n=2, terms_obj=[], d=np.zeros(2), c0=0.0,
            constraints=[lin_con({0: 2.0, 1: 3.0}, 12.0)],
            lb=np.zeros(2), ub=10 * np.ones(2), integrality=[VarKind.CONTINUOUS] * 2,
        )
        lb, ub, status = propagate_bounds(p)
        assert status == "ok"
        assert ub[0] == pytest.approx(6.0)
        assert ub[1] == pytest.approx(4.0)

    def test_integer_rounds_inward(self):
        p = Problem(
            n=1, terms_obj=[], d=np.zeros(1), c0=0.0,
            constraints=[lin_con({0: 2.0}, 5.0)],
            lb=np.zeros(1), ub=10 * np.ones(1), integrality=[VarKind.INTEGER],
        )
        _, ub, status = propagate_bounds(p)
        assert status == "ok"
        assert ub[0] == 2.0  # 2.5 rounded inward

    def test_infeasibility_detected(self):
        p = Problem(
            n=1, terms_obj=[], d=np.zeros(1), c0=0.0,
            constraints=[
                lin_con({0: -1.0}, -3.0),  # x >= 3
                lin_con({0: 1.0}, 2.0),    # x <= 2
            ],
            lb=np.zeros(1), ub=10 * np.ones(1), integrality=[VarKind.CONTINUOUS],
        )
        _, _, status = propagate_bounds(p)
        assert status == "infeasible"

    def test_soundness_on_integer_grids(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            lb = np.zeros(n)
            ub = rng.integers(2, 5, size=n).astype(float)
            cons = []
            for _ in range(int(rng.integers(1, 4))):
                a = {int(k): float(rng.integers(-3, 4))
                     for k in rng.choice(n, size=min(2, n), replace=False)}
                a = {k: v for k, v in a.items() if v != 0.0} or {0: 1.0}
                rhs = float(rng.integers(-2, 10))
                cons.append(lin_con(a, rhs))
            p = Problem(n=n, terms_obj=[], d=np.zeros(n), c0=0.0, constraints=cons,
                        lb=lb, ub=ub, integrality=[VarKind.INTEGER] * n)
            new_lb, new_ub, status = propagate_bounds(p)

            def feasible_points(lo, hi):
                points = set()
                axes = [np.arange(int(np.ceil(lo[k])), int(np.floor(hi[k])) + 1)
                        for k in range(n)]
                if any(len(a) == 0 for a in axes):
                    return points
                for pt in itertools.product(*axes):
                    x = np.array(pt, dtype=float)
                    if all(sum(v * x[k] for k, v in c.b.items()) + c.c <= 1e-9
                           for c in cons):
                        points.add(pt)
                return points

            before = feasible_points(lb, ub)
            if status == "infeasible":
                assert before == set()
            else:
                assert feasible_points(new_lb, new_ub) == before


class TestPropagationDeadline:
    def chain(self):
        # x_{k+1} <= x_k, rows listed last link first: each pass carries
        # x_0 <= 3 one link further
        n = 5
        cons = [lin_con({k + 1: 1.0, k: -1.0}, 0.0) for k in reversed(range(n - 1))]
        ub = np.full(n, np.inf)
        ub[0] = 3.0
        return Problem(n=n, terms_obj=[], d=np.zeros(n), c0=0.0, constraints=cons,
                       lb=np.zeros(n), ub=ub, integrality=[VarKind.INTEGER] * n)

    def test_no_deadline_propagates_the_whole_chain(self):
        _, ub, status = propagate_bounds(self.chain())
        assert status == "ok"
        assert np.array_equal(ub, np.full(5, 3.0))

    def test_past_deadline_stops_after_one_pass(self):
        _, ub, status = propagate_bounds(self.chain(), deadline=time.monotonic() - 1.0)
        assert status == "ok"
        assert np.array_equal(ub, [3.0, 3.0, np.inf, np.inf, np.inf])

    def test_run_presolve_passes_the_deadline(self):
        res = run_presolve(self.chain(), deadline=time.monotonic() - 1.0)
        # propagation stopped after one pass; artificial bounds close the rest
        assert np.array_equal(res.problem.ub, [3.0, 3.0] + [1.0e5] * 3)


def _per_variable_propagation(problem: Problem, max_rounds: int = 10):
    """Reference: each variable's bound from a fresh sum over the rest of
    its row, O(row length^2) per row."""
    lb, ub = problem.lb.copy(), problem.ub.copy()

    def round_inward(k):
        if problem.integrality[k] is not VarKind.CONTINUOUS:
            ub[k] = math.floor(ub[k] + 1e-9) if math.isfinite(ub[k]) else ub[k]
            lb[k] = math.ceil(lb[k] - 1e-9) if math.isfinite(lb[k]) else lb[k]

    for k in range(problem.n):
        round_inward(k)
    for _ in range(max_rounds):
        changed = False
        for con in problem.constraints:
            for k, a_k in con.b.items():
                rest = [a_j * (lb[j] if a_j > 0 else ub[j]) for j, a_j in con.b.items() if j != k]
                if not all(math.isfinite(r) for r in rest):
                    continue
                limit = (-con.c - sum(rest)) / a_k
                if a_k > 0 and limit < ub[k] - 1e-9:
                    ub[k] = limit
                elif a_k < 0 and limit > lb[k] + 1e-9:
                    lb[k] = limit
                else:
                    continue
                round_inward(k)
                changed = True
        if np.any(lb > ub + 1e-9):
            return lb, ub, "infeasible"
        if not changed:
            break
    return lb, ub, "ok"


class TestPropagationScale:
    def test_matches_per_variable_reference(self):
        rng = np.random.default_rng(33)
        kinds = [VarKind.CONTINUOUS, VarKind.INTEGER]
        for _ in range(200):
            n = int(rng.integers(2, 7))
            lb = rng.integers(-3, 1, size=n).astype(float)
            ub = lb + rng.integers(1, 6, size=n).astype(float)
            lb[rng.random(n) < 0.2] = -np.inf
            ub[rng.random(n) < 0.2] = np.inf
            cons = []
            for _ in range(int(rng.integers(1, 4))):
                support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                a = {int(k): float(rng.integers(1, 4) * rng.choice([-1, 1])) for k in support}
                cons.append(lin_con(a, float(rng.integers(-2, 8))))
            p = Problem(n=n, terms_obj=[], d=np.zeros(n), c0=0.0, constraints=cons,
                        lb=lb, ub=ub, integrality=[kinds[k] for k in rng.integers(0, 2, size=n)])
            got_lb, got_ub, got_status = propagate_bounds(p)
            want_lb, want_ub, want_status = _per_variable_propagation(p)
            assert got_status == want_status
            if want_status == "ok":
                np.testing.assert_allclose(got_lb, want_lb, rtol=0, atol=1e-9)
                np.testing.assert_allclose(got_ub, want_ub, rtol=0, atol=1e-9)

    def test_dense_rows_presolve_quickly(self):
        # 150 binaries and 300 dense rows took 1.4 s with a fresh sum per
        # variable; one minimum activity per row makes it O(nonzeros)
        rng = np.random.default_rng(150)
        n = 150
        rows = [lin_con({k: float(v) for k, v in enumerate(rng.normal(size=n))},
                        float(rng.uniform(1.0, 5.0))) for _ in range(300)]
        p = replace(random_binary_qp(rng, n), constraints=rows)
        start = time.perf_counter()
        result = run_presolve(p)
        assert time.perf_counter() - start < 0.1
        assert result.status == "ok"


class TestComplementarity:
    def comp_problem(self, lb0=0.0):
        return Problem(
            n=2, terms_obj=[], d=np.array([-1.0, -1.0]), c0=0.0,
            constraints=[QuadConstraint([(0, 1, 1.0)], {}, 0.0, sense=Sense.EQ)],
            lb=np.array([lb0, 0.0]), ub=np.array([5.0, 5.0]),
            integrality=[VarKind.INTEGER] * 2,
        )

    def test_bigm_rows(self):
        out, records = reformulate_complementarity(self.comp_problem())
        assert len(records) == 1
        assert out.n == 3
        assert out.integrality[2] is VarKind.BINARY
        rows = [c for c in out.constraints if c.tag == "indicator"]
        assert len(rows) == 2
        # x0 <= 5 z  and  x1 <= 5 (1 - z)
        assert rows[0].b == {0: 1.0, 2: -5.0} and rows[0].c == 0.0
        assert rows[1].b == {1: 1.0, 2: 5.0} and rows[1].c == -5.0

    def test_negative_bound_skips(self):
        out, records = reformulate_complementarity(self.comp_problem(lb0=-1.0))
        assert records == []
        assert out.constraints == self.comp_problem(lb0=-1.0).constraints
        # presolve finalization splits the leftover equality for the penalty
        res = run_presolve(self.comp_problem(lb0=-1.0))
        assert all(c.sense is Sense.LE for c in res.problem.constraints)
        assert len(res.problem.constraints) == 2

    def test_projection_matches_disjunction(self):
        out, _ = reformulate_complementarity(self.comp_problem())
        projected = set()
        for x0 in range(6):
            for x1 in range(6):
                for z in (0, 1):
                    x = np.array([x0, x1, z], dtype=float)
                    ok = all(
                        sum(v * x[k] for k, v in con.b.items()) + con.c <= 1e-9
                        for con in out.constraints
                    )
                    if ok:
                        projected.add((x0, x1))
        expected = {(a, b) for a in range(6) for b in range(6) if a == 0 or b == 0}
        assert projected == expected


class TestPerspective:
    def persp_problem(self, w_extra_con=False, w_in_obj=True):
        # min w  s.t.  x^2 <= z * w,  x in [0, 3], w in [0, 9], z binary
        cons = [QuadConstraint([(0, 0, 1.0), (1, 2, -1.0)], {}, 0.0)]
        if w_extra_con:
            cons.append(QuadConstraint([], {2: 1.0}, -9.0))
        d = np.array([0.0, 0.0, 1.0 if w_in_obj else 0.0])
        return Problem(
            n=3, terms_obj=[], d=d, c0=0.0, constraints=cons,
            lb=np.zeros(3), ub=np.array([3.0, 1.0, 9.0]),
            integrality=[VarKind.INTEGER, VarKind.BINARY, VarKind.CONTINUOUS],
        )

    def test_rewrite(self):
        out, records = reformulate_perspective(self.persp_problem())
        assert len(records) == 1
        assert out.n == 2  # w removed
        assert out.terms_obj == [(0, 0, 1.0)]  # min x^2
        activation = [c for c in out.constraints if c.tag == "perspective"]
        assert len(activation) == 1
        assert activation[0].b == {0: 1.0, 1: -3.0}

    def test_optima_agree_by_enumeration(self):
        # objective min w - x so the optimum is nontrivial
        base = self.persp_problem()
        base.d = np.array([-1.0, 0.0, 1.0])
        out, records = reformulate_perspective(base)
        assert records
        best_orig = np.inf
        for x in range(4):
            for z in (0, 1):
                for w in np.linspace(0, 9, 37):
                    if x * x <= z * w + 1e-12:
                        best_orig = min(best_orig, w - x)
        best_reform = brute_force(out).value
        assert best_reform == pytest.approx(best_orig, abs=1e-9)

    def test_w_elsewhere_untouched(self):
        out, records = reformulate_perspective(self.persp_problem(w_extra_con=True))
        assert records == []
        assert out.n == 3

    def test_w_absent_from_objective_untouched(self):
        out, records = reformulate_perspective(self.persp_problem(w_in_obj=False))
        assert records == []

    def test_positive_w_lower_bound_untouched(self):
        # w in [1, 9]: the rewrite maps x = 0 back to w = 0 < lb(w)
        base = replace(self.persp_problem(), lb=np.array([0.0, 0.0, 1.0]))
        _, records = reformulate_perspective(base)
        assert records == []
        before = brute_force(base, grid=33)
        after = brute_force(run_presolve(base).problem, grid=33)
        assert before.value == pytest.approx(1.0)
        assert after.value == pytest.approx(before.value)

    def test_integer_x_bound_rounds_down(self):
        # x^2 <= z*w <= 6.25 bounds integer x by 2.5, so by 2
        base = replace(self.persp_problem(), ub=np.array([3.0, 1.0, 6.25]))
        res = run_presolve(base)
        assert res.problem.n == 2
        mask = res.problem.integer_mask()
        for bound in (res.problem.lb, res.problem.ub):
            assert np.array_equal(bound[mask], np.round(bound[mask]))
        activation = [c for c in res.problem.constraints if c.tag == "perspective"]
        assert activation[0].b == {0: 1.0, 1: -2.0}


class TestEigen:
    def test_offdiagonal_pair(self):
        spec = eigen_symmetric(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert spec.eigenvalues == pytest.approx([-2.0, 2.0], abs=1e-10)

    def test_identity(self):
        spec = eigen_symmetric(np.eye(2))
        assert spec.eigenvalues == pytest.approx([1.0, 1.0])

    def test_diagonal_sorted(self):
        spec = eigen_symmetric(np.diag([3.0, -1.0, 0.0]))
        assert spec.eigenvalues == pytest.approx([-1.0, 0.0, 3.0])

    def test_rejects_nonsymmetric(self):
        with pytest.raises(PresolveError):
            eigen_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_and_numpy_agreement(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            q = rng.normal(size=(n, n))
            q = 0.5 * (q + q.T)
            spec = eigen_symmetric(q)
            recon = spec.rotation @ np.diag(spec.eigenvalues) @ spec.rotation.T
            fro = np.linalg.norm(q, "fro")
            assert np.linalg.norm(recon - q, "fro") <= 1e-8 * max(fro, 1.0)
            assert spec.eigenvalues == pytest.approx(np.linalg.eigvalsh(q), abs=1e-8)


class TestConvexify:
    def example_problem(self):
        # Q = [[0, 2], [2, 0]] means the single term 2 x0 x1
        return Problem(
            n=2, terms_obj=[(0, 1, 2.0)], d=np.zeros(2), c0=0.0, constraints=[],
            lb=np.zeros(2), ub=np.ones(2), integrality=[VarKind.BINARY] * 2,
        )

    def test_full_convexification_example(self):
        out, shift = convexify_binary(self.example_problem(), 1.0)
        assert shift == pytest.approx(2.0, abs=1e-9)
        q_mat = assemble_symmetric(2, out.terms_obj)
        assert q_mat == pytest.approx(np.array([[2.0, 2.0], [2.0, 2.0]]), abs=1e-9)
        assert out.d == pytest.approx([-1.0, -1.0], abs=1e-9)
        base = self.example_problem()
        for bits in itertools.product((0.0, 1.0), repeat=2):
            x = np.array(bits)
            assert eval_objective(out, x) == pytest.approx(eval_objective(base, x), abs=1e-12)

    def test_psd_unchanged(self):
        p = Problem(
            n=2, terms_obj=[(0, 0, 1.0), (1, 1, 1.0)], d=np.zeros(2), c0=0.0,
            constraints=[], lb=np.zeros(2), ub=np.ones(2),
            integrality=[VarKind.BINARY] * 2,
        )
        out, shift = convexify_binary(p, 1.0)
        assert shift == 0.0
        assert out.terms_obj == p.terms_obj

    def test_refuses_non_binary(self):
        p = Problem(
            n=1, terms_obj=[(0, 0, 1.0)], d=np.zeros(1), c0=0.0, constraints=[],
            lb=np.zeros(1), ub=2 * np.ones(1), integrality=[VarKind.INTEGER],
        )
        with pytest.raises(PresolveError):
            convexify_binary(p, 0.8)

    def test_spectrum_proportion(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            p = Problem(
                n=n, terms_obj=dense_terms(rng, n), d=rng.normal(size=n), c0=0.0,
                constraints=[], lb=np.zeros(n), ub=np.ones(n),
                integrality=[VarKind.BINARY] * n,
            )
            ell = float(rng.choice([0.0, 0.3, 0.6, 0.8, 1.0]))
            out, _ = convexify_binary(p, ell)
            lam = np.linalg.eigvalsh(assemble_symmetric(n, out.terms_obj))
            needed = int(np.ceil(ell * n - 1e-9))
            assert int(np.sum(lam >= -1e-8)) >= needed


class TestRunPresolve:
    def test_uncrush_roundtrip_with_both_transforms(self):
        # x0^2 <= x1 * x2 (perspective: z = x1, w = x2), x3 * x4 = 0
        p = Problem(
            n=5,
            terms_obj=[],
            d=np.array([-1.0, 0.0, 1.0, -1.0, -1.0]),
            c0=0.0,
            constraints=[
                QuadConstraint([(0, 0, 1.0), (1, 2, -1.0)], {}, 0.0),
                QuadConstraint([(3, 4, 1.0)], {}, 0.0, sense=Sense.EQ),
            ],
            lb=np.zeros(5),
            ub=np.array([3.0, 1.0, 9.0, 5.0, 5.0]),
            integrality=[VarKind.INTEGER, VarKind.BINARY, VarKind.CONTINUOUS,
                         VarKind.INTEGER, VarKind.INTEGER],
        )
        res = run_presolve(p)
        assert res.status == "ok"
        # w removed, aux binary appended: 5 - 1 + 1 variables
        assert res.problem.n == 5
        x_reform = np.array([2.0, 1.0, 3.0, 0.0, 1.0])
        x_orig = res.uncrush(x_reform)
        assert len(x_orig) == 5
        assert x_orig[0] == 2.0
        assert x_orig[2] == 4.0  # w = x^2
        assert x_orig[3] == 3.0 and x_orig[4] == 0.0

    def test_repair_aux_consistency(self):
        p = Problem(
            n=2, terms_obj=[], d=np.array([-1.0, -1.0]), c0=0.0,
            constraints=[QuadConstraint([(0, 1, 1.0)], {}, 0.0, sense=Sense.EQ)],
            lb=np.zeros(2), ub=np.array([5.0, 5.0]),
            integrality=[VarKind.INTEGER] * 2,
        )
        res = run_presolve(p)
        fixed = res.repair_aux(np.array([3.0, 0.0, 0.0]))
        assert fixed[2] == 1.0  # x0 > 0 forces z = 1
        fixed = res.repair_aux(np.array([0.0, 4.0, 1.0]))
        assert fixed[2] == 0.0

    def test_artificial_bounds_flagged(self):
        p = Problem(
            n=1, terms_obj=[], d=np.array([1.0]), c0=0.0, constraints=[],
            lb=np.array([-np.inf]), ub=np.array([np.inf]),
            integrality=[VarKind.CONTINUOUS],
        )
        res = run_presolve(p)
        assert res.artificial_lb.all() and res.artificial_ub.all()
        assert res.problem.bounds_finite()

    def test_only_replaced_bounds_are_artificial(self):
        # x1's bound of 1e5 is the instance's own, not presolve's
        p = Problem(
            n=2, terms_obj=[], d=np.array([1.0, -1.0]), c0=0.0, constraints=[],
            lb=np.array([-np.inf, 0.0]), ub=np.array([np.inf, 1e5]),
            integrality=[VarKind.CONTINUOUS, VarKind.CONTINUOUS],
        )
        res = run_presolve(p)
        assert not res.on_artificial_bound(np.array([1.0, 1e5]))
        assert res.on_artificial_bound(np.array([-1e5, 0.0]))
        assert res.on_artificial_bound(np.array([1e5, 1e5]))

    def test_reformulations_preserve_optimum(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            n = int(rng.integers(2, 4))
            lb = np.zeros(n)
            ub = rng.integers(1, 4, size=n).astype(float)
            cons = []
            if n >= 2 and rng.random() < 0.6:
                cons.append(QuadConstraint([(0, 1, 1.0)], {}, 0.0, sense=Sense.EQ))
            if rng.random() < 0.6:
                a = {int(k): float(rng.integers(1, 3)) for k in range(n)}
                cons.append(QuadConstraint([], a, -float(rng.integers(2, 8))))
            p = Problem(
                n=n, terms_obj=dense_terms(rng, n), d=rng.normal(size=n), c0=0.0,
                constraints=cons, lb=lb, ub=ub, integrality=[VarKind.INTEGER] * n,
            )
            before = brute_force(p)
            res = run_presolve(p)
            if res.status == "infeasible":
                assert not before.feasible
                continue
            after = brute_force(res.problem)
            if before.feasible:
                assert after.feasible
                assert after.value == pytest.approx(before.value, abs=1e-8)
                # reformulated optimum maps back to an original-feasible point
                x_orig = res.uncrush(after.point)
                assert eval_objective(p, x_orig) == pytest.approx(before.value, abs=1e-8)
            else:
                assert not after.feasible


def map_instance(rng: np.random.Generator):
    """Random instance with 0-2 perspective rows ``x^2 <= z*w`` and 0-3
    complementarities ``x_i * x_j = 0`` on shuffled variable indices, and
    an original-feasible point of it with ``w = x^2``."""
    n_persp, n_comp, n_free = (int(rng.integers(0, k)) for k in (3, 4, 3))
    n = 3 * n_persp + 2 * n_comp + n_free
    slots = iter(int(k) for k in rng.permutation(n))
    lb, ub, d = np.zeros(n), np.zeros(n), rng.normal(size=n)
    kinds = [VarKind.CONTINUOUS] * n
    point = np.zeros(n)
    cons = []
    for _ in range(n_persp):
        x, z, w = next(slots), next(slots), next(slots)
        kinds[x], kinds[z] = VarKind.INTEGER, VarKind.BINARY
        ub[x], ub[z], ub[w] = float(rng.integers(1, 4)), 1.0, float(rng.uniform(1.0, 10.0))
        d[w] = float(rng.uniform(0.5, 2.0))
        cons.append(QuadConstraint([(x, x, 1.0), (min(z, w), max(z, w), -1.0)], {}, 0.0))
        point[x] = float(rng.integers(0, min(ub[x], math.floor(math.sqrt(ub[w]))) + 1))
        point[z] = 1.0 if point[x] > 0 else float(rng.integers(0, 2))
        point[w] = point[x] ** 2
    for _ in range(n_comp):
        i, j = sorted((next(slots), next(slots)))
        for k in (i, j):
            kinds[k] = VarKind.INTEGER if rng.random() < 0.5 else VarKind.CONTINUOUS
            ub[k] = float(rng.integers(1, 5))
        cons.append(QuadConstraint([(i, j, 1.0)], {}, 0.0, sense=Sense.EQ))
        k = (i, j, None)[int(rng.integers(0, 3))]  # the positive member, if any
        if k is not None:
            point[k] = float(rng.integers(1, ub[k] + 1))
    for k in slots:
        kinds[k] = VarKind.INTEGER
        ub[k] = 3.0
        point[k] = float(rng.integers(0, 4))
    problem = Problem(n=n, terms_obj=[], d=d, c0=0.0, constraints=cons,
                      lb=lb, ub=ub, integrality=kinds)
    return problem, point, n_persp, n_comp


class TestPresolveMap:
    @staticmethod
    def presolved():
        """Each seeded instance with its feasible point, and its presolve."""
        for seed in range(40):
            problem, point, n_persp, n_comp = map_instance(np.random.default_rng(seed))
            assert check_feasibility(problem, point).feasible
            res = run_presolve(problem)
            assert res.status == "ok"
            assert len(res.epigraph_w) == n_persp and len(res.complementarity) == n_comp
            yield seed, problem, point, res

    @staticmethod
    def forward(res, point):
        """The reformulated point of an original one: w dropped, each
        complementarity binary set from its pair."""
        y = np.empty(res.problem.n)
        y[:len(res.kept)] = point[res.kept]
        for i, j, z in res.complementarity:
            y[z] = 1.0 if y[i] > 0 else 0.0
        return y

    def test_kept_and_epigraphs_partition_the_original(self):
        for _, problem, _, res in self.presolved():
            both = np.concatenate([res.kept, res.epigraph_w])
            assert np.array_equal(np.sort(both), np.arange(problem.n))

    def test_uncrush_inverts_the_forward_map(self):
        for _, _, point, res in self.presolved():
            y = self.forward(res, point)
            assert check_feasibility(res.problem, y).feasible
            assert np.array_equal(res.uncrush(y), point)

    def test_repair_aux_meets_the_indicator_rows(self):
        for seed, _, point, res in self.presolved():
            y = self.forward(res, point)
            zs = [z for (_, _, z) in res.complementarity]
            y[zs] = np.random.default_rng(seed).uniform(0.0, 1.0, size=len(zs))
            fixed = res.repair_aux(y)
            assert np.array_equal(np.delete(fixed, zs), np.delete(y, zs))
            for i, j, z in res.complementarity:
                if (y[i] > 0) == (y[j] > 0):
                    continue
                rows = [c for c in res.problem.constraints
                        if c.tag == "indicator" and z in c.b]
                assert len(rows) == 2
                for row in rows:
                    assert sum(v * fixed[k] for k, v in row.b.items()) + row.c <= 1e-9
