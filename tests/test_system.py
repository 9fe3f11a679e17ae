"""Control-theoretic calculus: Jacobians, the matrix recursion, minors,
and coefficient ideals."""

import random
from fractions import Fraction

import numpy as np
import pytest

from accesskit import (
    Ideal,
    RationalFunction,
    SystemModel,
    VariableRegistry,
    build_M,
    jacobians,
    numeric_access_matrix,
    parse_system,
    submersivity_check,
    symbolic_rank,
    to_system_model,
)
from accesskit.analysis import _step_ideal
from accesskit.oracle import finite_difference_jacobian
from accesskit.system import minor_determinants


def _v(sys):
    return {n: RationalFunction(sys.reg.var(n)) for n in sys.reg.names()}


class TestJacobians:
    def test_coil(self, coil):
        v = _v(coil)
        A, B = jacobians(coil)
        one = RationalFunction(coil.reg.one())
        assert A[0][0] == one
        assert A[0][1] == v["T"]
        assert A[1][0] == v["a"] * v["T"] * v["u"]
        assert A[1][1] == one - v["b"] * v["T"]
        assert B[0][0].is_zero
        assert B[1][0] == v["a"] * v["T"] * v["x1"]

    def test_drift(self, drift):
        A, B = jacobians(drift)
        vals = [[str(e) for e in row] for row in A]
        assert vals == [["0", "0"], ["0", "1"]]
        assert [[str(e) for e in row] for row in B] == [["1"], ["0"]]

    def test_fivestep_input_column(self, fivestep):
        v = _v(fivestep)
        _A, B = jacobians(fivestep)
        assert B[0][0].is_zero
        assert B[1][0] == v["x2"] ** 2 - v["x2"]

    def test_computed_once_and_read_only(self, coil):
        A, B = jacobians(coil)
        assert jacobians(coil) is jacobians(coil)
        with pytest.raises(TypeError):
            A[0][0] = B[0][0]
        with pytest.raises(AttributeError):
            B[0].append(A[0][0])


class TestBuildM:
    def test_base_case_is_input_jacobian(self, coil, rational2d, drift):
        for sys in (coil, rational2d, drift):
            M = build_M(sys, 1)
            _A, B = jacobians(sys)
            assert M[0][0] == B[0][0]
            assert M[1][0] == B[1][0]

    def test_dimension_law(self, coil, rational2d):
        for sys in (coil, rational2d):
            for k in range(1, 5):
                M = build_M(sys, k)
                assert len(M) == sys.n
                assert all(len(row) == k * sys.m for row in M)

    def test_entries_live_in_the_horizon_k_registry(
        self, coil, coil_reversed, rational2d, fivestep
    ):
        # the minors of M_k and det A<k-1> are taken without lifting
        for sys in (coil, coil_reversed, rational2d, fivestep):
            for k in range(1, 5):
                reg = sys.reg.with_horizon(k)
                entries = [e for row in build_M(sys, k) for e in row]
                if k > 1:
                    entries += [e for row in sys._cache["walk"][k - 1].A for e in row]
                for e in entries:
                    assert e.num.reg == reg and e.den.reg == reg, (sys.name, k)

    def test_fivestep_rank_two_at_horizon_five(self, fivestep):
        # at (0,1) with generic inputs the five-step matrix reaches rank 2
        M = numeric_access_matrix(
            fivestep, (0, 1), [[0.3], [0.7], [-0.4], [0.9], [0.2]]
        )
        sv = np.linalg.svd(M, compute_uv=False)
        assert int(np.sum(sv > 1e-8 * sv[0])) == 2

    def test_chain_rule_against_finite_differences(self, coil, rational2d, fivestep):
        rng = random.Random(31)
        corpus = [
            (coil, {"T": Fraction(1, 10), "a": Fraction(2), "b": Fraction(3)}),
            (rational2d, {}),
            (fivestep, {}),
        ]
        pairs = 0
        while pairs < 50:
            sys, binds = corpus[pairs % len(corpus)]
            bound = sys.bind_params(binds) if binds else sys
            k = rng.randint(1, 4)
            x0 = [rng.uniform(-1.5, 1.5) for _ in range(sys.n)]
            us = [
                [rng.uniform(-1, 1) for _ in range(sys.m)] for _ in range(k)
            ]
            try:
                M = numeric_access_matrix(bound, x0, us)
                F = finite_difference_jacobian(bound, x0, us)
            except Exception:
                continue  # pole near the sample; draw again
            scale = max(1.0, float(np.max(np.abs(M))))
            assert float(np.max(np.abs(M - F))) / scale < 1e-5
            pairs += 1


def _fraction_det(rows):
    """Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * a * _fraction_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, a in enumerate(rows[0])
    )


def _assert_minors_at(sys, k, point):
    """Each n x n minor of M_k, evaluated at the point, equals the Fraction
    determinant of the evaluated submatrix."""
    at = lambda f: f.evaluate({n: point[n] for n in f.reg.names()})
    M = [[at(e) for e in row] for row in build_M(sys, k)]
    for colset, det in minor_determinants(sys, k).items():
        assert at(det) == _fraction_det([[row[j] for j in colset] for row in M])


class TestMinors:
    def test_coil_step2_ideal(self, coil):
        I = _step_ideal(coil, 2)
        reg = I.reg
        x1, x2, T = reg.var("x1"), reg.var("x2"), reg.var("T")
        assert I.equal(Ideal(reg, [x1 * (x1 + T * x2)]))

    def test_rational2d_step2_ideal(self, rational2d):
        I = _step_ideal(rational2d, 2)
        reg = I.reg
        x1, x2 = reg.var("x1"), reg.var("x2")
        assert I.equal(Ideal(reg, [x2 * (x1 + x2)]))

    def test_square_matrix_single_minor(self, coil):
        # k*m = n = 2
        assert list(minor_determinants(coil, 2)) == [(0, 1)]

    def test_minor_count_and_values(self, rational2d):
        from itertools import combinations
        from math import comb

        dets = minor_determinants(rational2d, 3)
        assert list(dets) == list(combinations(range(3), 2))
        assert len(dets) == comb(3, 2)
        # minors inside the first two columns come from det A<2> times a
        # minor of M_2; each must equal the determinant of its submatrix
        point = {"x1": Fraction(2), "x2": Fraction(-3), "u": Fraction(1, 3),
                 "u(1)": Fraction(5), "u(2)": Fraction(-7, 2)}
        _assert_minors_at(rational2d, 3, point)
        # three states whose columns mix denominators: the determinant
        # clears each row's denominators instead of each column's
        mixed = to_system_model(parse_system(
            "system mixed\nstates x1 x2 x3\ninputs u1 u2 u3\n"
            "x1' = x1 + u1/(x2 + 2)\n"
            "x2' = x2 + u2/(x3 + 3) + u1*x1\n"
            "x3' = x3 + u3*x1/(x1 - 1) + u2\n"
        ))
        assert list(minor_determinants(mixed, 1)) == [(0, 1, 2)]
        point = {"x1": Fraction(3), "x2": Fraction(-1, 2), "x3": Fraction(4),
                 "u1": Fraction(1), "u2": Fraction(-2), "u3": Fraction(5, 3)}
        _assert_minors_at(mixed, 1, point)

    def test_zero_matrix_zero_ideal(self, drift):
        # drift's second state never sees the input: step-2 minors vanish
        assert _step_ideal(drift, 2).is_zero_ideal


class TestSymbolicRank:
    def test_full_rank_generic(self, coil):
        assert symbolic_rank(build_M(coil, 2)) == 2

    def test_rank_deficient_chain(self, drift):
        # generic rank stays below 2 at every horizon (stopping property)
        for k in range(2, 6):
            assert symbolic_rank(build_M(drift, k)) < 2


class TestSubmersivity:
    def test_corpus_positive(self, coil, rational2d, fivestep, drift, integrator):
        for sys in (coil, rational2d, fivestep, drift, integrator):
            assert submersivity_check(sys)

    def test_degenerate_map(self):
        reg = VariableRegistry(("x1", "x2"), ("u",), (), 1)
        x1 = RationalFunction(reg.var("x1"))
        sys = SystemModel(("x1", "x2"), ("u",), [x1, x1], (), "flat")
        assert not submersivity_check(sys)
