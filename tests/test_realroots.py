"""Exact real roots: one Sturm path for rational and irrational roots,
checked against sympy's `real_roots`."""

import random
from fractions import Fraction

import pytest

from accesskit import realroots
from accesskit.realroots import RootBox, _root_bound, real_roots
from accesskit.ring import VariableRegistry

WIDTH = Fraction(1, 2**48)
REG = VariableRegistry(("x", "y"))
X = REG.var("x")


def _poly(coeffs):
    """The polynomial in x with these coefficients, constant term first."""
    return sum((Fraction(c) * X**k for k, c in enumerate(coeffs)), REG.zero())


def _random_factor(sympy, x, rng):
    kind = rng.random()
    if kind < 0.4:  # rational root, numerator and denominator up to 10^13
        return rng.randint(1, 9) * x - rng.randint(-(10 ** rng.randint(0, 13)), 10**13)
    if kind < 0.7:  # two irrational, two rational or no real roots
        return x**2 - rng.randint(-5, 50)
    if kind < 0.85:  # an x^k factor
        return x
    return x**3 - rng.randint(1, 9) * x + sympy.Rational(rng.randint(-9, 9), rng.randint(1, 5))


class TestAgainstSympy:
    def test_seeded_polynomials(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(8)
        for _ in range(60):
            p = sympy.Integer(rng.choice([1, -3, 7, 10**13]))
            for _ in range(rng.randint(1, 3)):
                p *= _random_factor(sympy, x, rng) ** rng.randint(1, 3)
            poly = sympy.Poly(p, x)
            coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
            got = real_roots(_poly(coeffs))
            want = sorted(set(sympy.real_roots(poly)), key=lambda r: r.evalf(60))
            assert len(got) == len(want), (poly, got, want)
            for g, w in zip(got, want):
                if w.is_rational:
                    assert g == Fraction(int(w.p), int(w.q)), (poly, g, w)
                    continue
                assert isinstance(g, RootBox), (poly, g, w)
                assert g.hi - g.lo <= WIDTH
                lo, hi = (sympy.Rational(v.numerator, v.denominator) for v in (g.lo, g.hi))
                assert lo < w < hi, (poly, g, w)


class TestRealRoots:
    def test_nonzero_constant_has_no_roots(self):
        assert real_roots(_poly([3])) == []

    def test_large_rational_root(self):
        assert real_roots(_poly([-(10**12 + 39), 1])) == [Fraction(10**12 + 39)]
        big = [10**12 + 39, -(10**12 + 40), 1]  # (x - 1)(x - 10^12 - 39)
        assert real_roots(_poly(big)) == [Fraction(1), Fraction(10**12 + 39)]

    def test_rational_root_with_large_denominator(self):
        # (3x - 1)(10^13 x - 7): denominators 3 and 10^13
        coeffs = [7, -(3 * 7 + 10**13), 3 * 10**13]
        assert real_roots(_poly(coeffs)) == [Fraction(7, 10**13), Fraction(1, 3)]

    def test_multiple_and_zero_roots(self, monkeypatch):
        # x^3 (x - 1/2)^2 (x + 2): the first bisection meets the root 0,
        # which is divided out exactly
        divisions, exact = [], realroots.divexact

        def divexact(p, d):
            q = exact(p, d)
            divisions.append((p, d, q))
            return q

        monkeypatch.setattr(realroots, "divexact", divexact)
        coeffs = [0, 0, 0, Fraction(1, 2), Fraction(-7, 4), 1, 1]
        assert real_roots(_poly(coeffs)) == [Fraction(-2), Fraction(0), Fraction(1, 2)]
        ((p, d, q),) = divisions
        assert d == X and q * d == p == X * (2 * X - 1) * (X + 2)

    def test_irrational_roots_are_narrow_boxes(self):
        roots = real_roots(_poly([-2, 0, 1]))
        assert len(roots) == 2
        for box, sign in zip(roots, (-1, 1)):
            assert isinstance(box, RootBox)
            assert box.hi - box.lo <= WIDTH
            assert sign * box.lo > 0
            assert (box.lo**2 - 2) * (box.hi**2 - 2) < 0

    def test_constant_and_zero(self):
        assert real_roots(_poly([5])) == []
        assert real_roots(_poly([1, 0, 1])) == []
        with pytest.raises(ValueError):
            real_roots(_poly([0, 0]))
        with pytest.raises(ValueError):
            real_roots(X * REG.var("y") - 1)

    def test_bound_is_a_power_of_two_above_every_root(self):
        for coeffs, top in (([-1, 1], 1), ([2**20, 1], 2**20), ([-2, 0, 1], 2)):
            b = _root_bound([Fraction(c) for c in coeffs])
            assert b > top and b.denominator == 1
            assert b.numerator & (b.numerator - 1) == 0
