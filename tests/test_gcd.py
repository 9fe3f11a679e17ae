"""Exact gcd and exact division against sympy on seeded random polynomials,
and the two ways the coprimality certificate declines to prove anything."""

import random
from fractions import Fraction

import pytest

from accesskit import VariableRegistry, poly_gcd
from accesskit import ring
from accesskit.errors import ExactDivisionError
from accesskit.ring import _coprime, _divides_int, _int_scale, divexact

sympy = pytest.importorskip("sympy")

REG = VariableRegistry(("x", "y", "z"), ("u",), ("T",), 1)
NAMES = REG.names()
SYMS = sympy.symbols(NAMES)


def to_sympy(p):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**k for s, k in zip(SYMS, e)))
            for e, c in p.terms.items()
        )
    )


def from_sympy(q):
    terms = sympy.Poly(q, *SYMS).terms()
    return REG.zero() + ring.Polynomial(
        REG, {e: Fraction(int(c.p), int(c.q)) for e, c in terms}
    )


def random_poly(rng, terms=3, deg=3, coeff=6):
    """A random polynomial with rational coefficients over every variable."""
    out = {}
    for _ in range(terms):
        e = [0] * REG.arity
        for _ in range(rng.randint(1, deg)):
            e[rng.randrange(REG.arity)] += 1
        out[tuple(e)] = Fraction(rng.randint(-coeff, coeff), rng.randint(1, 3))
    return ring.Polynomial(REG, out)


def full_support(rng, **kw):
    """A random polynomial that uses every variable."""
    while True:
        p = random_poly(rng, **kw)
        if len(p.variables_used()) == REG.arity:
            return p


def nonconstant(rng, **kw):
    while True:
        p = random_poly(rng, **kw)
        if not p.is_constant:
            return p


def sympy_gcd(f, g):
    return from_sympy(sympy.gcd(to_sympy(f), to_sympy(g))).primitive()[0]


def fresh_gcd(monkeypatch, f, g):
    """poly_gcd with an empty cache, so the pair is really computed."""
    monkeypatch.setattr(ring, "_GCD_CACHE", {})
    return poly_gcd(f, g)


class TestGcdAgainstSympy:
    def test_coprime_pairs_sharing_every_variable(self, monkeypatch):
        rng = random.Random(101)
        proven = 0
        for _ in range(40):
            f = full_support(rng, terms=5)
            g = full_support(rng, terms=5)
            want = sympy_gcd(f, g)
            assert fresh_gcd(monkeypatch, f, g) == want
            if want.is_constant:
                proven += _coprime(_int_scale(f), _int_scale(g))
        # the certificate, not GCDHEU, settles nearly all of them
        assert proven >= 35

    def test_pairs_with_a_common_factor(self, monkeypatch):
        rng = random.Random(102)
        for _ in range(40):
            c = nonconstant(rng, terms=2, deg=2)
            f = random_poly(rng) * c
            g = random_poly(rng) * c
            if f.is_zero or g.is_zero:
                continue
            h = fresh_gcd(monkeypatch, f, g)
            assert h == sympy_gcd(f, g)
            assert not h.is_constant
            assert not _coprime(_int_scale(f), _int_scale(g))

    def test_pairs_with_monomial_content(self, monkeypatch):
        rng = random.Random(103)
        for _ in range(40):
            f = random_poly(rng) * REG.monomial(
                tuple(rng.randint(0, 2) for _ in range(REG.arity))
            )
            g = random_poly(rng) * REG.monomial(
                tuple(rng.randint(0, 2) for _ in range(REG.arity))
            )
            if rng.random() < 0.5:
                c = nonconstant(rng, terms=2, deg=1)
                f, g = f * c, g * c
            if f.is_zero or g.is_zero:
                continue
            assert fresh_gcd(monkeypatch, f, g) == sympy_gcd(f, g)


class TestDivexactAgainstSympy:
    def test_exact_quotients(self):
        rng = random.Random(104)
        for _ in range(60):
            a = random_poly(rng, terms=4)
            d = nonconstant(rng, terms=rng.randint(1, 3))
            if a.is_zero:
                continue
            q, r = sympy.div(to_sympy(a * d), to_sympy(d), *SYMS)
            assert r == 0
            assert divexact(a * d, d) == from_sympy(q) == a

    def test_inexact_pairs_raise(self):
        rng = random.Random(105)
        seen = 0
        for _ in range(60):
            p = nonconstant(rng, terms=4)
            d = nonconstant(rng, terms=rng.randint(1, 3))
            _, r = sympy.div(to_sympy(p), to_sympy(d), *SYMS)
            if r == 0:
                continue
            seen += 1
            with pytest.raises(ExactDivisionError):
                divexact(p, d)
        assert seen >= 50

    def test_degree_box_stops_the_lex_division(self):
        # lex division of x^5 by x - y^10 would walk x^4*y^10, x^3*y^20, ...
        # the quotient's y-degree is bounded by deg_y x^5 - deg_y d < 0
        x, y = REG.var("x"), REG.var("y")
        with pytest.raises(ExactDivisionError):
            divexact(x**5, x - y**10)
        assert not _divides_int(_int_scale(x - y**10), _int_scale(x**5))

    def test_integer_division_test(self):
        # _divides_int is exact division over Z: the quotient must exist
        # and have integer coefficients
        rng = random.Random(106)
        for _ in range(80):
            p = _int_scale(nonconstant(rng, terms=4))
            d = _int_scale(nonconstant(rng, terms=rng.randint(1, 2)))
            if rng.random() < 0.5:
                p = _int_scale(ring.Polynomial(REG, p) * ring.Polynomial(REG, d))
            sp = to_sympy(ring.Polynomial(REG, p))
            sd = to_sympy(ring.Polynomial(REG, d))
            q, r = sympy.div(sp, sd, *SYMS)
            want = r == 0 and all(
                c.is_integer for c in sympy.Poly(q, *SYMS).coeffs()
            )
            assert _divides_int(d, p) == want
        # a single-term candidate: every term, coefficients included
        x, y = REG.var("x"), REG.var("y")
        two_x = _int_scale(2 * x)
        assert _divides_int(two_x, _int_scale(4 * x**2))
        assert not _divides_int(two_x, _int_scale(3 * x**2))
        assert not _divides_int(two_x, _int_scale(2 * x + 2))
        assert not _divides_int(_int_scale(y), _int_scale(x * y + x))


class TestCoprimeDeclines:
    """`_coprime` proves nothing at a bad point; `poly_gcd` stays exact."""

    def point(self, monkeypatch, **values):
        point = [7] * REG.arity
        for name, v in values.items():
            point[REG.index(name)] = v
        monkeypatch.setattr(ring, "_coprime_point", lambda n: point[:n])

    def test_vanishing_leading_coefficient(self, monkeypatch):
        x, y = REG.var("x"), REG.var("y")
        f = (y - 3) * x + 1
        g = (y - 3) * x**2 + 2 * y
        self.point(monkeypatch, y=3)
        assert not _coprime(_int_scale(f), _int_scale(g))
        assert fresh_gcd(monkeypatch, f, g) == REG.one() == sympy_gcd(f, g)
        self.point(monkeypatch, y=4)
        assert _coprime(_int_scale(f), _int_scale(g))

    def test_images_share_a_factor(self, monkeypatch):
        x, y = REG.var("x"), REG.var("y")
        f = x - y
        g = x**2 - 9 + (y - 3) * x * y
        self.point(monkeypatch, y=3)  # images x - 3 and x^2 - 9
        assert not _coprime(_int_scale(f), _int_scale(g))
        assert fresh_gcd(monkeypatch, f, g) == REG.one() == sympy_gcd(f, g)
        self.point(monkeypatch, y=5)
        assert _coprime(_int_scale(f), _int_scale(g))
