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


def symbols(reg):
    return [sympy.Symbol(n) for n in reg.names()]


def to_sympy(p):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**k for s, k in zip(symbols(p.reg), e)))
            for e, c in p.terms.items()
        )
    )


def from_sympy(q, reg=REG):
    terms = sympy.Poly(q, *symbols(reg)).terms()
    return reg.zero() + ring.Polynomial(
        reg, {e: Fraction(int(c.p), int(c.q)) for e, c in terms}
    )


def random_poly(rng, terms=3, deg=3, coeff=6, over=None):
    """A random polynomial with rational coefficients over the variables
    named in ``over`` (default: every variable)."""
    positions = [REG.index(n) for n in over] if over else range(REG.arity)
    out = {}
    for _ in range(terms):
        e = [0] * REG.arity
        for _ in range(rng.randint(1, deg)):
            e[rng.choice(positions)] += 1
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
    return from_sympy(sympy.gcd(to_sympy(f), to_sympy(g)), f.reg).primitive()[0]


def fresh_gcd(monkeypatch, f, g):
    """poly_gcd with an empty cache, so the pair is really computed."""
    monkeypatch.setattr(ring, "_GCD_CACHE", {})
    return poly_gcd(f, g)


@pytest.fixture(params=["default", "prs"])
def path(request, monkeypatch):
    """The gcd path under test: "prs" turns the divisor test, the content
    fold, the coprimality certificate and GCDHEU off, so every nontrivial
    gcd goes through `_prs_gcd`; the test ends by checking that it ran."""
    if request.param == "default":
        yield request.param
        return
    calls = []
    prs = ring._prs_gcd

    def counting(f, g):
        calls.append(1)
        return prs(f, g)

    monkeypatch.setattr(ring, "_smaller_operand_gcd", lambda f, g: None)
    monkeypatch.setattr(ring, "_coprime", lambda f, g: False)
    monkeypatch.setattr(ring, "_heu_gcd", lambda reg, f, g: None)
    monkeypatch.setattr(ring, "_prs_gcd", counting)
    yield request.param
    assert calls


class TestGcdAgainstSympy:
    def test_coprime_pairs_sharing_every_variable(self, monkeypatch, path):
        rng = random.Random(101)
        proven = 0
        for _ in range(40):
            f = full_support(rng, terms=5)
            g = full_support(rng, terms=5)
            want = sympy_gcd(f, g)
            assert fresh_gcd(monkeypatch, f, g) == want
            if want.is_constant:
                proven += _coprime(_int_scale(f), _int_scale(g))
        if path == "default":
            # the certificate, not GCDHEU, settles nearly all of them
            assert proven >= 35

    def test_pairs_with_a_common_factor(self, monkeypatch, path):
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

    def test_pairs_with_monomial_content(self, monkeypatch, path):
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

    def test_remainder_sequences_in_the_main_variable(self, monkeypatch, path):
        # u, the last variable, is the PRS's main variable; the contents in
        # u are free of it, so their own gcds run in other variables.
        main = REG.index("u")
        rems = []
        pseudo_rem = ring._pseudo_rem

        def recording(f, g, i):
            r = pseudo_rem(f, g, i)
            if i == main:
                rems.append(r)
            return r

        monkeypatch.setattr(ring, "_pseudo_rem", recording)
        x, y, z, u = (REG.var(n) for n in ("x", "y", "z", "u"))
        h = (x + 1) * u + y
        # divisors with leading coefficients y, 2x - 1, ... in u; ends in 0
        f, g = h * (y * u**3 + x * u + 2), h * ((2 * x - 1) * u**2 + y * u - 3)
        assert fresh_gcd(monkeypatch, f, g) == h == sympy_gcd(f, g)
        if path == "prs":
            assert len(rems) >= 3 and rems[-1].is_zero
        # primitive parts z*u^2 + x and y*u + 1 leave z + x*y^2, free of u;
        # the contents in u share x + y
        rems.clear()
        f, g = (x + y) * (z * u**2 + x), (x + y) * (x - 2) * (y * u + 1)
        assert fresh_gcd(monkeypatch, f, g) == x + y == sympy_gcd(f, g)
        if path == "prs":
            assert not rems[-1].is_zero and not rems[-1].degree_in(main)


def coil_reversed_pair():
    """A pair GCDHEU gives up on, met by the `coil_reversed` replays in the
    parameters T, a, b, and its gcd."""
    reg = VariableRegistry(("z1", "z2"), ("v",), ("T", "a", "b"), 1)
    T, a, b = (reg.var(n) for n in ("T", "a", "b"))
    f = a**3 * (
        -2 * T**10 * b**5 + 13 * T**9 * b**4 - 34 * T**8 * b**3
        + 45 * T**7 * b**2 - 30 * T**6 * b + 8 * T**5
    )
    g = a**3 * (
        -2 * T**10 * b**4 + 13 * T**9 * b**3 - 33 * T**8 * b**2 + 40 * T**7 * b
        - 20 * T**6
    )
    return f, g, T**6 * a**3 * b - 2 * T**5 * a**3


def test_a_pair_gcdheu_gives_up_on_reaches_the_prs(monkeypatch):
    f, g, want = coil_reversed_pair()
    assert ring._heu_gcd(f.reg, _int_scale(f), _int_scale(g)) is None
    fs, gs = (ring._strip_monomial(p)[1] for p in (f, g))
    assert ring._heu_gcd(f.reg, _int_scale(fs), _int_scale(gs)) is None
    calls = []
    prs = ring._prs_gcd

    def counting(f, g):
        calls.append(1)
        return prs(f, g)

    monkeypatch.setattr(ring, "_prs_gcd", counting)
    assert fresh_gcd(monkeypatch, f, g) == want == sympy_gcd(f, g)
    assert calls


def det_shape():
    """A column division of `_det_rational`: a product of shifted input
    denominators and a determinant numerator over states and inputs that
    holds one of its factors."""
    reg = VariableRegistry(("x", "y"), ("u",), (), 2)
    x, y, u, u1 = (reg.var(n) for n in ("x", "y", "u", "u(1)"))
    den = (8 * u - 7) * (8 * u1 - 7)
    return reg, den, (8 * u - 7) * (x * y + 2 * x - 5), 8 * u - 7


class TestSmallerOperandRules:
    """The divisor test and the content fold answer before GCDHEU."""

    def test_one_operand_divides_the_other(self, monkeypatch, path):
        rng = random.Random(107)
        for _ in range(30):
            f = nonconstant(rng, terms=rng.randint(1, 3), deg=2)
            g = f * nonconstant(rng) * Fraction(rng.randint(1, 5), rng.randint(1, 4))
            want = sympy_gcd(f, g)
            assert want == f.primitive()[0]
            assert fresh_gcd(monkeypatch, f, g) == want
            assert fresh_gcd(monkeypatch, g, f) == want

    def test_variables_only_one_operand_uses(self, monkeypatch, path):
        rng = random.Random(108)
        for _ in range(30):
            c = random_poly(rng, terms=2, deg=2, over=("y", "u"))
            if c.is_zero:
                continue
            f = c * nonconstant(rng, over=("x", "y", "u"))
            g = c * nonconstant(rng, over=("y", "z", "u", "T"))
            assert fresh_gcd(monkeypatch, f, g) == sympy_gcd(f, g)
            assert fresh_gcd(monkeypatch, g, f) == sympy_gcd(f, g)

    def test_partial_cancellation_of_a_column_division(self, monkeypatch, path):
        reg, den, num, common = det_shape()
        assert fresh_gcd(monkeypatch, num, den) == common == sympy_gcd(num, den)
        rng = random.Random(109)
        x, y, u, u1 = (reg.var(n) for n in ("x", "y", "u", "u(1)"))
        for _ in range(10):
            cof = sum(
                (rng.randint(-4, 4) * m for m in (x, y * u, x * u1, u, reg.one())),
                reg.zero(),
            )
            num = common * cof
            if num.is_zero:
                continue
            want = sympy_gcd(num, den)
            assert fresh_gcd(monkeypatch, num, den) == want
            assert fresh_gcd(monkeypatch, den, num) == want
            assert not want.is_constant

    def test_neither_pair_reaches_gcdheu(self, monkeypatch):
        calls = []
        heu = ring._heu_gcd

        def counting(reg, f, g):
            calls.append(1)
            return heu(reg, f, g)

        monkeypatch.setattr(ring, "_heu_gcd", counting)
        x, y, z, u = (REG.var(n) for n in ("x", "y", "z", "u"))
        f = x + y - 2
        assert fresh_gcd(monkeypatch, f * (x * z - u + 3) * Fraction(1, 4), 2 * f) == f
        _, den, num, common = det_shape()
        assert fresh_gcd(monkeypatch, num, den) == common
        assert not calls


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


def test_gcd_with_a_monomial_or_a_constant(monkeypatch):
    # a monomial strips to a constant core, which shares no variable
    monkeypatch.setattr(ring, "_GCD_CACHE", {})
    x, y = REG.var("x"), REG.var("y")
    assert poly_gcd(x**2 * y, REG.const(3)) == REG.one()
    assert poly_gcd(x**2 * y, x * y**2) == x * y
    assert poly_gcd(2 * x**2 * y, 4 * x * y + 4 * x) == x


def test_cached_gcd_stays_in_the_callers_registry(monkeypatch):
    # the same pair at horizons 1 and 0 are equal cache keys but for the
    # horizon: a hit must not hand back the other registry's gcd
    monkeypatch.setattr(ring, "_GCD_CACHE", {})
    r1 = VariableRegistry(("x", "y"), ("u",), (), 1)
    for reg in (r1, r1.with_horizon(0), r1.with_horizon(2)):
        x, y = reg.var("x"), reg.var("y")
        assert poly_gcd((x + y) * x, (x + y) * y).reg == reg
