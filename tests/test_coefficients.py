"""Coefficient representation: an integral coefficient is stored as an int,
any other as a Fraction, a float is refused (as a coefficient, a parameter
value or a point coordinate), and the two forms of an integral value are
interchangeable."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from accesskit import (
    Polynomial,
    RationalFunction,
    VariableRegistry,
    algorithm2,
    build_M,
    parse_system,
    point_status,
    poly_gcd,
    to_system_model,
)
from accesskit import ring
from accesskit.ring import divexact
from conftest import SYSTEMS

REG = VariableRegistry(("x", "y", "z"))
SYMS = sympy.symbols("x y z")


def _bad_coefficients(p):
    """Coefficients of p not in term-map form (an int, or a Fraction with
    denominator > 1)."""
    return [
        c
        for c in p.terms.values()
        if not (type(c) is int or (type(c) is Fraction and c.denominator > 1))
    ]


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
    return Polynomial(REG, {e: Fraction(int(c.p), int(c.q)) for e, c in terms})


class TestFloatsRefused:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Polynomial(REG, {(1, 0, 0): 0.1}),
            lambda: REG.const(0.1),
            lambda: REG.monomial((0, 1, 0), 0.5),
            lambda: REG.var("x") * 0.5,
            lambda: REG.var("x") + 0.5,
        ],
    )
    def test_float_coefficient_raises(self, build):
        with pytest.raises(TypeError):
            build()

    def test_float_parameter_value_raises(self, coil):
        with pytest.raises(TypeError, match="float"):
            coil.bind_params({"T": 0.1, "a": 1, "b": 2})
        bound = coil.bind_params({"T": Fraction(1, 10), "a": 1, "b": 2})
        assert bound.params == ()

    def test_float_point_coordinate_raises(self, fivestep):
        with pytest.raises(TypeError, match="float"):
            point_status(fivestep, (0.1, 0), 2)
        assert point_status(fivestep, (Fraction(1, 10), 0), 2).point == (
            Fraction(1, 10),
            Fraction(0),
        )

    def test_exact_inverse_of_int_coefficient(self):
        p = REG.var("x") * 3
        (c,) = p.terms.values()
        assert type(c) is int
        assert (p * Fraction(1, c)).terms == REG.var("x").terms


CORPUS = sorted(
    f for f in SYSTEMS.glob("*.sys") if not parse_system(f.read_text()).numeric_only
)


@pytest.mark.parametrize("path", CORPUS, ids=[f.stem for f in CORPUS])
def test_corpus_coefficients_in_term_map_form(path, monkeypatch):
    dens = []
    canonical = ring._canonical

    def recording(num, den):
        num, den = canonical(num, den)
        dens.append(den)
        return num, den

    monkeypatch.setattr(ring, "_canonical", recording)
    sys = to_system_model(parse_system(path.read_text()))
    checked = []
    for k in range(1, 4):
        for row in build_M(sys, k):
            for e in row:
                checked += [e.num, e.den]
    report = algorithm2(sys)
    if report.chain is not None:
        checked += [g for _, basis in report.chain.history for g in basis]
    assert dens
    checked += dens
    assert [c for p in checked for c in _bad_coefficients(p)] == []


# -- mixed representation against sympy -----------------------------------

exponents = st.tuples(*(st.integers(0, 3) for _ in range(3)))
integers = st.integers(-12, 12).filter(bool)
rationals = st.one_of(integers, st.builds(Fraction, integers, st.integers(1, 4)))
int_terms = st.dictionaries(exponents, integers, min_size=1, max_size=5)
polys = st.dictionaries(exponents, rationals, min_size=1, max_size=4).map(
    lambda t: Polynomial(REG, t)
)
derandomized = settings(max_examples=60)


@derandomized
@given(int_terms)
def test_int_and_fraction_forms_interchangeable(terms):
    as_int = Polynomial(REG, terms)
    checked = Polynomial(REG, {e: Fraction(c) for e, c in terms.items()})
    # an integral Fraction left in place, as a sum or product of
    # Fractions may leave one
    raw = Polynomial(REG, {e: Fraction(c) for e, c in terms.items()}, _clean=True)
    assert all(type(c) is int for c in as_int.terms.values())
    assert checked.terms == as_int.terms
    for q in (checked, raw):
        assert q.terms == as_int.terms and q == as_int
        assert hash(q) == hash(as_int)
        assert str(q) == str(as_int)
    f = RationalFunction(REG.var("x") + 1, as_int)
    g = RationalFunction(REG.var("x") + 1, raw)
    assert (f.num.terms, f.den.terms, str(f)) == (g.num.terms, g.den.terms, str(g))


@derandomized
@given(polys, polys)
def test_product_and_exact_division_match_sympy(f, g):
    fg = f * g
    assert sympy.expand(to_sympy(fg) - to_sympy(f) * to_sympy(g)) == 0
    q = divexact(fg, g)
    want, rem = sympy.div(to_sympy(fg), to_sympy(g), *SYMS)
    assert rem == 0 and q == from_sympy(want) == f
    assert _bad_coefficients(q) == []


@derandomized
@given(polys, polys, polys)
def test_gcd_matches_sympy(f, g, h):
    a, b = f * h, g * h
    ring._GCD_CACHE.clear()  # a memo: compute the pair afresh
    got = poly_gcd(a, b)
    want = from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))).primitive()[0]
    assert got == want
    assert all(type(c) is int for c in got.terms.values())


def test_primitive_part_of_integral_fractions_is_int():
    # a sum adds coefficient to coefficient, so Fractions leave integral
    # Fractions behind; a canonical denominator holds ints all the same
    x, y = REG.var("x"), REG.var("y")
    half = (x * y + y) * Fraction(1, 2)
    den = half + half
    assert not all(type(c) is int for c in den.terms.values())
    f = RationalFunction(REG.one(), den)
    assert f.den.terms == (x * y + y).terms
    assert all(type(c) is int for c in f.den.terms.values())


def test_benchmark_bound_model_stores_ints():
    # a `coil_reversed_bound` model of the benchmark (T = 1/11, a = 2,
    # b = 4): canonical form scales its numerators by products with a
    # monomial, such as 121*(-7/11*z1 + 1/11*z2), whose integral results
    # are stored as ints
    text = (
        "system bench\nstates z1 z2\ninputs v\n"
        "z1' = (((4)*z1 + z2)*(1/11) - z1)/(v*(2)*(1/11)^2 + (4)*(1/11) - 1)\n"
        "z2' = (v*z1*(2)*(1/11) - z2)/(v*(2)*(1/11)^2 + (4)*(1/11) - 1)\n"
    )
    phi = to_system_model(parse_system(text)).phi
    assert [str(f) for f in phi] == [
        "(-77*z1 + 11*z2)/(2*v - 77)",
        "(22*z1*v - 121*z2)/(2*v - 77)",
    ]
    coeffs = [c for f in phi for p in (f.num, f.den) for c in p.terms.values()]
    assert all(type(c) is int for c in coeffs)


def test_primitive_of_an_int_primitive_polynomial_is_itself():
    # no copy: the polynomial keeps its term map and its cached hash
    x, y = REG.var("x"), REG.var("y")
    p = 2 * x * y - 3 * y + 1
    pp, c = p.primitive()
    assert pp is p and c == 1
    q = -p
    assert q.primitive()[0] == p and q.primitive()[1] == -1


@derandomized
@given(polys)
def test_primitive_matches_sympy(f):
    pp, c = f.primitive()
    content, prim = sympy.primitive(to_sympy(f))
    assert abs(c) == Fraction(int(content.p), int(content.q))
    assert sympy.expand(to_sympy(pp) - sympy.sign(c) * prim) == 0
    assert pp * c == f
    assert all(type(v) is int for v in pp.terms.values())
    assert pp.leading()[1] > 0
