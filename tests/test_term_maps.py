"""Properties of the term-map kernel: products, which clear denominators
and add through `_addmul_terms`, the exact-division test, `divexact`,
which divides on ints over a heap of remainder monomials, and `_split`."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accesskit import Polynomial, VariableRegistry, ring
from accesskit.errors import ExactDivisionError
from accesskit.ring import (
    _add_terms,
    _divides_int,
    _int_scale,
    _mul_terms,
    _split,
    divexact,
)

derandomized = settings(max_examples=60)

integers = st.integers(-9, 9).filter(bool)
rationals = st.one_of(integers, st.builds(Fraction, integers, st.integers(2, 4)))


def term_maps(n, coeffs, min_size=0):
    exponents = st.tuples(*(st.integers(0, 3) for _ in range(n)))
    return st.dictionaries(exponents, coeffs, min_size=min_size, max_size=6)


@st.composite
def pairs(draw, coeffs, min_size=0):
    """(n, a, b): two term maps over the same n variables, 3 <= n <= 5."""
    n = draw(st.integers(3, 5))
    return n, draw(term_maps(n, coeffs, min_size)), draw(term_maps(n, coeffs, min_size))


def naive_product(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


@derandomized
@given(pairs(rationals))
def test_product_is_the_pairwise_sum(case):
    _, a, b = case
    ab = _mul_terms(a, b)
    assert ab == naive_product(a, b) == _mul_terms(b, a)
    assert all(ab.values())


@derandomized
@given(pairs(integers))
def test_integer_product_has_int_coefficients(case):
    _, a, b = case
    assert all(type(c) is int and c for c in _mul_terms(a, b).values())


@derandomized
@given(pairs(integers, min_size=1))
def test_a_product_is_divisible_by_its_factor(case):
    n, a, b = case
    ab = _mul_terms(a, b)
    assert _divides_int(b, ab)
    # b divides ab + 1 only when it divides 1, that is, when it is a unit
    one = {(0,) * n: 1}
    unit = b in (one, {(0,) * n: -1})
    assert _divides_int(b, _add_terms(ab, one)) == unit


def integral_fractions(terms):
    return [c for c in terms.values() if type(c) is Fraction and c.denominator == 1]


@derandomized
@given(pairs(rationals, min_size=2))
def test_rational_product_has_no_integral_fraction(case):
    # both operands are cleared, and each output coefficient is divided once
    _, a, b = case
    ab = _mul_terms(a, b)
    assert ab == naive_product(a, b)
    assert not integral_fractions(ab)


@derandomized
@given(pairs(rationals, min_size=1))
def test_product_with_a_monomial_is_the_pairwise_sum(case):
    _, a, b = case
    e, c = next(iter(b.items()))
    mono = {e: c}
    assert _mul_terms(a, mono) == naive_product(a, mono) == _mul_terms(mono, a)


# -- divexact ---------------------------------------------------------------

REG = VariableRegistry(("x", "y", "z"), ("u",), (), 1)


def polys(min_size=0):
    return term_maps(REG.arity, rationals, min_size).map(lambda t: Polynomial(REG, t))


@derandomized
@given(polys(), polys(min_size=1), rationals)
@example(
    Polynomial(REG, {(1, 0, 0, 0): Fraction(1, 3), (0, 0, 0, 0): 2}),
    Polynomial(REG, {(2, 0, 1, 0): Fraction(3, 2), (0, 1, 0, 0): Fraction(5, 4)}),
    Fraction(-2, 3),
)
def test_divexact_gives_back_the_factor(a, d, content):
    # d with rational content; in the example, d = -x^2*z - 5/6*y has
    # negative coefficients at both its largest and its smallest monomial
    d = d * content
    assert divexact(a * d, d) == a


def test_inexact_division_by_a_remainder():
    # the walk starts at the smallest monomials: the quotient term 3 / 2
    # lies in the quotient's degree box, but over the ints 3 is not a
    # multiple of 2; the floor quotient 1 would cancel the rest exactly
    x = REG.var("x")
    with pytest.raises(ExactDivisionError):
        divexact(x + 3, x + 2)


def test_inexact_division_by_the_quotient_box():
    # every coefficient divides, but the walk (quotient terms y, -x*y, then
    # x^2) leaves the quotient's degree box, whose x-degree is 2 - 1 = 1
    x, y = REG.var("x"), REG.var("y")
    with pytest.raises(ExactDivisionError):
        divexact(x**2 + y, x + 1)


def large_product():
    """(a, d): a seeded 340-term polynomial and an 8-term factor."""
    rng = random.Random(5)

    def seeded(n, deg):
        t = {}
        while len(t) < n:
            e = tuple(rng.randint(0, deg) for _ in range(REG.arity))
            t[e] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))
        return Polynomial(REG, t)

    d = seeded(8, 3)
    return seeded(340, 9), d


def test_divexact_of_a_large_product_by_its_small_factor():
    a, d = large_product()
    p = a * d
    assert 2400 <= len(p.terms) <= 2700
    assert divexact(p, d) == a


def test_divexact_takes_no_trial_cap(monkeypatch):
    # below the 340 quotient terms, the trial division gives up on d, but
    # divexact runs the same quotient loop uncapped
    monkeypatch.setattr(ring, "_TRIAL_CAP", 100)
    a, d = large_product()
    p = a * d
    assert not _divides_int(_int_scale(d.terms)[0], _int_scale(p.terms)[0])
    assert divexact(p, d) == a


# -- _split -----------------------------------------------------------------


@st.composite
def spans(draw):
    """(terms, lo, hi): a term map over n variables, 1 <= n <= 5, and a
    span 0 <= lo <= hi <= n of its positions."""
    n = draw(st.integers(1, 5))
    hi = draw(st.integers(0, n))
    return draw(term_maps(n, rationals)), draw(st.integers(0, hi)), hi


@settings(max_examples=60, derandomize=True, database=None)
@given(spans())
def test_split_by_a_range_slices_as_the_loop_groups(case):
    terms, lo, hi = case
    assert _split(terms, range(lo, hi)) == _split(terms, tuple(range(lo, hi)))
