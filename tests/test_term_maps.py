"""Properties of the term-map kernel: products and the exact-division
test, which both add through `_addmul_terms`."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from accesskit.ring import _add_terms, _divides_int, _mul_terms

derandomized = settings(derandomize=True, database=None, max_examples=60, deadline=None)

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

