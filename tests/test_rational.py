"""RationalFunction's canonical form and the rational determinant, against
sympy.

Every result of the arithmetic is reduced, and its denominator is primitive
over the integers with a positive grevlex leading coefficient (a zero has
the denominator 1), whatever route produced it.  `_det_rational` is
checked on each of the shapes it handles."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from accesskit import Polynomial, RationalFunction, VariableRegistry
from accesskit.system import _det_rational

REG = VariableRegistry(("x", "y", "z"))
SYMS = sympy.symbols("x y z")


def to_sympy(f):
    """A Polynomial or RationalFunction as a sympy expression."""
    if isinstance(f, RationalFunction):
        return to_sympy(f.num) / to_sympy(f.den)
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**k for s, k in zip(SYMS, e)))
            for e, c in f.terms.items()
        )
    )


def _assert_canonical(r):
    again = RationalFunction(r.num, r.den)
    assert (r.num.terms, r.den.terms) == (again.num.terms, again.den.terms)
    coeffs = [Fraction(c) for c in r.den.terms.values()]
    assert all(c.denominator == 1 for c in coeffs)
    assert math.gcd(*(c.numerator for c in coeffs)) == 1
    assert r.den.leading()[1] > 0
    if r.is_zero:
        assert r.den.terms == REG.one().terms


# -- the canonical form, by construction -------------------------------------

exponents = st.tuples(*(st.integers(0, 2) for _ in range(3)))
integers = st.integers(-6, 6).filter(bool)
rationals = st.one_of(integers, st.builds(Fraction, integers, st.integers(1, 3)))
polys = st.dictionaries(exponents, rationals, min_size=1, max_size=3).map(
    lambda t: Polynomial(REG, t)
)
numerators = st.one_of(polys, st.just(REG.zero()))


@st.composite
def operand_pairs(draw):
    """(a, b) with unrelated, equal or partly shared denominators, or b = -a."""
    n1, n2 = draw(numerators), draw(numerators)
    d, e, h = draw(polys), draw(polys), draw(polys)
    kind = draw(st.sampled_from(["unrelated", "equal", "shared", "negated"]))
    a = RationalFunction(n1, d * h if kind == "shared" else d)
    if kind == "equal":
        b = RationalFunction(n2, a.den)
    elif kind == "shared":
        b = RationalFunction(n2, e * h)
    elif kind == "negated":
        b = -a
    else:
        b = RationalFunction(n2, e)
    return a, b


@settings(max_examples=80)
@given(operand_pairs())
def test_arithmetic_keeps_the_canonical_form(pair):
    a, b = pair
    sa, sb = to_sympy(a), to_sympy(b)
    results = [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb), (a**2, sa**2)]
    if not b.is_zero:
        results.append((a / b, sa / sb))
    for r, want in results:
        _assert_canonical(r)
        assert sympy.cancel(to_sympy(r) - want) == 0


def test_equality_across_registries_is_false():
    x = VariableRegistry(("x",), ("u",)).var("x")
    y = VariableRegistry(("y",), ("u",)).var("y")
    assert (x == y) is False
    assert (RationalFunction(x) == RationalFunction(y)) is False
    assert RationalFunction(x) != RationalFunction(y)


# -- _det_rational on each shape ----------------------------------------------


def _poly(rng, terms=2, deg=2):
    out = {}
    for _ in range(terms):
        e = [0] * REG.arity
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(REG.arity)] += 1
        c = rng.choice((-1, 1)) * rng.randint(1, 5)
        out[tuple(e)] = Fraction(c, rng.randint(1, 2))
    return Polynomial(REG, out)


def _nonconstant(rng):
    while True:
        p = _poly(rng)
        if not p.is_constant:
            return p


def _shared_columns(rng, n):
    dens = [_nonconstant(rng) for _ in range(n)]
    return [[RationalFunction(_poly(rng), d) for d in dens] for _ in range(n)]


def _constant_dens(rng, n):
    return [[RationalFunction(_poly(rng)) for _ in range(n)] for _ in range(n)]


def _mixed_2x2(rng):
    return [
        [RationalFunction(_poly(rng), _nonconstant(rng)) for _ in range(2)]
        for _ in range(2)
    ]


def _mixed_3x3_with_zero(rng):
    # denominators from a pool of three, as the rows of M_k repeat theirs
    # (nine distinct ones take sympy's reference determinant seconds); the
    # zero entry's denominator 1 mixes its column
    pool = [_nonconstant(rng) for _ in range(3)]
    rows = [
        [RationalFunction(_poly(rng), rng.choice(pool)) for _ in range(3)]
        for _ in range(3)
    ]
    rows[rng.randrange(3)][rng.randrange(3)] = RationalFunction(REG.zero())
    return rows


def _column_dens_shared(rows):
    return all(e.den == rows[0][j].den for row in rows for j, e in enumerate(row))


SHAPES = {
    "shared-columns-2": (lambda rng: _shared_columns(rng, 2), True),
    "shared-columns-3": (lambda rng: _shared_columns(rng, 3), True),
    "constant-dens-3": (lambda rng: _constant_dens(rng, 3), True),
    "mixed-2x2": (_mixed_2x2, False),
    "mixed-3x3-with-zero": (_mixed_3x3_with_zero, False),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_det_rational_matches_sympy(shape, seed):
    build, shared = SHAPES[shape]
    rows = build(random.Random(f"{shape}:{seed}"))
    assert _column_dens_shared(rows) == shared
    det = _det_rational(rows)
    _assert_canonical(det)
    want = sympy.Matrix([[to_sympy(e) for e in row] for row in rows]).det("laplace")
    assert sympy.cancel(to_sympy(det) - want) == 0


def test_one_by_one_determinant_is_its_entry():
    x, y = REG.var("x"), REG.var("y")
    f = RationalFunction(x * Fraction(1, 3) + 1, 2 * y * y + 4)
    det = _det_rational([[f]])
    assert (det.num.terms, det.den.terms) == (f.num.terms, f.den.terms)


def _fraction_det(rows):
    """Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * a * _fraction_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, a in enumerate(rows[0])
    )


@pytest.mark.parametrize("zero_first", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_mixed_4x4_at_points(zero_first, seed):
    # denominators from a pool of three, as in the 3 x 3 shape (sixteen
    # distinct ones make a determinant that takes minutes); checked
    # against the determinant of the values at exact points
    rng = random.Random(f"mixed-4x4:{seed}:{zero_first}")
    pool = [_nonconstant(rng) for _ in range(3)]
    rows = [
        [RationalFunction(_poly(rng), rng.choice(pool)) for _ in range(4)]
        for _ in range(4)
    ]
    if zero_first:
        rows[0][rng.randrange(4)] = RationalFunction(REG.zero())
    assert not _column_dens_shared(rows)
    det = _det_rational(rows)
    _assert_canonical(det)
    checked = 0
    while checked < 3:
        point = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for n in "xyz"}
        if any(e.den.evaluate(point) == 0 for row in rows for e in row):
            continue
        values = [[e.evaluate(point) for e in row] for row in rows]
        assert det.evaluate(point) == _fraction_det(values)
        checked += 1
