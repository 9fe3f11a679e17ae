"""Polynomial / rational-function kernel tests."""

import random
from fractions import Fraction

import pytest

from accesskit import (
    Ideal,
    PoleError,
    Polynomial,
    RationalFunction,
    VariableRegistry,
    collect_by_class,
    poly_gcd,
    square_free_part,
)
from accesskit.errors import (
    IndeterminateError,
    UnregisteredVariableError,
    ZeroPolynomialError,
)
from accesskit.groebner import to_state_ring
from accesskit.ring import divexact


@pytest.fixture(scope="module")
def reg():
    return VariableRegistry(("x1", "x2"), ("u",), ("T", "a", "b"), 2)


def rf(reg, name):
    return RationalFunction(reg.var(name))


def build(reg):
    return {n: rf(reg, n) for n in reg.names()}


class TestRegistryLayout:
    def test_two_of_each_at_horizon_3(self):
        reg = VariableRegistry(("x", "y"), ("u", "v"), ("a", "b"), 3)
        names = ["a", "b", "x", "y", "u", "v", "u(1)", "v(1)", "u(2)", "v(2)"]
        kinds = ["parameter"] * 2 + ["state"] * 2 + ["input"] * 6
        assert reg.names() == names and reg.arity == 10
        assert [reg.name(i) for i in range(10)] == names
        assert [reg.kind(i) for i in range(10)] == kinds
        assert [reg.index(n) for n in names] == list(range(10))
        assert reg.class_indices("parameter") == range(0, 2)
        assert reg.class_indices("state") == reg.state_indices == range(2, 4)
        assert reg.class_indices("input") == range(4, 10)
        # the time-0 copy of an input has one name, the input's own
        with pytest.raises(UnregisteredVariableError):
            reg.index("u(0)")
        base = reg.with_horizon(0)
        p = base.var("x") * base.var("a") + 1
        assert to_state_ring(p) is p
        assert to_state_ring(reg.var("x") * reg.var("a") + 1) == p
        assert Ideal(reg, [reg.var("y")]).reg == base


class TestDifferentiate:
    def test_coil_component(self, reg):
        v = build(reg)
        f = v["x2"] + v["T"] * (v["a"] * v["x1"] * v["u"] - v["b"] * v["x2"])
        assert f.diff("x1") == v["T"] * v["a"] * v["u"]

    def test_constant_in_input(self, reg):
        assert rf(reg, "x2").diff("u").is_zero

    def test_quotient_rule(self, reg):
        v = build(reg)
        f = v["x2"] / (v["u"] + v["x1"])
        expected = -v["x2"] / ((v["u"] + v["x1"]) * (v["u"] + v["x1"]))
        assert f.diff("u") == expected

    def test_unregistered_variable(self, reg):
        with pytest.raises(Exception):
            rf(reg, "x1").diff("nope")

    def test_polynomial_by_the_quotient_rule(self, reg):
        x1, x2 = reg.var("x1"), reg.var("x2")
        d = RationalFunction(x1 * x2).diff("x1")
        assert (d.num.terms, d.den.terms) == (x2.terms, reg.one().terms)
        with pytest.raises(UnregisteredVariableError):
            RationalFunction(x1 * x2).diff("zz")

    def test_finite_difference_agreement(self, reg):
        v = build(reg)
        f = (v["x1"] * v["x2"] + v["T"]) / (v["u"] * v["u"] + v["x1"] + Fraction(5))
        g = f.diff("x1")
        rng = random.Random(7)
        h = Fraction(1, 10**8)
        for _ in range(5):
            pt = {
                n: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                for n in reg.names()
            }
            up = dict(pt)
            dn = dict(pt)
            up["x1"] += h
            dn["x1"] -= h
            fd = (f.evaluate(up) - f.evaluate(dn)) / (2 * h)
            exact = g.evaluate(pt)
            assert abs(fd - exact) < Fraction(1, 10**6)

    def test_leibniz_randomized(self, reg):
        rng = random.Random(42)
        names = reg.names()
        for _ in range(1000):
            f = _random_poly(reg, rng)
            g = _random_poly(reg, rng)
            v = names[rng.randrange(len(names))]
            lhs = (RationalFunction(f) * RationalFunction(g)).diff(v)
            rhs = RationalFunction(f) * RationalFunction(g.diff(v)) + (
                RationalFunction(g) * RationalFunction(f.diff(v))
            )
            assert lhs == rhs


def _random_poly(reg, rng, terms=3, deg=2, coeff=5):
    p = reg.zero()
    n = reg.arity
    for _ in range(terms):
        exp = [0] * n
        for _ in range(deg):
            exp[rng.randrange(n)] += rng.randint(0, 1)
        p = p + reg.monomial(
            tuple(exp), Fraction(rng.randint(-coeff, coeff))
        )
    return p


class TestSubstitute:
    def test_identity_single_variable(self, reg):
        v = build(reg)
        target = v["x2"] / (v["u"] + v["x1"])
        assert rf(reg, "x1").substitute({"x1": target}) == target

    def test_coil_two_step_expansion(self, reg):
        v = build(reg)
        f = v["x1"] + v["T"] * v["x2"]
        result = f.substitute(
            {
                "x1": v["x1"] + v["T"] * v["x2"],
                "x2": v["x2"] + v["T"] * (v["a"] * v["x1"] * v["u"] - v["b"] * v["x2"]),
            }
        )
        T = v["T"]
        expected = (
            v["x1"]
            + (T + T) * v["x2"]
            + T * T * (v["a"] * v["x1"] * v["u"] - v["b"] * v["x2"])
        )
        assert result == expected

    def test_constants_fixed(self, reg):
        c = RationalFunction(reg.const(Fraction(7, 3)))
        assert c.substitute({"x1": rf(reg, "x2")}) == c

    def test_zero_denominator_diagnosed(self, reg):
        v = build(reg)
        f = v["x1"] / (v["x1"] - v["x2"])
        with pytest.raises(Exception) as exc:
            f.substitute({"x1": v["x2"]})
        assert "denominator" in str(exc.value)

    def test_polynomial_valued_rational_bindings(self, reg):
        # a RationalFunction value with a constant denominator is summed in
        # the polynomial ring; the result is still a RationalFunction, equal
        # term for term to the rational sum of the substituted terms
        rng = random.Random(14)
        big = reg.with_horizon(3)
        names = reg.names()
        for trial in range(200):
            f = _random_poly(reg, rng, terms=4)
            values = {}
            for name in rng.sample(names, rng.randint(1, 4)):
                g = _random_poly(rng.choice((reg, big)), rng)
                values[name] = rng.choice(
                    (
                        RationalFunction(g * Fraction(1, rng.randint(1, 5))),
                        g,
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    )
                )
            name = rng.choice(list(values))
            values[name] = RationalFunction(_random_poly(reg, rng))
            if trial % 4 == 0:  # one value that is not a polynomial
                den = _random_poly(reg, rng) + reg.var("x1") ** 3
                values[name] = RationalFunction(values[name].num, den)
            ring = [v for v in values.values() if not isinstance(v, Fraction)]
            target = max((v.reg for v in ring), key=lambda r: r.arity)
            expected = RationalFunction(target.zero())
            for e, c in f.terms.items():
                term = RationalFunction(target.const(c))
                for i, n in enumerate(e):
                    v = values.get(names[i], target.var(names[i]))
                    if isinstance(v, Fraction):
                        v = target.const(v)
                    term = term * RationalFunction._coerce(v, target) ** n
                expected = expected + term
            result = f.substitute(values)
            assert type(result) is RationalFunction and result.reg == target
            assert result.num.terms == expected.num.terms
            assert result.den.terms == expected.den.terms

    def test_polynomial_valued_bindings(self, reg):
        # polynomial and number values: every term is added into one term
        # map, with v^n built from v^(n-1); the result equals, term for
        # term, the sum of the substituted terms built one at a time
        rng = random.Random(15)
        big = reg.with_horizon(3)
        names = reg.names()
        seen = {"fourth power": 0, "two bound": 0, "unbound": 0, "long horizon": 0}
        for _ in range(200):
            f = reg.zero()
            for _ in range(5):
                exp = [0] * reg.arity
                for i in rng.sample(range(reg.arity), rng.randint(1, 3)):
                    exp[i] = rng.randint(1, 4)
                f = f + reg.monomial(exp, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            values = {}
            for name in rng.sample(names, rng.randint(1, 4)):
                g = _random_poly(rng.choice((reg, big)), rng)
                values[name] = rng.choice(
                    (
                        g * Fraction(1, rng.randint(1, 3)),
                        g,
                        rng.randint(-3, 3),
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    )
                )
            polys = {n for n, v in values.items() if isinstance(v, Polynomial)}
            target = max(
                (values[n].reg for n in polys), key=lambda r: r.arity, default=reg
            )
            expected = target.zero()
            for e, c in f.terms.items():
                term = target.const(c)
                bound = 0
                for i, n in enumerate(e):
                    v = values.get(names[i], target.var(names[i]))
                    if not isinstance(v, Polynomial):
                        v = target.const(v)
                    term = term * v.lift(target) ** n
                    if n and names[i] in polys:
                        bound += 1
                        seen["fourth power"] += n == 4
                    seen["unbound"] += bool(n) and names[i] not in values
                seen["two bound"] += bound >= 2
                expected = expected + term
            seen["long horizon"] += target is not reg
            result = f.substitute(values)
            assert type(result) is Polynomial and result.reg == target
            assert result.terms == expected.terms
        assert all(seen.values()), seen

    def test_substitution_evaluation_commutes_randomized(self, reg):
        rng = random.Random(99)
        names = reg.names()
        for _ in range(1000):
            f = RationalFunction(_random_poly(reg, rng))
            sub_name = names[rng.randrange(len(names))]
            g = RationalFunction(_random_poly(reg, rng))
            pt = {
                n: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for n in names
            }
            composed = f.substitute({sub_name: g})
            inner = dict(pt)
            inner[sub_name] = g.evaluate(pt)
            assert composed.evaluate(pt) == f.evaluate(inner)
        # polynomial values keep a polynomial receiver in the polynomial
        # ring, values from a longer horizon move it to their registry,
        # and rational numbers leave it in its own
        big = reg.with_horizon(3)
        big_names = big.names()
        for _ in range(300):
            f = _random_poly(reg, rng)
            pt = {
                n: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for n in big_names
            }
            sub_name = names[rng.randrange(len(names))]
            g = _random_poly(reg, rng)
            composed = f.substitute({sub_name: g})
            assert isinstance(composed, Polynomial) and composed.reg == reg
            small = {n: pt[n] for n in names}
            assert composed.evaluate(small) == f.evaluate(
                {**small, sub_name: g.evaluate(small)}
            )
            g = _random_poly(big, rng)
            for receiver, value in (
                (f, g),
                (f, RationalFunction(g)),
                (RationalFunction(f), g),
            ):
                composed = receiver.substitute({sub_name: value})
                ring = Polynomial if value is g and receiver is f else RationalFunction
                assert type(composed) is ring and composed.reg == big
                assert composed.evaluate(pt) == f.evaluate(
                    {**small, sub_name: g.evaluate(pt)}
                )
            bound = {n: pt[n] for n in rng.sample(names, rng.randint(1, 3))}
            # the bound variables are gone: moving them changes nothing
            moved = {**small, **{n: v + 1 for n, v in bound.items()}}
            for receiver in (f, RationalFunction(f)):
                composed = receiver.substitute(bound)
                assert type(composed) is type(receiver) and composed.reg == reg
                assert composed.evaluate(moved) == f.evaluate({**moved, **bound})


class TestCollectByClass:
    def test_input_coefficient_structure(self, reg):
        v = build(reg)
        p = (v["u"] * v["x2"] * v["x2"] - v["u"] * v["x2"]).num
        grouped = collect_by_class(p, "input")
        assert len(grouped) == 1
        ((mono, coeff),) = grouped.items()
        assert mono == reg.var("u")
        assert coeff == (v["x2"] * v["x2"] - v["x2"]).num

    def test_no_inputs_present(self, reg):
        v = build(reg)
        p = (v["x1"] * (v["x1"] + v["T"] * v["x2"])).num
        grouped = collect_by_class(p, "input")
        assert list(grouped.keys()) == [reg.one()]

    def test_mixed_time_indices(self, reg):
        v = build(reg)
        u1 = rf(reg, "u(1)")
        p = (v["a"] * v["T"] * v["x1"] * v["u"] * u1 + v["x2"]).num
        grouped = collect_by_class(p, "input")
        assert grouped[(v["u"] * u1).num] == (v["a"] * v["T"] * v["x1"]).num
        assert grouped[reg.one()] == v["x2"].num

    def test_reconstruction_randomized(self, reg):
        rng = random.Random(5)
        for _ in range(300):
            p = _random_poly(reg, rng, terms=5, deg=3)
            grouped = collect_by_class(p, "input")
            total = reg.zero()
            for mono, coeff in grouped.items():
                total = total + mono * coeff
            assert total == p
            assert not any(c.is_zero for c in grouped.values())


class TestSquareFree:
    def test_repeated_factor_collapses(self, reg):
        x1 = reg.var("x1")
        assert square_free_part(x1 * x1) == x1

    def test_mixed_multiplicity(self, reg):
        x1, x2 = reg.var("x1"), reg.var("x2")
        p = x2 * x2 * (x1 + x2)
        sf = square_free_part(p)
        assert sf == x2 * (x1 + x2)

    def test_already_square_free(self, reg):
        p = reg.var("x1") * reg.var("x2") + reg.one()
        assert square_free_part(p) == p

    def test_zero_rejected(self, reg):
        with pytest.raises(ZeroPolynomialError):
            square_free_part(reg.zero())

    def test_constant_gives_one(self, reg):
        assert square_free_part(reg.const(Fraction(-6, 5))) == 1

    def test_divides_and_idempotent_randomized(self, reg):
        rng = random.Random(11)
        for _ in range(200):
            p = _random_poly(reg, rng, terms=2, deg=2)
            if p.is_zero:
                continue
            q = p * p * _random_poly(reg, rng, terms=2, deg=1)
            if q.is_zero:
                continue
            sf = square_free_part(q)
            assert divexact(q, sf) is not None  # exact division succeeds
            assert square_free_part(sf) == sf


class TestEvaluate:
    def test_rational_value(self, reg):
        v = build(reg)
        f = v["x2"] / (v["u"] + v["x1"])
        assert f.evaluate({"x1": 0, "x2": 1, "u": 1}) == 1

    def test_zero_factor(self, reg):
        v = build(reg)
        f = v["x1"] * (v["x1"] + v["T"] * v["x2"])
        assert f.evaluate({"x1": 0, "x2": 5, "T": 1}) == 0

    def test_pole_distinct_from_indeterminate(self, reg):
        v = build(reg)
        f = v["x2"] / (v["u"] + v["x1"])
        with pytest.raises(PoleError):
            f.evaluate({"x1": 0, "x2": 1, "u": 0})
        with pytest.raises(IndeterminateError):
            (v["x1"] / v["x2"]).evaluate({"x1": 0, "x2": 0})


class TestNormalization:
    def test_two_routes_same_representation(self, reg):
        v = build(reg)
        a = (v["x1"] + v["x2"]) * (v["x1"] - v["x2"])
        b = v["x1"] * v["x1"] - v["x2"] * v["x2"]
        assert a.num.terms == b.num.terms
        assert a.den.terms == b.den.terms

    def test_fraction_reduction_canonical(self, reg):
        v = build(reg)
        f = (v["x1"] * v["x2"]) / (v["x1"] * (v["x1"] + v["x2"]))
        g = v["x2"] / (v["x1"] + v["x2"])
        assert f == g
        assert f.num.terms == g.num.terms

    def test_powers_are_nonnegative(self, reg):
        v = build(reg)
        f = v["x2"] / (v["x1"] + v["u"])
        assert f**2 == f * f and (f**0).is_polynomial
        with pytest.raises(ValueError, match="nonnegative"):
            f**-1

    def test_canonicity_randomized(self, reg):
        rng = random.Random(17)
        for _ in range(300):
            p = _random_poly(reg, rng)
            q = _random_poly(reg, rng)
            r = _random_poly(reg, rng)
            if q.is_zero or r.is_zero:
                continue
            lhs = (RationalFunction(p) / RationalFunction(q)) * (
                RationalFunction(q) / RationalFunction(r)
            )
            rhs = RationalFunction(p) / RationalFunction(r)
            assert lhs.num.terms == rhs.num.terms
            assert lhs.den.terms == rhs.den.terms


class TestGcd:
    def test_both_zero(self, reg):
        assert poly_gcd(reg.zero(), reg.zero()).is_zero

    def test_gcd_divides_both_randomized(self, reg):
        rng = random.Random(23)
        for _ in range(200):
            a = _random_poly(reg, rng, terms=2, deg=2)
            b = _random_poly(reg, rng, terms=2, deg=2)
            c = _random_poly(reg, rng, terms=2, deg=1)
            f, g = a * c, b * c
            if f.is_zero or g.is_zero:
                continue
            h = poly_gcd(f, g)
            assert divexact(f, h) is not None
            assert divexact(g, h) is not None
            if not c.is_constant:
                # the common cofactor must survive in the gcd
                assert divexact(h, c.primitive()[0]) is not None


class TestHashAgreesWithEquality:
    def test_across_horizons(self):
        r1 = VariableRegistry(("x",), ("u",), ("a",), 1)
        for other in (r1.with_horizon(0), r1.with_horizon(2)):
            p = r1.var("x") * r1.var("a") + 2
            q = other.var("x") * other.var("a") + 2
            assert p == q
            assert len({p, q}) == 1
            assert {p: "p"}[q] == "p"
        u1, u2 = r1.var("u"), r1.with_horizon(2).var("u")
        assert u1 == u2 and hash(u1) == hash(u2)

    def test_constants_hash_as_their_value(self):
        reg = VariableRegistry(("x",), ("u",))
        for c in (0, 3, Fraction(-1, 2)):
            assert reg.const(c) == c
            assert len({reg.const(c), c}) == 1
