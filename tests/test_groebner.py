"""Ideal arithmetic: Groebner bases, membership, radicals, real solving."""

import random
from fractions import Fraction
from itertools import product

import pytest

from accesskit import (
    Ideal,
    Polynomial,
    VariableRegistry,
    algorithm2,
    radical_heuristic,
    solve_zero_dim,
)
from accesskit import groebner
from accesskit.errors import ResourceBudgetError, VerificationError
from accesskit.groebner import (
    _GBPoly,
    buchberger,
    clear_param_content,
    normal_form,
    vanishing_ideal,
)
from accesskit.realroots import _deflate
from accesskit.ring import collect_by_class, grevlex_key
from conftest import load_model


@pytest.fixture(scope="module")
def reg():
    return VariableRegistry(("x1", "x2"), ("u",), ("T",), 1)


class TestGroebnerBasis:
    def test_linear_elimination(self, reg):
        x1, x2 = reg.var("x1"), reg.var("x2")
        I = Ideal(reg, [x1 + x2, x1 - x2])
        assert set(map(str, I.groebner_basis())) == {"x1", "x2"}

    def test_principal_ideal_single_generator(self, reg):
        x1, x2, T = reg.var("x1"), reg.var("x2"), reg.var("T")
        I = Ideal(reg, [x1 * (x1 + T * x2)])
        gb = I.groebner_basis()
        assert len(gb) == 1
        assert str(gb[0]) == "T*x1*x2 + x1^2"

    def test_determinism_under_permutation(self, reg):
        rng = random.Random(3)
        for _ in range(1000):
            gens = [_random_state_poly(reg, rng) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            perm = list(gens)
            rng.shuffle(perm)
            a = Ideal(reg, gens).groebner_basis()
            b = Ideal(reg, perm).groebner_basis()
            assert [str(g) for g in a] == [str(g) for g in b]

    def test_pair_budget_keeps_partial_basis(self, reg, monkeypatch):
        # three monomials: every normal form takes one step, the pairs three
        x1, x2 = reg.var("x1"), reg.var("x2")
        monkeypatch.setattr(groebner, "_STEP_CAP", 2)
        with pytest.raises(ResourceBudgetError, match="pair budget") as err:
            buchberger([x1 * x1, x1 * x2, x2 * x2])
        assert set(err.value.partial) == {x1 * x1, x1 * x2, x2 * x2}

    def test_degree_budget_keeps_partial_basis(self, reg, monkeypatch):
        # the S-polynomial of the two generators reduces to x1 - x2^2
        x1, x2 = reg.var("x1"), reg.var("x2")
        gens = [x1 * x1 - x2, x1 * x2 - reg.one()]
        monkeypatch.setattr(groebner, "_DEGREE_CAP", 1)
        with pytest.raises(ResourceBudgetError, match="degree budget") as err:
            buchberger(gens)
        assert set(err.value.partial) == set(gens)


def _count_buchberger(monkeypatch):
    """Record the sort key of every `buchberger` call from here on."""
    keys = []
    real = groebner.buchberger

    def counting(generators, key=grevlex_key):
        keys.append(key)
        return real(generators, key)

    monkeypatch.setattr(groebner, "buchberger", counting)
    return keys


class TestBasisComputedOnce:
    def test_sum_reuses_its_basis(self, reg, monkeypatch):
        x1, x2 = reg.var("x1"), reg.var("x2")
        I = Ideal(reg, [x1 * x1 - x2, x1 * x2])
        J = Ideal(reg, [x2 * x2 - x1])
        I.groebner_basis()
        keys = _count_buchberger(monkeypatch)
        S = I + J
        assert S.groebner_basis() == S.groebner_basis()
        assert len(keys) == 1

    def test_one_call_per_chain_step_and_one_lex_solve(self, monkeypatch):
        keys = _count_buchberger(monkeypatch)
        report = algorithm2(load_model("fivestep"))
        assert report.singular_set.kind == "points"
        assert keys.count(grevlex_key) == len(report.chain.history)
        assert keys.count(tuple) == 1
        assert len(keys) == len(report.chain.history) + 1

    def test_monomial_radical_comes_with_its_basis(self, reg, monkeypatch):
        x1, x2 = reg.var("x1"), reg.var("x2")
        R, certified = radical_heuristic(Ideal(reg, [x1**3 * x2, x2**2, x1**2]))
        assert certified
        keys = _count_buchberger(monkeypatch)
        gb = R.groebner_basis()
        assert keys == []
        assert gb == buchberger(list(R.generators)) == [x2, x1]


def _random_state_poly(reg, rng, deg=2):
    p = reg.zero()
    for _ in range(3):
        term = reg.const(Fraction(rng.randint(-4, 4)))
        for _ in range(rng.randint(0, deg)):
            term = term * reg.var(rng.choice(("x1", "x2")))
        p = p + term
    return p


class TestContains:
    def test_generator_itself(self, reg):
        x1, x2, T = reg.var("x1"), reg.var("x2"), reg.var("T")
        I = Ideal(reg, [x1 * (x1 + T * x2)])
        assert I.contains(x1 * x1 + T * x1 * x2)

    def test_product_in_maximal_ideal(self, reg):
        x1, x2, T = reg.var("x1"), reg.var("x2"), reg.var("T")
        I = Ideal(reg, [x1, x2])
        assert I.contains(x1 * (x1 + T * x2))

    def test_radical_strictly_larger(self, reg):
        x1 = reg.var("x1")
        I = Ideal(reg, [x1 * x1])
        assert not I.contains(x1)

    def test_cofactor_members_randomized(self, reg):
        rng = random.Random(8)
        for _ in range(200):
            g1 = _random_state_poly(reg, rng)
            g2 = _random_state_poly(reg, rng)
            if g1.is_zero or g2.is_zero:
                continue
            I = Ideal(reg, [g1, g2])
            h1 = _random_state_poly(reg, rng, deg=1)
            h2 = _random_state_poly(reg, rng, deg=1)
            assert I.contains(h1 * g1 + h2 * g2)


class TestIdealEqual:
    def test_unit_multiple(self, reg):
        x1 = reg.var("x1")
        assert Ideal(reg, [x1]).equal(Ideal(reg, [x1 + x1]))

    def test_same_linear_span(self, reg):
        x1, x2 = reg.var("x1"), reg.var("x2")
        assert Ideal(reg, [x1, x2]).equal(Ideal(reg, [x1 + x2, x1 - x2]))

    def test_curve_differs_from_point(self, reg):
        x1, x2 = reg.var("x1"), reg.var("x2")
        assert not Ideal(reg, [x2 * (x1 + x2)]).equal(Ideal(reg, [x1, x2]))

    def test_equivalence_relation_randomized(self, reg):
        rng = random.Random(13)
        for _ in range(100):
            ideals = []
            for _ in range(3):
                gens = [_random_state_poly(reg, rng) for _ in range(2)]
                gens = [g for g in gens if not g.is_zero] or [reg.var("x1")]
                ideals.append(Ideal(reg, gens))
            a, b, c = ideals
            assert a.equal(a)
            if a.equal(b):
                assert b.equal(a)
            if a.equal(b) and b.equal(c):
                assert a.equal(c)

    def test_matches_mutual_containment(self, reg):
        # the reference: two ideals coincide iff each contains the other's
        # generators; the pairs include parametric ideals and equal ideals
        # built from different generators
        def contained(a, b):
            return all(b.contains(g) for g in a.generators)

        x1, x2, T = reg.var("x1"), reg.var("x2"), reg.var("T")
        rng = random.Random(0xE0)
        equal_pairs = 0
        for _ in range(60):
            gens = [_random_state_poly(reg, rng) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero] or [x1]
            if rng.random() < 0.5:
                gens[0] = gens[0] + T * rng.choice((x1, x2, x1 * x2))
            a = Ideal(reg, gens)
            h = _random_state_poly(reg, rng, deg=1)
            # the same ideal: a unit multiple of one generator, the others
            # plus multiples of it
            same = [gens[-1] * (T + reg.one())]
            same += [g + h * gens[-1] for g in gens[:-1]]
            other = rng.choice((same, gens + [h * gens[0]], gens[:1], gens + [h]))
            b = Ideal(reg, [g for g in other if not g.is_zero] or [x2])
            want = contained(a, b) and contained(b, a)
            assert a.equal(b) == want
            assert b.equal(a) == want
            equal_pairs += want
        assert 0 < equal_pairs < 60


class TestIdealSum:
    def test_union_of_generators(self, reg):
        x1, x2 = reg.var("x1"), reg.var("x2")
        s = Ideal(reg, [x1]) + Ideal(reg, [x2])
        assert s.equal(Ideal(reg, [x1, x2]))

    def test_zero_ideal_is_identity(self, reg):
        x1 = reg.var("x1")
        I = Ideal(reg, [x1])
        assert (I + Ideal(reg, [])).equal(I)

    def test_across_state_rings_is_refused(self, reg):
        other = VariableRegistry(("y1", "y2"), ("u",), ("T",), 1)
        with pytest.raises(ValueError, match="different state rings"):
            Ideal(reg, [reg.var("x1")]) + Ideal(other, [other.var("y1")])


class TestClearParamContent:
    def test_parameter_free_gives_primitive_and_rational_content(self, reg):
        x1, x2 = reg.var("x1"), reg.var("x2")
        half = reg.const(Fraction(1, 2))
        for p in (x1 * x2 + x2, -3 * x1 + 6 * x2, half * x1 * x1 - x2):
            prim, cont = clear_param_content(p)
            want, c = p.primitive()
            assert prim == want and cont == reg.const(c)
        assert clear_param_content(reg.const(-4)) == (reg.one(), reg.const(-4))

    def test_parametric_content_is_kept(self, reg):
        x1, x2, T = reg.var("x1"), reg.var("x2"), reg.var("T")
        assert clear_param_content(T * x1 + T * x2) == (x1 + x2, T)
        prim, cont = clear_param_content(2 * T * T * x1 - 4 * T * x2)
        assert (prim, cont) == (T * x1 - 2 * x2, 2 * T)
        # coprime coefficient polynomials: only the rational content leaves
        assert clear_param_content(T * x1 + x2) == (T * x1 + x2, reg.one())


class TestRadicalHeuristic:
    def test_principal_square_free_reduction(self, reg):
        x1, x2 = reg.var("x1"), reg.var("x2")
        p = x2 * (x1 + x2)
        J, _cert = radical_heuristic(Ideal(reg, [p * p]))
        assert J.equal(Ideal(reg, [p]))

    def test_zero_dimensional_certified(self, reg):
        x1, x2 = reg.var("x1"), reg.var("x2")
        J, cert = radical_heuristic(Ideal(reg, [x1 * x1, x2]))
        assert cert
        assert J.equal(Ideal(reg, [x1, x2]))

    def test_sum_of_squares_origin(self, reg):
        x1, x2 = reg.var("x1"), reg.var("x2")
        J, cert = radical_heuristic(Ideal(reg, [x1 * x1 + x2 * x2]))
        assert cert
        assert J.equal(Ideal(reg, [x1, x2]))

    def test_output_contains_input_and_zeros_agree(self, reg):
        rng = random.Random(21)
        x1, x2 = reg.var("x1"), reg.var("x2")
        for _ in range(50):
            g = _random_state_poly(reg, rng)
            if g.is_zero:
                continue
            I = Ideal(reg, [g * g])
            J, cert = radical_heuristic(I)
            for gen in I.generators:
                assert J.contains(gen)
            if not cert:
                continue
            for _ in range(20):
                pt = {
                    "x1": Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                    "x2": Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                    "T": Fraction(1),
                }
                in_I = all(p.evaluate(pt) == 0 for p in I.generators)
                in_J = all(p.evaluate(pt) == 0 for p in J.generators)
                assert in_I == in_J


class TestSolveZeroDim:
    def test_origin(self, reg):
        x1, x2 = reg.var("x1"), reg.var("x2")
        r = solve_zero_dim(Ideal(reg, [x1, x2]))
        assert r.status == "points"
        assert r.points == [(Fraction(0), Fraction(0))]

    def test_two_points(self, reg):
        x1, x2 = reg.var("x1"), reg.var("x2")
        r = solve_zero_dim(Ideal(reg, [x1 * x1 - reg.one(), x2]))
        assert r.status == "points"
        assert sorted(r.points) == [
            (Fraction(-1), Fraction(0)),
            (Fraction(1), Fraction(0)),
        ]

    def test_curve_flagged(self, reg):
        x1, x2 = reg.var("x1"), reg.var("x2")
        r = solve_zero_dim(Ideal(reg, [x2 * (x1 + x2)]))
        assert r.status == "not_zero_dimensional"

    def test_wrong_root_is_an_error(self, reg, monkeypatch):
        # the final exact check must survive `python -O`, so it raises
        monkeypatch.setattr(groebner, "real_roots", lambda coeffs: [Fraction(5)])
        x1, x2 = reg.var("x1"), reg.var("x2")
        with pytest.raises(VerificationError):
            solve_zero_dim(Ideal(reg, [x1 - reg.one(), x2]))

    def test_solutions_zero_generators(self, reg):
        x1, x2 = reg.var("x1"), reg.var("x2")
        gens = [x1 * x1 - reg.const(Fraction(9)), x2 - x1]
        r = solve_zero_dim(Ideal(reg, gens))
        assert r.status == "points"
        for pt in r.points:
            env = {"x1": pt[0], "x2": pt[1]}
            for g in gens:
                assert g.evaluate(env) == 0

    def test_irrational_points_are_boxes(self, reg):
        x1, x2 = reg.var("x1"), reg.var("x2")
        r = solve_zero_dim(Ideal(reg, [x1 * x1 - reg.const(2), x2 - x1]))
        assert r.status == "irrational"
        assert r.points == []
        # lex solving starts from the last state: x2^2 - 2 in the basis
        assert [name for name, _ in r.boxes] == ["x2", "x2"]
        for (_, box), sign in zip(r.boxes, (-1, 1)):
            assert sign * box.lo > 0
            assert (box.lo**2 - 2) * (box.hi**2 - 2) < 0

    def test_large_rational_coordinates(self, reg):
        x1, x2 = reg.var("x1"), reg.var("x2")
        big = 10**12 + 39
        gens = [(x1 - reg.one()) * (x1 - reg.const(big)), x2]
        r = solve_zero_dim(Ideal(reg, gens))
        assert r.status == "points"
        assert r.points == [(Fraction(1), Fraction(0)), (Fraction(big), Fraction(0))]

    def test_common_roots_of_one_level(self, reg):
        # after x2 = 1, both (x1 - 1)*x2 and x1^2 - 1 are univariate in x1;
        # only their common root 1 gives a solution over x2 = 1
        x1, x2, one = reg.var("x1"), reg.var("x2"), reg.one()
        gens = [x2 * x2 - x2, (x1 - one) * x2, x1 * x1 - one]
        r = solve_zero_dim(Ideal(reg, gens))
        assert r.status == "points"
        assert r.points == [(-1, 0), (1, 0), (1, 1)]

    def test_parametric_basis_is_refused(self, reg):
        x1, x2, T = reg.var("x1"), reg.var("x2"), reg.var("T")
        assert solve_zero_dim(Ideal(reg, [x1 - T, x2])).status == "refused"

    def test_zero_ideal_is_whole_space(self, reg):
        assert solve_zero_dim(Ideal(reg, [])).status == "not_zero_dimensional"

    def test_same_points_as_lex_basis_of_raw_generators(self, reg, monkeypatch):
        # seeded point sets, each given by its vanishing ideal's generators
        # mixed with random multiples of each other; the reference seeds
        # the lex run with those raw generators instead of the cached basis
        rng = random.Random(0x1E7)
        real = groebner.buchberger
        for _ in range(8):
            pts = _random_points(rng, 2, rng.randint(1, 4))
            gens = list(vanishing_ideal(reg, pts).generators)
            h = _random_state_poly(reg, rng, deg=1)
            gens = gens[:1] + [g + h * gens[0] for g in gens[1:]]
            I = Ideal(reg, [g for g in gens if not g.is_zero])
            found = solve_zero_dim(I)
            with monkeypatch.context() as m:
                raw = lambda gens, key=grevlex_key: real(
                    list(I.generators) if key is tuple else gens, key
                )
                m.setattr(groebner, "buchberger", raw)
                want = solve_zero_dim(I)
            assert found.status == want.status == "points"
            assert found.points == want.points == sorted(set(pts))


class TestDeflate:
    # coefficients from the constant term up: x^2 - 1 = (x - 1)(x + 1)
    SQUARE_MINUS_ONE = [Fraction(-1), Fraction(0), Fraction(1)]

    def test_by_a_root(self):
        assert _deflate(self.SQUARE_MINUS_ONE, Fraction(1)) == [1, 1]

    def test_by_a_non_root_is_an_error(self):
        # a runtime check, not an assert: it must survive `python -O`
        with pytest.raises(VerificationError):
            _deflate(self.SQUARE_MINUS_ONE, Fraction(2))


def _product_vanishing_ideal(reg, points):
    """The reference construction: all products of one coordinate
    hyperplane x_i - a_i through each point (|P| <= 6 keeps it small)."""
    gens = [reg.one()]
    for pt in points:
        gens = [
            g * (reg.var(n) - reg.const(a)) for g in gens for n, a in zip(reg.states, pt)
        ]
    return Ideal(reg, gens).groebner_basis()


def _standard_monomials(basis, nstates, top):
    """Monomials of degree <= top that no leading monomial divides."""
    leads = [max(g.terms, key=grevlex_key) for g in basis]
    return sum(
        1
        for e in product(range(top + 1), repeat=nstates)
        if sum(e) <= top and not any(all(a <= b for a, b in zip(l, e)) for l in leads)
    )


def _random_points(rng, nstates, count):
    pts = set()
    while len(pts) < count:
        pts.add(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(nstates)))
    return sorted(pts)


class TestVanishingIdeal:
    def test_single_point(self, reg):
        V = vanishing_ideal(reg, [(Fraction(1), Fraction(2))])
        assert V.contains(reg.var("x1") - reg.one())
        assert not V.contains(reg.var("x1"))

    def test_two_points_separating(self, reg):
        V = vanishing_ideal(reg, [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))])
        x1, x2 = reg.var("x1"), reg.var("x2")
        assert V.contains(x2)
        assert V.contains(x1 * x1 - x1)
        assert not V.contains(x1)

    @pytest.mark.parametrize("nstates", [1, 2, 3])
    def test_matches_product_construction(self, nstates):
        reg = VariableRegistry(("x1", "x2", "x3")[:nstates], ("u",), (), 0)
        rng = random.Random(nstates)
        for _ in range(12):
            # the reference has nstates^|P| generators: at most 3^4 here
            pts = _random_points(rng, nstates, rng.randint(1, 4 if nstates == 3 else 6))
            got = vanishing_ideal(reg, pts).groebner_basis()
            assert got == _product_vanishing_ideal(reg, pts), pts

    @pytest.mark.parametrize("nstates", [1, 2, 3])
    def test_more_than_six_points(self, nstates):
        reg = VariableRegistry(("x1", "x2", "x3")[:nstates], ("u",), (), 0)
        rng = random.Random(10 + nstates)
        for count in (7, 9, 12):
            pts = _random_points(rng, nstates, count)
            basis = vanishing_ideal(reg, pts).groebner_basis()
            for pt in pts:
                env = dict(zip(reg.states, pt))
                assert all(g.evaluate(env) == 0 for g in basis)
            assert _standard_monomials(basis, nstates, count) == count


def _random_poly(reg, rng, names, terms, deg):
    p = reg.zero()
    for _ in range(terms):
        term = reg.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for _ in range(rng.randint(0, deg)):
            term = term * reg.var(rng.choice(names))
        p = p + term
    return p


class TestNormalForm:
    """The in-place normal form against sympy, and the one-pass reduction of
    state x input polynomials against coefficient-wise reduction."""

    @pytest.mark.parametrize("kind", ["degrevlex", "lex"])
    @pytest.mark.parametrize("nstates", [2, 3])
    def test_matches_sympy_reduced(self, kind, nstates):
        sympy = pytest.importorskip("sympy")
        names = ("x1", "x2", "x3")[:nstates]
        reg = VariableRegistry(names, (), (), 0)
        xs = sympy.symbols(names)
        key = grevlex_key if kind == "degrevlex" else tuple
        sym_order = "grevlex" if kind == "degrevlex" else "lex"

        def to_sympy(p):
            return sum(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(x**k for x, k in zip(xs, e)))
                for e, c in p.terms.items()
            )

        def from_sympy(q):
            terms = sympy.Poly(q, *xs).terms()
            return Polynomial(reg, {m: Fraction(int(c.p), int(c.q)) for m, c in terms})

        def monic(p):
            return p * Fraction(1, p.terms[max(p.terms, key=key)])

        rng = random.Random(41 + nstates)
        deg = 3 if nstates == 2 else 2
        checked = 0
        for _ in range(12):
            gens = [_random_poly(reg, rng, names, 3, deg) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            G = sympy.groebner([to_sympy(g) for g in gens], *xs, order=sym_order)
            basis = [_GBPoly(from_sympy(g), key) for g in G.exprs]
            ideal = Ideal(reg, gens)
            # `buchberger` takes an ideal's generators: distinct, primitive
            own_basis = buchberger(list(ideal.generators), key)
            # one reduced basis per order: sympy's, up to scaling
            want_basis = {monic(from_sympy(g)) for g in G.exprs}
            assert {monic(g) for g in own_basis} == want_basis
            own = [_GBPoly(g, key) for g in own_basis]
            for _ in range(4):
                p = _random_poly(reg, rng, names, 5, deg + 2)
                _, rem = sympy.reduced(to_sympy(p), G.exprs, *xs, order=sym_order)
                want = from_sympy(rem)
                got = normal_form(p, basis, key, normalize=False)
                assert got == want
                # the ideal's own basis leaves the same (unique) remainder
                assert normal_form(p, own, key, normalize=False) == want
                if kind == "degrevlex":  # the order of `Ideal.reduce`
                    assert ideal.reduce(p, normalize=False) == want
                checked += 1
        assert checked >= 40

    def test_one_pass_mixed_reduction(self):
        reg = VariableRegistry(("x1", "x2"), ("u",), (), 0)
        target = reg.with_horizon(2)
        rng = random.Random(17)
        names = ("x1", "x2")
        mixed = ("x1", "x2", "u", "u(1)")
        for _ in range(30):
            gens = [_random_poly(reg, rng, names, 3, 2) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            ideal = Ideal(reg, gens)
            p = _random_poly(target, rng, mixed, 6, 4)
            want = target.zero()
            for mono, coeff in collect_by_class(p, "input").items():
                want = want + mono * ideal.reduce(coeff, normalize=False).lift(target)
            assert ideal.reduce(p, normalize=False) == want

    def test_step_budget_keeps_partial_basis(self, reg, monkeypatch):
        x1, x2 = reg.var("x1"), reg.var("x2")
        ideal = Ideal(reg, [x1 - x2, x2 * x2 - reg.one()])
        p = (x1 + x2) ** 4
        with monkeypatch.context() as patch:
            patch.setattr(groebner, "_STEP_CAP", 2)
            with pytest.raises(ResourceBudgetError) as err:
                ideal.reduce(p)
        assert err.value.partial
        assert err.value.partial == ideal.groebner_basis()
        assert not ideal.reduce(p).is_zero

    def test_parametric_leading_coefficient(self, reg):
        x1, x2, T = reg.var("x1"), reg.var("x2"), reg.var("T")
        ideal = Ideal(reg, [T * x1 + x2])
        with pytest.raises(ValueError):
            ideal.reduce(x1 * x1, normalize=False)
        # the pseudo normal form clears the parameter: T^2*x1^2 = x2^2 mod I
        assert ideal.reduce(x1 * x1) == x2 * x2
        # an irreducible part found before a pseudo step is scaled by T too
        assert ideal.reduce(x2**3 + x1) == T * x2**3 - x2


class TestMixedMembership:
    """Membership of state x input polynomials: the inputs act as
    coefficients, so it holds iff every input-monomial coefficient is a
    member, and it agrees with sympy's membership in I*K(T)[x, u]."""

    @pytest.mark.parametrize("params", [(), ("T",)])
    def test_matches_coefficients_and_sympy(self, params):
        sympy = pytest.importorskip("sympy")
        reg = VariableRegistry(("x1", "x2"), ("u",), params, 2)
        syms = {n: sympy.Symbol(n) for n in reg.names()}
        T = syms.get("T", sympy.Symbol("T"))
        xs = [syms[n] for n in reg.states]
        us = [syms[n] for n in ("u", "u(1)")]
        names = reg.names()

        def to_sympy(p):
            return sympy.Add(
                *(
                    sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(syms[n] ** k for n, k in zip(names, e)))
                    for e, c in p.terms.items()
                )
            )

        rng = random.Random(23 + len(params))
        outcomes = []
        for _ in range(6):
            gens = [_random_poly(reg, rng, ("x1", "x2", *params), 3, 2) for _ in "ab"]
            gens = [g for g in gens if not g.is_constant]
            if not gens:
                continue
            ideal = Ideal(reg, gens)
            G = sympy.groebner(
                [to_sympy(g) for g in gens],
                *xs,
                *us,
                order="grevlex",
                domain=sympy.QQ.frac_field(T),
            )
            for trial in range(6):
                if trial % 2:
                    p = _random_poly(reg, rng, names, 3, 3)
                else:  # a member: sum of h_i * g_i, the h_i with inputs
                    hs = [_random_poly(reg, rng, names, 3, 2) for _ in gens]
                    p = sum((h * g for h, g in zip(hs, gens)), reg.zero())
                got = ideal.contains(p)
                coeffs = collect_by_class(p, "input").values()
                assert got == all(ideal.contains(c) for c in coeffs)
                assert got == G.contains(to_sympy(p))
                outcomes.append(got)
        assert len(outcomes) >= 24 and True in outcomes and False in outcomes

    def test_other_state_names_are_refused(self, reg):
        ideal = Ideal(reg, [reg.var("x1")])
        other = VariableRegistry(("y1", "y2"), ("u",), ("T",), 2)
        with pytest.raises(ValueError):
            ideal.contains(other.var("y1"))
        with pytest.raises(ValueError):
            ideal.reduce(other.var("y1"), normalize=False)


class TestZeroAndUnitIdeals:
    """The zero polynomial, the zero ideal and <1> take the general paths."""

    def test_zero_polynomial_has_zero_content(self, reg):
        assert clear_param_content(reg.zero()) == (0, 0)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_zero_reduces_to_zero(self, reg, normalize):
        x1, x2 = reg.var("x1"), reg.var("x2")
        for I in (Ideal(reg, []), Ideal(reg, [x1 * x1 - x2])):
            assert I.reduce(reg.zero(), normalize=normalize).is_zero

    def test_zero_ideal_is_not_zero_dimensional(self, reg):
        assert not Ideal(reg, []).is_zero_dimensional()

    def test_zero_ideal_is_its_certified_radical(self, reg):
        J, certified = radical_heuristic(Ideal(reg, []))
        assert J.is_zero_ideal and J.groebner_basis() == []
        assert certified

    def test_unit_ideal_is_its_certified_radical(self, reg):
        # [1] is a monomial basis, whose monomial radical is <1>
        J, certified = radical_heuristic(Ideal(reg, [reg.one()]))
        assert J.groebner_basis() == [reg.one()]
        assert certified

    def test_no_points_vanish_on_the_unit_ideal(self, reg):
        assert vanishing_ideal(reg, []).equal(Ideal(reg, [reg.one()]))

    def test_unit_ideal_has_no_points(self, reg):
        sol = solve_zero_dim(Ideal(reg, [reg.one()]))
        assert (sol.status, sol.points) == ("points", [])
