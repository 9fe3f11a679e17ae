"""Decision procedures: the ideal chains, point verdicts, invariance,
and backward accessibility."""

import random
from fractions import Fraction

import pytest

from accesskit import (
    Ideal,
    algorithm1,
    algorithm2,
    backward_analysis,
    build_M,
    cumulative_ideal,
    generic_accessibility,
    invariance_check,
    parse_system,
    point_status,
    symbolic_rank,
    to_system_model,
)
from accesskit.analysis import _polynomial_map


def _model(text):
    return to_system_model(parse_system(text))


# Maps that are not generically accessible: a state the input never
# reaches, and an input that enters both states alike, so every minor's
# input term cancels (parametric and rational versions).
NOT_GA = [
    "system uncontrolled\nstates x1 x2\ninputs u\nx1' = x1 + u\nx2' = 2*x2\n",
    "system cancelling\nparams T\nstates x1 x2\ninputs u\n"
    "x1' = x1 + T*u\nx2' = x2 + T*u\n",
    "system cancelling_rational\nstates x1 x2\ninputs u\n"
    "x1' = x1 + u/(x2 + 1)\nx2' = x2 + u/(x2 + 1)\n",
]


def _random_map(rng):
    """A two-state map, polynomial or rational, parametric or not, whose
    input may miss the second state."""
    c = lambda: rng.randint(-2, 2)
    T = rng.choice(["T", "3"])
    g = rng.choice(["x1", "x2", "x1*x2", "(x1 + x2)", f"{T}*x1", "0", f"{T} - 1"])
    den = rng.choice(["1", "(x1 + 1)", "(u + x2 + 2)", f"({T} + x1*x1)"])
    params = "params T\n" if T == "T" else ""
    return _model(
        f"system draw\n{params}states x1 x2\ninputs u\n"
        f"x1' = ({c()})*x1 + ({c()})*x2 + ({c()})*u/{den}\n"
        f"x2' = ({c()})*x1*x2 + ({c()})*x2 + u*{g}\n"
    )


@pytest.fixture(scope="session")
def coil_report(coil):
    return algorithm2(coil)


@pytest.fixture(scope="session")
def rational2d_report(rational2d):
    return algorithm2(rational2d)


@pytest.fixture(scope="session")
def fivestep_report(fivestep):
    return algorithm2(fivestep)


class TestGenericAccessibility:
    def test_coil(self, coil):
        assert generic_accessibility(coil)

    def test_drift_never_accessible(self, drift):
        assert not generic_accessibility(drift)

    def test_fivestep(self, fivestep):
        assert generic_accessibility(fivestep)

    def test_matches_rank_definition(
        self, coil, coil_reversed, rational2d, fivestep, drift, integrator
    ):
        # the reference definition: M_n has generic rank n
        rank_n = lambda sys: symbolic_rank(build_M(sys, sys.n)) == sys.n
        corpus = [coil, coil_reversed, rational2d, fivestep, drift, integrator]
        for sys in corpus + [_model(t) for t in NOT_GA]:
            assert generic_accessibility(sys) == rank_n(sys), sys.name
        assert not any(generic_accessibility(_model(t)) for t in NOT_GA)
        rng = random.Random(5)
        seen = set()
        for _ in range(40):
            sys = _random_map(rng)
            want = rank_n(sys)
            assert generic_accessibility(sys) == want, sys.phi
            seen.add((want, _polynomial_map(sys)))
        # both verdicts on both chain engines
        assert seen == {(a, b) for a in (True, False) for b in (True, False)}


class TestStabilizationChain:
    def test_coil_kappa_and_singular_point(self, coil_report):
        r = coil_report
        assert r.submersive and r.generically_accessible
        assert r.kappa == 3
        assert not r.budget_exhausted
        assert r.singular_set.kind == "points"
        assert r.singular_set.points == [(Fraction(0), Fraction(0))]

    def test_coil_step2_ideal(self, coil):
        I2 = cumulative_ideal(coil, 2)
        reg = I2.reg
        x1, x2, T = reg.var("x1"), reg.var("x2"), reg.var("T")
        assert I2.equal(Ideal(reg, [x1 * (x1 + T * x2)]))

    def test_coil_chain_stabilizes(self, coil):
        I3 = cumulative_ideal(coil, 3)
        I4 = cumulative_ideal(coil, 4)
        assert I3.equal(I4)

    def test_rational2d(self, rational2d_report):
        r = rational2d_report
        assert r.kappa == 3
        assert r.singular_set.points == [(Fraction(0), Fraction(0))]

    def test_fivestep(self, fivestep_report):
        r = fivestep_report
        assert r.kappa == 6
        assert r.singular_set.kind == "points"
        assert r.singular_set.points == [(Fraction(0), Fraction(0))]

    def test_drift_entire_space(self, drift):
        for sys in [drift] + [_model(t) for t in NOT_GA]:
            r = algorithm2(sys)
            assert not r.generically_accessible, sys.name
            assert r.singular_set.kind == "entire", sys.name
            assert r.kappa is None

    def test_integrator_no_singular_points(self, integrator):
        r = algorithm2(integrator)
        assert r.kappa == 1
        assert r.singular_set.kind == "empty"

    def test_ascending_chain_with_extra_step(self, coil, rational2d):
        for sys, kappa in ((coil, 3), (rational2d, 3)):
            prev = None
            for k in range(sys.n, kappa + 2):
                cur = cumulative_ideal(sys, k)
                if prev is not None:
                    for g in prev.generators:
                        assert cur.contains(g)
                prev = cur
            # one extra step beyond stabilization stays equal
            assert cumulative_ideal(sys, kappa).equal(cumulative_ideal(sys, kappa + 1))


class TestExcludedLocus:
    def test_single_state_factor(self):
        sys = _model(
            "system locus\nstates x1 x2\ninputs u\nx1' = x2 + u/x1\nx2' = x1\n"
        )
        r = algorithm2(sys)
        assert r.kappa == 2
        assert [str(p) for p in r.excluded_locus] == ["x1"]

    def test_factors_in_first_seen_order(self):
        sys = _model(
            "system locus2\nstates x1 x2\ninputs u\n"
            "x1' = x2 + u/x1\nx2' = x1 + u/(x2 + 1)\n"
        )
        r = algorithm2(sys)
        assert r.kappa == 2
        assert [str(p) for p in r.excluded_locus] == ["x1", "x2 + 1"]

    def test_polynomial_map_has_none(self, coil_report, drift):
        assert coil_report.excluded_locus == []
        assert algorithm2(drift).excluded_locus == []


class TestAccessibilityIndex:
    def test_rational2d_index_certified(self, rational2d):
        r_star, final, certified = algorithm1(rational2d)
        assert r_star == 3
        assert certified
        reg = final.reg
        assert final.equal(Ideal(reg, [reg.var("x1"), reg.var("x2")]))

    def test_rational2d_radical_step2(self, rational2d):
        from accesskit import radical_heuristic
        from accesskit.analysis import _step_ideal

        J, _ = radical_heuristic(_step_ideal(rational2d, 2))
        reg = J.reg
        x1, x2 = reg.var("x1"), reg.var("x2")
        assert J.equal(Ideal(reg, [x2 * (x1 + x2)]))

    def test_coil_index(self, coil):
        r_star, _final, _certified = algorithm1(coil)
        assert r_star == 3

    def test_not_generically_accessible(self, drift):
        r_star, final, certified = algorithm1(drift)
        assert (r_star, certified) == (None, True)
        assert final.is_zero_ideal

    def test_horizon_budget_runs_out(self, coil):
        # r* = 3 on coil, so the chain cannot settle by k = 2
        r_star, _final, _certified = algorithm1(coil, max_k=2)
        assert r_star is None

    def test_index_bounded_by_kappa(self, coil, rational2d, coil_report, rational2d_report):
        for sys, rep in ((coil, coil_report), (rational2d, rational2d_report)):
            r_star, _f, certified = algorithm1(sys)
            if certified:
                assert r_star <= rep.kappa


class TestPointStatus:
    def test_fivestep_accessible_exactly_at_five(self, fivestep):
        v4 = point_status(fivestep, (0, 1), 4)
        v5 = point_status(fivestep, (0, 1), 5)
        assert v4.in_S_k and not v4.undefined
        assert not v5.in_S_k and not v5.undefined

    def test_fivestep_chain_releases_transient_point(
        self, fivestep, fivestep_report
    ):
        # (1, 0) lies on the five-step trajectory from (0, 1): it belongs
        # to S_2 but leaves the singular locus at k = 3, so the stabilized
        # chain ideal must not vanish there
        assert point_status(fivestep, (1, 0), 2).in_S_k
        assert not point_status(fivestep, (1, 0), 3).in_S_k
        pt = {"x1": Fraction(1), "x2": Fraction(0)}
        gb = fivestep_report.chain.ideal.groebner_basis()
        assert any(g.evaluate(pt) != 0 for g in gb)

    def test_coil_origin_always_singular(self, coil):
        for k in (2, 3, 4, 5):
            assert point_status(coil, (0, 0), k).in_S_k

    def test_wrong_point_length_is_refused(self, coil):
        with pytest.raises(ValueError, match="dimension"):
            point_status(coil, (1,), 2)

    def test_horizon_below_one_is_refused(self, coil):
        with pytest.raises(ValueError, match="horizon"):
            point_status(coil, (1, 2), 0)

    def test_rational2d_excluded_locus(self, rational2d):
        # x1 = -u would be needed to define the first step; x0 with x1
        # arbitrary is fine, but the pinned matrix may degenerate at poles
        v = point_status(rational2d, (0, 0), 3)
        assert v.in_S_k and not v.undefined

    def test_descending_sets_randomized(self, coil, rational2d, fivestep):
        rng = random.Random(29)
        systems = (coil, rational2d, fivestep)
        checked = 0
        while checked < 200:
            sys = systems[checked % len(systems)]
            x0 = tuple(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(sys.n)
            )
            verdicts = []
            for k in range(sys.n, sys.n + 3):
                v = point_status(sys, x0, k)
                if v.undefined:
                    break
                verdicts.append(v.in_S_k)
            else:
                # membership can only switch from True to False as k grows
                for a, b in zip(verdicts, verdicts[1:]):
                    assert a or not b
                checked += 1


class TestInvariance:
    def test_coil_origin_invariant(self, coil):
        reg = coil.reg
        assert invariance_check(Ideal(reg, [reg.var("x1"), reg.var("x2")]), coil)

    def test_coil_axis_not_invariant(self, coil):
        reg = coil.reg
        assert not invariance_check(Ideal(reg, [reg.var("x1")]), coil)

    def test_stabilized_chains_invariant(
        self, coil, rational2d, fivestep, coil_report, rational2d_report, fivestep_report
    ):
        for sys, rep in (
            (coil, coil_report),
            (rational2d, rational2d_report),
            (fivestep, fivestep_report),
        ):
            assert rep.kappa is not None
            assert invariance_check(rep.chain.ideal, sys)


class TestBackward:
    def test_inverse_coil(self, coil_reversed):
        r = backward_analysis(coil_reversed)
        assert r.mode == "backward"
        assert r.kappa == 3
        assert r.singular_set.points == [(Fraction(0), Fraction(0))]

    def test_inverse_coil_expected_generator_contained(self, coil_reversed):
        I2 = cumulative_ideal(coil_reversed, 2)
        reg = I2.reg
        z1, z2, T, b = (reg.var(n) for n in ("z1", "z2", "T", "b"))
        assert I2.contains(z1 * (z1 - T * (b * z1 + z2)))

    def test_self_inverse_integrator_empty_singular_set(self, integrator):
        r = backward_analysis(integrator)
        assert r.singular_set.kind == "empty"
        assert r.kappa == 1

    def test_inaccessible_inverse_entire(self, drift):
        r = backward_analysis(drift)
        assert r.singular_set.kind == "entire"
        assert r.mode == "backward"


class TestSampledGenericity:
    def test_almost_every_point_accessible(
        self, coil, rational2d, fivestep, coil_report, rational2d_report, fivestep_report
    ):
        rng = random.Random(37)
        for sys, rep in (
            (coil, coil_report),
            (rational2d, rational2d_report),
            (fivestep, fivestep_report),
        ):
            gb = rep.chain.ideal.groebner_basis()
            names = rep.chain.ideal.reg.states
            singular = 0
            for _ in range(500):
                pt = {
                    n: Fraction(rng.randint(-50, 50), rng.randint(1, 7))
                    for n in names
                }
                pt.update({p: Fraction(1, 3) for p in sys.reg.params})
                if all(g.evaluate(pt) == 0 for g in gb):
                    singular += 1
            assert singular <= 5  # >= 99% accessible
