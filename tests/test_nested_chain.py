"""r* from the kappa chain: under the gate of the nesting lemma,
`algorithm1` takes the radicals of `algorithm2`'s chain ideals and builds
no step ideal.  The gate admits every map whose component denominators
use no state, rational ones such as `coil_reversed` included.  A map with
free parameters takes the chain walk unreduced, ranks only the minors
that touch the newest input block, and never enters the rational engine
(`build_M`, `minor_determinants`); its chain is checked against
`cumulative_ideal`, which sums the step ideals of the rational engine."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from accesskit import (
    Ideal,
    algorithm1,
    algorithm2,
    cumulative_ideal,
    parse_system,
    point_status,
    radical_heuristic,
    to_system_model,
)
from accesskit import analysis
from accesskit.analysis import _nested_chain, _step_ideal
from accesskit.groebner import vanishing_ideal
from conftest import load_model


def _model(text):
    return to_system_model(parse_system(text))


QUADRATIC = (
    "system quadratic\nstates x1 x2\ninputs u\n"
    "x1' = x2/(u + 1)\nx2' = (x1^2 + u*x2)/(u^2 + 2)\n"
)


def _coil(p, q, r):
    """systems/coil.sys with its three couplings scaled by p, q and r: a
    polynomial map with free parameters and det A = 1 - r*b*T - p*q*a*T^2*u,
    so it passes the gate."""
    return _model(
        "system coil_scaled\nparams T a b\nstates x1 x2\ninputs u\n"
        f"x1' = x1 + ({p})*T*x2\nx2' = x2 + T*(({q})*a*x1*u - ({r})*b*x2)\n"
    )


def _reference_index(sys, max_k):
    """The r* loop over the unreduced step ideals I_{M_k}, which every map
    took before the gate: the radical of each step ideal in turn, up to the
    first k whose radical equals the next one."""
    n = sys.n
    step = _step_ideal(sys, n)
    if step.is_zero_ideal:
        return None, step, True
    current, certified = radical_heuristic(step)
    k = n
    while k < max_k:
        nxt, cert = radical_heuristic(_step_ideal(sys, k + 1))
        certified = certified and cert
        if nxt.equal(current):
            return k, current, certified
        current = nxt
        k += 1
    return None, current, False


def _outcome(result):
    r_star, final, certified = result
    return r_star, certified, [(g.reg.key, g.terms) for g in final.groebner_basis()]


def _count_rational_engine(monkeypatch):
    """Record the horizon of every call that `analysis` makes to the
    rational engine's step ideal, accessibility matrix and minors."""
    calls = {}
    for name in ("_step_ideal", "build_M", "minor_determinants"):
        log, f = calls.setdefault(name, []), getattr(analysis, name)
        counted = lambda sys, k, log=log, f=f: log.append(k) or f(sys, k)
        monkeypatch.setattr(analysis, name, counted)
    return calls


class TestGate:
    def test_which_maps_pass(self):
        passing = [
            load_model("coil"),  # det A = 1 - b*T - a*T^2*u
            load_model("fivestep"),  # det A = 1
            load_model("integrator"),
            _model(
                "system shift2\nstates x1 x2\ninputs u\n"
                "x1' = x2\nx2' = -x1 + u*(x2^2 - (3/2)*x2)\n"
            ),
            # det A = 1 + u*p'(x)
            _model("system seven\nstates x\ninputs u\nx' = x + u*x*(x - 1)*(x - 2)\n"),
            load_model("coil_reversed"),  # det A = -1/(v*a*T^2 + b*T - 1)
            load_model("coil_reversed").bind_params({"T": 1, "a": 2, "b": 3}),
        ]
        failing = [
            load_model("rational2d"),  # the denominator u + x1 uses a state
            _model(QUADRATIC),  # det A = -2*x1/((u + 1)*(u^2 + 2))
            load_model("drift"),  # det A = 0
            _model("system square\nstates x\ninputs u\nx' = x^2 + u\n"),  # 2*x
            _model(  # 2*a*x
                "system square\nparams a\nstates x\ninputs u\nx' = a*x^2 + u\n"
            ),
        ]
        assert all(map(_nested_chain, passing))
        assert not any(map(_nested_chain, failing))

    def test_no_step_ideal_on_a_gated_model(self, monkeypatch):
        coil, fivestep = load_model("coil"), load_model("fivestep")
        reversed_ = load_model("coil_reversed")
        bound = load_model("coil_reversed").bind_params({"T": 1, "a": 2, "b": 3})
        calls = _count_rational_engine(monkeypatch)
        # free-parameter coil walks its chain in the polynomial ring
        report = algorithm2(coil)
        assert algorithm1(coil)[0] == 3
        # fivestep runs algorithm2 itself, on the reduced engine
        assert algorithm1(fivestep)[0] == 6
        # coil_reversed walks on rational entries, free and bound
        assert algorithm1(reversed_)[0] == 3
        assert algorithm1(bound)[0] == 3
        assert calls == {"_step_ideal": [], "build_M": [], "minor_determinants": []}
        # the chain is read from the report algorithm2 left on the model
        assert coil._cache[("algorithm2", analysis.default_max_k(coil))] is report

    def test_step_ideals_off_the_gate(self, monkeypatch):
        calls = _count_rational_engine(monkeypatch)["_step_ideal"]
        assert algorithm1(load_model("rational2d"))[0] == 3
        assert calls
        calls.clear()
        # state-free denominators, off the gate: its step ideal at k = 3
        # takes about 20 s, so the budget stops at 2
        assert algorithm1(_model(QUADRATIC), 2)[0] is None
        assert calls
        calls.clear()
        square = _model("system square\nstates x\ninputs u\nx' = x^2 + u\n")
        assert algorithm1(square)[0] == 1
        assert calls


class TestUnsettledChain:
    """A chain that the horizon budget leaves open certifies nothing; a
    certified null r* is only the proof that the map is not generically
    accessible."""

    def test_gated_path(self):
        fivestep = load_model("fivestep")
        assert _nested_chain(fivestep)
        r_star, _, certified = algorithm1(fivestep, 2)
        assert (r_star, certified) == (None, False)

    def test_step_ideal_path(self, monkeypatch):
        rational2d = load_model("rational2d")
        assert not _nested_chain(rational2d)
        steps = _count_rational_engine(monkeypatch)["_step_ideal"]
        r_star, _, certified = algorithm1(rational2d, 3)
        assert (r_star, certified, sorted(set(steps))) == (None, False, [2, 3])
        assert algorithm1(load_model("rational2d"), 4)[::2] == (3, True)

    def test_not_generically_accessible_stays_certified(self):
        r_star, final, certified = algorithm1(load_model("drift"))
        assert (r_star, final.is_zero_ideal, certified) == (None, True, True)


class TestAgreesWithTheStepIdeals:
    """The gated path against the unreduced reference: r*, the certified
    flag and the final reduced basis, at every horizon budget."""

    def test_fivestep(self):
        # the reference's step ideal at k = 4 alone takes seconds: k <= 3
        for max_k in (2, 3):
            got = algorithm1(load_model("fivestep"), max_k)
            want = _reference_index(load_model("fivestep"), max_k)
            assert _outcome(got) == _outcome(want), max_k

    @settings(max_examples=12)
    @given(st.tuples(*[st.fractions(-3, 3, max_denominator=4).filter(bool)] * 3))
    def test_free_parameter_coil(self, couplings):
        gated, reference = _coil(*couplings), _coil(*couplings)
        kappa = algorithm2(gated).kappa
        assert kappa is not None
        for max_k in range(gated.n, kappa + 2):
            got = algorithm1(gated, max_k)
            assert _outcome(got) == _outcome(_reference_index(reference, max_k))

    def test_free_parameter_coil_reversed(self):
        gated, reference = load_model("coil_reversed"), load_model("coil_reversed")
        assert algorithm2(gated).kappa == 3
        for max_k in range(gated.n, 5):
            got = algorithm1(gated, max_k)
            assert _outcome(got) == _outcome(_reference_index(reference, max_k))

    @settings(max_examples=8)
    @given(st.tuples(*[st.fractions(-3, 3, max_denominator=4).filter(bool)] * 3))
    def test_bound_coil_reversed(self, values):
        bind = lambda: load_model("coil_reversed").bind_params(dict(zip("Tab", values)))
        gated, reference = bind(), bind()
        kappa = algorithm2(gated).kappa
        assert kappa is not None
        for max_k in range(gated.n, kappa + 2):
            got = algorithm1(gated, max_k)
            assert _outcome(got) == _outcome(_reference_index(reference, max_k))

    def test_not_generically_accessible(self, monkeypatch):
        # det A = 1, so the map passes the gate; both states take the same
        # input, so every M_k has rank 1
        text = "system twin\nstates x1 x2\ninputs u\nx1' = x1 + u\nx2' = x2 + u\n"
        twin = _model(text)
        assert _nested_chain(twin)
        steps = _count_rational_engine(monkeypatch)["_step_ideal"]
        got = algorithm1(twin)
        assert steps == []
        r_star, final, certified = got
        assert (r_star, final.is_zero_ideal, certified) == (None, True, True)
        max_k = analysis.default_max_k(twin)
        assert _outcome(got) == _outcome(_reference_index(_model(text), max_k))


class TestFivestepByHand:
    """r* = 6 on fivestep, derived from systems/fivestep.sys.

    x1' = x2, x2' = -x1 + x2 + u*g(x2) with g(x2) = x2*(x2 - 1), and
    det A = 1.  Column t of M_k is A<k-1>...A<t+1> B<t>, and B<t> =
    (0, g(x2(t))).  While x2 lies in {0, 1} the input does nothing, and the
    state moves by L(a, b) = (b, b - a), of order 6: x2 runs through
    b, b - a, -a, -b, a - b, a.  Let t0 be the first time x2(t0) leaves
    {0, 1}.  Columns before t0 vanish, so t0 >= k - 1 leaves at most one
    nonzero column: rank < 2.  If t0 <= k - 2, x2(t0 + 1) = (stuff) +
    u(t0)*g(x2(t0)) is generic, and columns t0, t0 + 1 of M_{t0+2} form
    [[g(x2(t0)), 0], [*, g(x2(t0 + 1))]], nonzero; the invertible A's
    carry that to M_k.  So S_k is the set of (a, b) whose first k - 1
    values of x2 lie in {0, 1}:

    - V(I_4): b, b - a, -a in {0, 1}: (0, 0), (0, 1) and (-1, 0);
    - V(I_5): also -b in {0, 1}, so b = 0: (0, 0) and (-1, 0);
    - V(I_6): also a - b in {0, 1}: (0, 0) alone;
    - V(I_7): also a in {0, 1}: (0, 0) again, so r* = 6.
    """

    SETS = {4: [(0, 0), (0, 1), (-1, 0)], 5: [(0, 0), (-1, 0)], 6: [(0, 0)]}

    def test_index_and_radicals(self):
        fivestep = load_model("fivestep")
        r_star, final, certified = algorithm1(fivestep)
        assert (r_star, certified) == (6, True)
        reg = final.reg
        assert final.equal(vanishing_ideal(reg, self.SETS[6]))
        chain = fivestep._cache[("algorithm2", analysis.default_max_k(fivestep))].chain
        ideals = dict(zip((k for k, _ in chain.history), chain.ideals))
        for k, points in self.SETS.items():
            radical, cert = radical_heuristic(ideals[k])
            assert cert and radical.equal(vanishing_ideal(reg, points)), k

    def test_point_status(self, fivestep):
        x = lambda *p: tuple(map(Fraction, p))
        assert point_status(fivestep, x(0, 1), 4).in_S_k
        assert not point_status(fivestep, x(0, 1), 5).in_S_k
        assert point_status(fivestep, x(-1, 0), 5).in_S_k
        assert not point_status(fivestep, x(-1, 0), 6).in_S_k
        for k in range(2, 8):
            assert point_status(fivestep, x(0, 0), k).in_S_k, k


SHIFT2_FREE_C = (
    "system shift2\nparams c\nstates x1 x2\ninputs u\n"
    "x1' = x2\nx2' = -x1 + u*(x2^2 - c*x2)\n"
)
SHIFT3_FREE_A = (
    "system shift3\nparams a\nstates x1 x2 x3\ninputs u\n"
    "x1' = x2\nx2' = x3\nx3' = a*x1 + u*x3\n"
)


class TestNewestBlockOnly:
    """The unreduced walk of polynomial maps with free parameters: ranking
    only the minors that touch the newest input block, and reducing their
    coefficients once at the end, leaves every chain ideal as the sum of
    the full step ideals."""

    # (model, max_k, kappa): max_k None is the default budget; on shift2
    # with free c the budget of 4 runs out before the chain stabilizes
    CASES = [
        (lambda: load_model("coil"), None, 3),
        (lambda: _coil(2, Fraction(-1, 3), 3), None, 3),
        (lambda: _model(SHIFT3_FREE_A), None, 5),
        (lambda: _model(SHIFT2_FREE_C), 4, None),
    ]

    def test_chain_equals_cumulative_ideal(self):
        for make, max_k, kappa in self.CASES:
            sys = make()
            report = algorithm2(sys, max_k)
            assert report.kappa == kappa, sys.name
            assert report.budget_exhausted == (kappa is None), sys.name
            for k, basis in report.chain.history:
                ideal = Ideal(sys.reg, list(basis))
                assert ideal.equal(cumulative_ideal(sys, k)), (sys.name, k)

    def test_first_block_minors_are_skipped(self, monkeypatch):
        coil = load_model("coil")
        gens, _walk = analysis._new_step_generators(coil, 2, None)
        current = Ideal(coil.reg, gens)
        steps = _count_rational_engine(monkeypatch)["_step_ideal"]
        ranked = []
        collect = analysis.collect_by_class
        monkeypatch.setattr(
            analysis,
            "collect_by_class",
            lambda p, kind: ranked.append(p) or collect(p, kind),
        )
        new, _walk = analysis._new_step_generators(coil, 3, current)
        # M_3 has the column sets {0, 1}, {0, 2} and {1, 2}; {0, 1} lies in
        # the first block A<2> * M_2, and only the other two are ranked
        assert len(ranked) == 2 and steps == []
        assert (current + Ideal(coil.reg, new)).equal(cumulative_ideal(coil, 3))
