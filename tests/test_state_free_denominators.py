"""Maps whose component denominators use no state walk M_k on
RationalFunction entries (`analysis._reduced_step_generators`) and read
their chain generators off the numerators of its minors
(`_numerator_det`).  Every whole step ideal, on these maps as on any
other, comes from the reduced minors (`_step_ideal`, which reads
`minor_determinants`).

The walk's generators with no chain, every column set ranked, must
generate that step ideal, and the excluded locus must stay the one the
entries and minors of M_k give.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accesskit import Ideal, build_M, parse_system, to_system_model
from accesskit import analysis
from accesskit.analysis import (
    _locus_factor,
    _locus_upto,
    _reduced_step_generators,
    _state_free_denominators,
    _step_ideal,
    algorithm1,
    algorithm2,
    cumulative_ideal,
)
from accesskit.system import minor_determinants
from conftest import load_model


def _model(text):
    return to_system_model(parse_system(text))


def _full_locus(sys, k):
    """The excluded locus from every entry and minor of M_1..M_k."""
    dens = []
    for j in range(1, k + 1):
        dens += [e.den for row in build_M(sys, j) for e in row]
        dens += [d.den for d in minor_determinants(sys, j).values()]
    return list(dict.fromkeys(f for f in map(_locus_factor, dens) if f is not None))


def _assert_same_steps(sys, ks):
    assert _state_free_denominators(sys)
    for k in ks:
        walked = Ideal(sys.reg, _reduced_step_generators(sys, k, None)[0])
        assert walked.equal(_step_ideal(sys, k)), k
    assert _locus_upto(sys, max(ks)) == _full_locus(sys, max(ks))


THREE_STATE = (
    "system three\nstates x1 x2 x3\ninputs u\n"
    "x1' = x2\nx2' = x3/(1 + u)\nx3' = (x1 + u*x3^2)/(1 + u)\n"
)
INPUT_ROOTS = (
    "system roots\nstates x1 x2\ninputs u\n"
    "x1' = (x2 + u*x1)/(u*(u + 1))\nx2' = (x1^2 + u*x2)/u\n"
)
PARAMETRIC = (
    "system parametric\nparams a b\nstates x1 x2\ninputs u\n"
    "x1' = (x2 + u)/(b*u + 1)\nx2' = (x1*x2 + u*x1)/(a + u)\n"
)
QUADRATIC = (
    "system quadratic\nstates x1 x2\ninputs u\n"
    "x1' = x2/(u + 1)\nx2' = (x1^2 + u*x2)/(u^2 + 2)\n"
)


class TestStepIdeals:
    def test_coil_reversed(self):
        _assert_same_steps(load_model("coil_reversed"), range(1, 5))

    def test_coil_reversed_bound(self):
        sys = load_model("coil_reversed").bind_params({"T": 1, "a": 2, "b": 3})
        _assert_same_steps(sys, range(1, 5))

    @pytest.mark.parametrize(
        "text", [THREE_STATE, INPUT_ROOTS, PARAMETRIC], ids=["three", "roots", "params"]
    )
    def test_small_maps(self, text):
        _assert_same_steps(_model(text), range(1, 4))

    def test_quadratic_denominator(self):
        # k = 3 of the reduced minors (`_step_ideal`) takes many seconds
        _assert_same_steps(_model(QUADRATIC), range(1, 3))

    def test_state_dependent_denominators_keep_the_reduced_minors(self):
        rational2d = load_model("rational2d")
        assert not _state_free_denominators(rational2d)
        _step_ideal(rational2d, 2)
        assert ("minor_dets", 2) in rational2d._cache
        assert ("step walk", 2) not in rational2d._cache

    def test_state_free_denominators_take_the_minors(self):
        sys = load_model("coil_reversed")
        _step_ideal(sys, 2)
        assert ("minor_dets", 2) in sys._cache
        assert not any("step walk" in key for key in sys._cache)


_NUMERATORS = ("x1", "x2", "x1^2", "x2^2", "x1*x2", "u*x1", "u*x2", "u*x1^2", "u")
_DENOMINATORS = ("1", "u + 1", "u", "u^2 + 2", "2*u - 3", "u*(u + 1)")


@st.composite
def state_free_maps(draw):
    comps = []
    for _ in range(2):
        terms = draw(st.lists(st.sampled_from(_NUMERATORS), min_size=1, max_size=3))
        coeffs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=3, max_size=3))
        num = " + ".join(f"({c})*{t}" for c, t in zip(coeffs, terms))
        comps.append(f"({num})/({draw(st.sampled_from(_DENOMINATORS))})")
    return _model(
        "system drawn\nstates x1 x2\ninputs u\n"
        f"x1' = {comps[0]}\nx2' = {comps[1]}\n"
    )


@settings(max_examples=40)
@given(state_free_maps())
def test_drawn_maps_keep_their_step_ideals(sys):
    _assert_same_steps(sys, range(1, 3))


def test_input_free_content_keeps_its_locus():
    # a*u + a has the content a in the input: a pole for every input
    sys = _model(
        "system content\nparams a\nstates x1 x2\ninputs u\n"
        "x1' = x2/(a*u + a)\nx2' = x1 + u\n"
    )
    assert _state_free_denominators(sys)
    assert [str(f) for f in algorithm2(sys).excluded_locus] == ["a"]


def test_quadratic_denominator_chain():
    # k = 3 of this map takes about 20 s in _det_rational's cofactor rule;
    # the chain walk reduces its entries and needs a fraction of a second
    report = algorithm2(_model(QUADRATIC))
    assert report.kappa == 2
    assert [str(g) for g in report.chain.history[-1][1]] == ["x2^2", "x1^2*x2", "x1^4"]


def test_bound_coil_reversed_takes_no_reduced_minor(monkeypatch):
    calls = []
    counted = lambda sys, k, f=analysis.minor_determinants: calls.append(k) or f(sys, k)
    monkeypatch.setattr(analysis, "minor_determinants", counted)
    sys = load_model("coil_reversed").bind_params({"T": 1, "a": 2, "b": 3})
    report = algorithm2(sys)
    assert (report.kappa, report.excluded_locus) == (3, [])
    assert algorithm1(sys)[0] == 3
    assert calls == []


def test_cumulative_ideal_takes_no_chain_walk(monkeypatch):
    # the chain's reference must not share the walk or `_numerator_det`
    calls = {}
    for name in ("_reduced_step_generators", "_numerator_det"):
        log, f = calls.setdefault(name, []), getattr(analysis, name)
        counted = lambda *a, log=log, f=f: log.append(1) or f(*a)
        monkeypatch.setattr(analysis, name, counted)
    assert not cumulative_ideal(load_model("coil_reversed"), 3).is_zero_ideal
    assert calls == {"_reduced_step_generators": [], "_numerator_det": []}
