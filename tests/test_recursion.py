"""The one M_k recursion: its domains agree entry by entry, its two chain
engines agree, and the models it walks are freed by reference counting."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from accesskit import (
    Ideal,
    algorithm2,
    build_M,
    cumulative_ideal,
    ideal_equal,
    numeric_access_matrix,
    parse_system,
    point_status,
    simulate,
    to_system_model,
)
from accesskit.analysis import _point_matrix, _sample_matrix
from accesskit.errors import (
    DegenerateDenominatorError,
    IndeterminateError,
    PoleError,
)
from conftest import load_model


def _rat(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def _evaluate(entries, point):
    """Evaluate RationalFunction entries, each over its own registry."""
    return [
        [e.evaluate({n: point[n] for n in e.reg.names() if n in point}) for e in row]
        for row in entries
    ]


class TestDomainAgreement:
    """Symbolic, pinned, sampled and float matrices at the same (x, u)."""

    @pytest.fixture(scope="class")
    def models(self, coil, rational2d, fivestep):
        bound = coil.bind_params({"T": Fraction(1, 10), "a": 2, "b": Fraction(3, 2)})
        return [bound, rational2d, fivestep]

    def test_four_domains_agree(self, models):
        rng = random.Random(2024)
        checked = 0
        for sys in models:
            for k in (1, 2, 3):
                x = [_rat(rng) for _ in range(sys.n)]
                us = [[_rat(rng) for _ in range(sys.m)] for _ in range(k)]
                names = [
                    u if t == 0 else f"{u}({t})"
                    for t in range(k)
                    for u in sys.reg.inputs
                ]
                inputs = dict(zip(names, (v for step in us for v in step)))
                try:
                    symbolic = _evaluate(
                        build_M(sys, k),
                        {**dict(zip(sys.reg.states, x)), **inputs},
                    )
                    pinned = _evaluate(_point_matrix(sys, x, k), inputs)
                    sampled = _sample_matrix(
                        sys, x, [dict(zip(sys.reg.inputs, step)) for step in us]
                    )
                    floats = numeric_access_matrix(sys, x, us)
                except (PoleError, IndeterminateError, DegenerateDenominatorError):
                    continue  # rational2d: u + x1 = 0 somewhere on the walk
                checked += 1
                assert len(symbolic) == sys.n and len(symbolic[0]) == k * sys.m
                assert pinned == symbolic, (sys.name, k)
                assert sampled == symbolic, (sys.name, k)
                for i in range(sys.n):
                    for j in range(k * sys.m):
                        assert floats[i][j] == pytest.approx(
                            float(symbolic[i][j]), rel=1e-9, abs=1e-12
                        ), (sys.name, k, i, j)
        assert checked >= 8


def _polynomial_map(rng):
    """A small parameter-free polynomial map whose input enters through a
    factor g(x), so the chain ideals are proper and grow with k."""
    p, q, s = (rng.randint(-2, 2) for _ in range(3))
    g = rng.choice(
        ["x2", "x1", f"x2*(x2 - {rng.randint(1, 3)})", "x1*x2", "(x1 + x2)"]
    )
    text = (
        "system seeded\nstates x1 x2\ninputs u\n"
        f"x1' = x2 + ({p})*x1\nx2' = ({q})*x1 + ({s})*x2 + u*{g}\n"
    )
    return to_system_model(parse_system(text))


class TestEngineAgreement:
    """The reduced chain engine of `algorithm2` against the rational one."""

    def _check(self, sys, max_k):
        report = algorithm2(sys, max_k=max_k)
        assert report.chain is not None
        for k, basis in report.chain.history:
            assert ideal_equal(Ideal(sys.reg, list(basis)), cumulative_ideal(sys, k)), (
                sys.phi,
                k,
            )
        return len(report.chain.history)

    def test_fivestep(self, fivestep):
        # _step_ideal(fivestep, 4) alone takes seconds: stop at k = 3
        assert self._check(fivestep, 3) == 2

    def test_seeded_polynomial_maps(self):
        rng = random.Random(5)
        steps = [self._check(_polynomial_map(rng), 3) for _ in range(6)]
        assert sum(n == 2 for n in steps) >= 3


class TestModelsFreed:
    """No reference cycle keeps a dropped model alive: the matrix walk
    caches plain per-step data, never a generator or a closure over the
    model, and the numeric oracle's cache holds no reference back to it."""

    def _freed(self, name, analyse):
        model = load_model(name)
        analyse(model)
        ref = weakref.ref(model)
        del model
        return ref() is None

    def test_after_analysis(self):
        gc.disable()
        try:
            assert self._freed("coil", algorithm2)
            assert self._freed("fivestep", lambda m: algorithm2(m, max_k=3))
            # the origin takes the symbolic path, (1, 2) the sampled one
            assert self._freed("coil", lambda m: point_status(m, (0, 0), 3))
            assert self._freed("coil", lambda m: point_status(m, (1, 2), 3))
            assert self._freed("rational2d", lambda m: point_status(m, (0, 0), 2))
            # the float oracle caches its compiled evaluators on the model
            assert self._freed("fivestep", lambda m: simulate(m, [0, 1], [[1]]))
            assert self._freed(
                "fivestep", lambda m: numeric_access_matrix(m, [0, 1], [[1], [2]])
            )
        finally:
            gc.enable()
