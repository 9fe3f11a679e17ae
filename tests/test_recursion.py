"""The one M_k recursion: its domains agree entry by entry, its two chain
engines agree, the F_p certificate of point verdicts agrees with symbolic
elimination, and the models it walks are freed by reference counting."""

import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, islice

import pytest

from accesskit import (
    Ideal,
    RationalFunction,
    algorithm2,
    build_M,
    collect_by_class,
    cumulative_ideal,
    generic_accessibility,
    numeric_access_matrix,
    parse_system,
    point_status,
    simulate,
    symbolic_rank,
    to_system_model,
)
from accesskit import analysis
from accesskit.analysis import _P, _ev_mod_p, _matrix_mod_p, _point_matrix, _residue
from accesskit.system import (
    _numerator_det,
    access_steps,
    bareiss_determinant,
    flow_env,
    walk_matrix,
)
from accesskit.errors import (
    DegenerateDenominatorError,
    IndeterminateError,
    PoleError,
    ZeroPolynomialError,
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
    """Symbolic, pinned, F_p and float matrices at the same (x, u)."""

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
                    residues = [[_residue(v) for v in step] for step in us]
                    modular = _matrix_mod_p(sys, x, [], residues)
                    floats = numeric_access_matrix(sys, x, us)
                except (PoleError, IndeterminateError, DegenerateDenominatorError):
                    continue  # rational2d: u + x1 = 0 somewhere on the walk
                checked += 1
                assert len(symbolic) == sys.n and len(symbolic[0]) == k * sys.m
                assert pinned == symbolic, (sys.name, k)
                assert modular == [[_residue(v) for v in row] for row in symbolic], (
                    sys.name,
                    k,
                )
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
            assert Ideal(sys.reg, list(basis)).equal(cumulative_ideal(sys, k)), (
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


def _from_scratch(sys, k, current, walk=None):
    """Reference for the reduced engine: M_k walked from the start modulo
    the chain ideal so far, and every n x n column set ranked.  A rational
    map walks on RationalFunction entries with reduced numerators."""
    red = (lambda p: p) if current is None else partial(current.reduce, normalize=False)
    if all(f.is_polynomial for f in sys.phi):
        x0 = [sys.reg.var(s) for s in sys.reg.states]
        det, entry = bareiss_determinant, red
        ev = lambda f, env: red(f.num.substitute(env))
    else:
        x0 = [RationalFunction(sys.reg.var(s)) for s in sys.reg.states]
        det, entry = _numerator_det, lambda f: RationalFunction(red(f.num), f.den)
        ev = lambda f, env: entry(f.substitute(env))
    M = walk_matrix(sys, x0, k, partial(flow_env, sys.reg), ev, entry)
    gens = []
    for colset in combinations(range(k * sys.m), sys.n):
        p = red(det([[row[j] for j in colset] for row in M]))
        gens.extend(collect_by_class(p, "input").values())
    return gens, None


def _summary(report):
    """kappa, the chain history term for term and the singular set."""
    history = [
        (k, [(g.reg.key, g.terms) for g in basis]) for k, basis in report.chain.history
    ]
    s = report.singular_set
    return report.kappa, history, (s.kind, s.points, s.boxes, s.generators)


def _text_model(name, *equations):
    states = " ".join(f"x{i + 1}" for i in range(len(equations)))
    body = "".join(f"x{i + 1}' = {e}\n" for i, e in enumerate(equations))
    return to_system_model(
        parse_system(f"system {name}\nstates {states}\ninputs u\n{body}")
    )


class TestCarriedWalk:
    """`algorithm2` on maps whose denominators use no state walks M_k once
    over the whole chain, re-reduced modulo each new chain ideal, and ranks
    only the column sets that touch the newest input block."""

    @staticmethod
    def _maps():
        """Fresh models: fivestep, a shift2- and a shift3-shaped map, a
        bound coil, the seeded polynomial maps, a bound coil_reversed and a
        rational map whose chain reduces the walk's entries."""
        rng = random.Random(5)
        bind = {"T": Fraction(1, 7), "a": 2, "b": 3}
        return [
            load_model("fivestep"),
            _text_model("shift2", "x2", "-x1 + u*(x2^2 - (3/2)*x2)"),
            _text_model("shift3", "x2", "x3", "(-2/3)*x1 + u*x3"),
            load_model("coil").bind_params(bind),
            *(_polynomial_map(rng) for _ in range(6)),
            load_model("coil_reversed").bind_params(bind),
            _text_model("quadratic", "x2/(u + 1)", "(x1^2 + u*x2)/(u^2 + 2)"),
        ]

    @pytest.fixture(scope="class")
    def maps(self):
        return self._maps()

    def test_identical_to_the_walk_from_the_start(self, maps, monkeypatch):
        carried = [algorithm2(sys) for sys in maps]
        monkeypatch.setattr(analysis, "_reduced_step_generators", _from_scratch)
        for sys, report in zip(maps, carried):
            assert _summary(report) == _summary(algorithm2(sys)), sys.phi
        # fivestep is walked up to kappa + 1 = 7
        assert carried[0].kappa == 6 and carried[0].chain.history[-1][0] == 6

    def test_work_on_fivestep(self, monkeypatch):
        dets, steps = [], []
        det, env = analysis.bareiss_determinant, analysis.flow_env
        monkeypatch.setattr(
            analysis, "bareiss_determinant", lambda mat: dets.append(1) or det(mat)
        )
        monkeypatch.setattr(
            analysis, "flow_env", lambda *a: steps.append(a[-1]) or env(*a)
        )
        report = algorithm2(load_model("fivestep"))
        assert report.kappa == 6
        # sum over k = 2..7 of the k - 1 sets that touch the last column
        # (C(k, 2) each walking from the start: 56 determinants)
        assert len(dets) == 21
        # one step per horizon t = 0..6 (2 + 3 + ... + 7 = 27 from the start)
        assert steps == list(range(7))

    def test_ranked_entries_are_normal_forms(self, maps, monkeypatch):
        chain = []
        step = analysis._reduced_step_generators

        def recorded(sys, k, current, walk=None):
            chain.append(current)
            return step(sys, k, current, walk)

        def checked(mat, det):
            current = chain[-1]
            if current is not None:
                for row in mat:
                    for e in row:
                        num = e.num if isinstance(e, RationalFunction) else e
                        assert current.reduce(num, normalize=False) == num
            return det(mat)

        monkeypatch.setattr(analysis, "_reduced_step_generators", recorded)
        for name in ("bareiss_determinant", "_numerator_det"):
            det = partial(checked, det=getattr(analysis, name))
            monkeypatch.setattr(analysis, name, det)
        for sys in maps:
            algorithm2(sys)
        assert sum(c is not None for c in chain) >= 2 * len(maps)

    def test_no_walk_state_kept_between_analyses(self, maps):
        for sys, reference in zip(self._maps(), maps):
            generic = generic_accessibility(sys)
            first, second = algorithm2(sys), algorithm2(sys)
            assert generic == first.generically_accessible
            assert _summary(first) == _summary(second), sys.phi
            assert _summary(first) == _summary(algorithm2(reference)), sys.phi


def _exact(rows):
    """Matrix entries as registry, numerator and denominator terms."""
    if rows is None:
        return None
    return [[(e.reg.key, e.num.terms, e.den.terms) for e in row] for row in rows]


class TestResumedWalk:
    """A walk resumed from its own step record is the uninterrupted walk,
    entry for entry.  fivestep and rational2d stop at horizon 4: the
    symbolic M_5 takes 35 s on fivestep and over an hour on rational2d."""

    @staticmethod
    def _models():
        coil = load_model("coil").bind_params({"T": Fraction(1, 10), "a": 2, "b": 3})
        return [
            (load_model("rational2d"), 4),
            (load_model("coil_reversed"), 5),
            (coil, 5),
            (load_model("fivestep"), 4),
        ]

    def test_build_M_resumes_exactly(self):
        for (resumed, top), (whole, _top) in zip(self._models(), self._models()):
            build_M(resumed, 2)
            build_M(resumed, top)
            build_M(whole, top)
            x0 = [RationalFunction(whole.reg.var(s)) for s in whole.reg.states]
            bind, ev = partial(flow_env, whole.reg), RationalFunction.substitute
            fresh = list(islice(access_steps(whole, x0, bind, ev), top))
            records = [resumed._cache["walk"], whole._cache["walk"], fresh]
            assert [len(r) for r in records] == [top] * 3, resumed.name
            for t, steps in enumerate(zip(*records), 1):
                assert {step.t for step in steps} == {t}
                assert (steps[0].A is None) == (t == 1)
                for step in steps[1:]:
                    assert _exact(step.M) == _exact(steps[0].M), (resumed.name, t)
                    assert _exact(step.A) == _exact(steps[0].A), (resumed.name, t)
                M = walk_matrix(whole, x0, t, bind, ev)
                assert _exact(M) == _exact(steps[0].M), (resumed.name, t)

    def test_residue_walk_resumes_exactly(self):
        rng = random.Random(18)
        for sys, _top in self._models():
            params = [rng.randrange(_P) for _ in sys.reg.params]
            inputs = [[rng.randrange(_P) for _ in range(sys.m)] for _ in range(5)]
            bind = lambda x, t: (*params, *x, *inputs[t])
            x = [rng.randrange(_P) for _ in range(sys.n)]
            red = lambda v: v % _P
            whole = list(islice(access_steps(sys, x, bind, _ev_mod_p, red), 5))
            resumed = access_steps(sys, whole[1], bind, _ev_mod_p, red)
            assert list(islice(resumed, 3)) == whole[2:], sys.name
            assert [step.t for step in whole] == [1, 2, 3, 4, 5]


def _symbolic_verdict(sys, x0, k):
    """(in S_k, undefined) by symbolic elimination alone."""
    try:
        rank = symbolic_rank(_point_matrix(sys, x0, k))
    except (DegenerateDenominatorError, PoleError, ZeroPolynomialError):
        return False, True
    return rank < sys.n, False


class TestPointCertificate:
    """`point_status`, which first tries the F_p full-rank certificate,
    against symbolic elimination of the pinned matrix, at k = 1 .. kappa+1.
    Off-set points of fivestep past k = 4 are left out: their symbolic
    matrices take seconds each.  Its trajectory point (0, 1) stays in S_k
    up to k = 4 and is cheap to k = 7."""

    @pytest.fixture(scope="class")
    def cases(self, coil, coil_reversed, rational2d, fivestep):
        rng = random.Random(14)
        seeded_rng = random.Random(5)
        seeded = [_polynomial_map(seeded_rng) for _ in range(4)]
        # x1 - 1 vanishes on the state (1, 0) and one step after (0, 1)
        pole = to_system_model(
            parse_system(
                "system pole\nstates x1 x2\ninputs u\n"
                "x1' = x2\nx2' = x1 + u/(x1 - 1)\n"
            )
        )
        out = []
        for sys, kappa in (
            (coil, 3),
            (coil_reversed, 3),
            (rational2d, 3),
            (fivestep, 6),
            (pole, 2),
            *((m, 3) for m in seeded),
        ):
            points = [(0,) * sys.n] + [
                tuple(_rat(rng) for _ in range(sys.n)) for _ in range(2)
            ]
            if sys is fivestep:
                points.append((0, 1))
            if sys is pole:
                points += [(0, 1), (1, 0)]
            for x0 in points:
                top = 4 if sys is fivestep and x0 not in ((0, 0), (0, 1)) else kappa + 1
                for k in range(1, top + 1):
                    out.append((sys, x0, k, _symbolic_verdict(sys, x0, k)))
        return out

    def _check(self, cases, monkeypatch):
        # one F_p sample per verdict, on the set, off it and undefined
        walks = []
        walk = analysis._matrix_mod_p

        def counted(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(analysis, "_matrix_mod_p", counted)
        sampled = 0
        for sys, x0, k, want in cases:
            walks.clear()
            v = point_status(sys, x0, k)
            assert (v.in_S_k, v.undefined) == want, (sys.name, x0, k)
            assert len(walks) == 1, (sys.name, x0, k)
            sampled += analysis._sampled_full_rank(sys, tuple(map(Fraction, x0)), k)
        return sampled

    def test_agrees_with_symbolic_elimination(self, cases, monkeypatch):
        assert {w for *_, w in cases} == {(True, False), (False, False), (False, True)}
        sampled = self._check(cases, monkeypatch)
        # every defined case off the set is certified by sampling
        assert sampled == sum(w == (False, False) for *_, w in cases)

    @pytest.mark.parametrize("prime", [7, 13])
    def test_agrees_with_symbolic_elimination_mod_small_prime(
        self, cases, prime, monkeypatch, coil
    ):
        # a small prime makes non-unit coefficients and zero denominators
        # common; each such sample is skipped, never trusted
        skipped = Counter()
        walk = analysis._matrix_mod_p

        def counted(*args):
            try:
                return walk(*args)
            except PoleError as exc:
                skipped[str(exc)] += 1
                raise

        monkeypatch.setattr(analysis, "_P", prime)
        monkeypatch.setattr(analysis, "_matrix_mod_p", counted)
        bound = coil.bind_params({"T": Fraction(1, prime), "a": 2, "b": 3})
        extra = [
            (bound, x0, k, _symbolic_verdict(bound, x0, k))
            for x0 in ((1, 2), (Fraction(1, prime), 1))
            for k in (2, 3)
        ]
        sampled = self._check(cases + extra, monkeypatch)
        assert sampled > 0
        assert set(skipped) == {
            "a denominator is divisible by the prime",
            "pole: denominator vanishes modulo the prime",
        }


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
