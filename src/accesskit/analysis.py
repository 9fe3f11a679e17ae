"""Top-level accessibility decision procedures.

Two symbolic paths decide where a rational discrete-time system can reach:
the stabilized cumulative minor-coefficient ideal (kappa and the singular
set) and the real-radical chain (the accessibility index r*).  Both walk
the same ladder of accessibility matrices M_k.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations

from .groebner import Ideal, radical_heuristic, solve_zero_dim, to_state_ring
from .errors import (
    DegenerateDenominatorError,
    IndeterminateError,
    PoleError,
    ZeroPolynomialError,
)
from .ring import RationalFunction, _content_in, collect_by_class, square_free_part
from .system import (
    bareiss_determinant,
    build_M,
    flow_env,
    minor_determinants,
    submersivity_check,
    symbolic_rank,
    walk_matrix,
)


@dataclass
class ChainState:
    """Progress of an ideal chain: current horizon, current ideal, and the
    per-step history as (k, reduced basis) pairs."""

    k: int
    ideal: Ideal
    history: list = field(default_factory=list)

    def record(self, k, ideal):
        self.k = k
        self.ideal = ideal
        self.history.append((k, tuple(ideal.groebner_basis())))


@dataclass
class SingularSet:
    """Description of the non-accessible states.

    kind: 'points' (explicit rational points), 'boxes' (real but irrational,
    isolating intervals), 'generators' (positive-dimensional or undecided,
    described by the ideal basis), 'empty', or 'entire'.
    """

    kind: str
    points: list = field(default_factory=list)
    boxes: list = field(default_factory=list)
    generators: list = field(default_factory=list)
    message: str = ""


@dataclass
class AnalysisReport:
    system_name: str
    mode: str  # 'forward' or 'backward'
    submersive: bool
    generically_accessible: bool
    kappa: int | None = None
    budget_exhausted: bool = False
    r_star: int | None = None
    r_star_certified: bool | None = None
    singular_set: SingularSet | None = None
    excluded_locus: list = field(default_factory=list)
    chain: ChainState | None = None


@dataclass
class PointVerdict:
    point: tuple
    k: int
    in_S_k: bool
    undefined: bool


def default_max_k(sys):
    """No a-priori stabilization bound exists; 2n+4 covers every worked
    case with slack and stays cheap to exhaust."""
    return 2 * sys.n + 4


def _locus_factor(den):
    """Square-free part of the input-free factor of a denominator, or None
    when it is constant: the states where the entry has a pole for every
    input."""
    if den.is_constant:
        return None
    cont = _content_in(den, den.reg.class_indices("input"))
    if cont.is_constant:
        return None
    sf = square_free_part(to_state_ring(cont))
    return None if sf.is_constant else sf


def _step(sys, k):
    """The step-k record, built once per model: the minor-coefficient ideal
    I_{M_k} (the input-monomial coefficients of the numerators of the n x n
    minors of M_k) and the excluded-locus factors of M_k's entries and
    minors, in first-seen order."""
    key = ("step", k)
    if key not in sys._cache:
        dets = minor_determinants(sys, k).values()
        dens = [e.den for row in build_M(sys, k) for e in row]
        dens += [d.den for d in dets]
        locus = [f for f in map(_locus_factor, dens) if f is not None]
        gens = [c for d in dets for c in collect_by_class(d.num, "input").values()]
        sys._cache[key] = (Ideal(sys.reg, gens), list(dict.fromkeys(locus)))
    return sys._cache[key]


def _step_ideal(sys, k):
    return _step(sys, k)[0]


def _locus_upto(sys, k):
    """Excluded-locus factors of steps 1..k, in first-seen order.  A
    polynomial map has none: every entry and minor has a constant
    denominator."""
    if all(f.is_polynomial for f in sys.phi):
        return []
    return list(dict.fromkeys(f for j in range(1, k + 1) for f in _step(sys, j)[1]))


def _fast_chain_ok(sys):
    """The reduced-modulo-the-chain engine is exact only when normal forms
    are plain reductions: polynomial transition map, no free parameters."""
    return not sys.params and all(f.is_polynomial for f in sys.phi)


def _reduced_step_generators(sys, k, current):
    """Generators of the step-k minor-coefficient ideal, computed with all
    intermediate data reduced modulo the chain ideal so far.

    Replacing generators by their normal forms leaves the cumulative ideal
    sum unchanged, and polynomial maps preserve congruences, so reducing
    the shifted states and matrix entries at every stage is exact for the
    chain — while keeping expression growth flat.
    """
    n, m = sys.n, sys.m
    if k * m < n:
        return []
    target = sys.reg.with_horizon(k)
    # parameter-free: the basis has constant leading coefficients, so the
    # normal form is congruent to p and linear in the input monomials
    red = (lambda p: p) if current is None else partial(current.reduce, normalize=False)

    def bind(x, t):
        env = dict(zip(sys.reg.states, x))
        for base in sys.reg.inputs:
            env[base] = target.var(f"{base}({t})")
        return env

    x0 = [target.var(s) for s in sys.reg.states]
    ev = lambda f, env: red(f.num.substitute(env))
    M = walk_matrix(sys, x0, k, bind, ev, red)

    # Every input-monomial coefficient of a reduced minor is a nonzero
    # normal form, so none of them lies in the chain ideal so far.
    gens = []
    for colset in combinations(range(k * m), n):
        sub = [[M[i][j] for j in colset] for i in range(n)]
        det = red(bareiss_determinant(sub))
        gens.extend(collect_by_class(det, "input").values())
    return gens


def _new_step_generators(sys, k, current):
    """Generators of the step-k minor-coefficient ideal that are not in the
    chain ideal so far (all of them when there is none yet)."""
    if _fast_chain_ok(sys):
        return _reduced_step_generators(sys, k, current)
    gens = _step_ideal(sys, k).generators
    if current is None:
        return list(gens)
    return [g for g in gens if not current.contains(g)]


def generic_accessibility(sys):
    """Generic accessibility: M_n has generic rank n.  That holds exactly
    when some n x n minor of M_n is nonzero, that is, when the step-n
    minor-coefficient ideal has a generator."""
    return bool(_new_step_generators(sys, sys.n, None))


def _singular_description(ideal):
    if ideal.contains_one():
        return SingularSet(kind="empty")
    sol = solve_zero_dim(ideal)
    if sol.status == "points":
        return SingularSet(kind="points", points=sol.points)
    gens = [str(g) for g in ideal.groebner_basis()]
    if sol.status == "irrational":
        return SingularSet(
            kind="boxes", boxes=sol.boxes, generators=gens, message=sol.message
        )
    return SingularSet(kind="generators", generators=gens, message=sol.message)


def algorithm2(sys, max_k=None, mode="forward"):
    """Stabilize the cumulative minor-coefficient ideal: the first horizon
    where adding the next step changes nothing gives kappa, and the zero set
    of the stabilized ideal is the set of never-accessible states."""
    if max_k is None:
        max_k = default_max_k(sys)
    n = sys.n
    report = AnalysisReport(
        system_name=sys.name,
        mode=mode,
        submersive=submersivity_check(sys),
        generically_accessible=False,
    )
    gens = _new_step_generators(sys, n, None)
    if not gens:
        report.singular_set = SingularSet(
            kind="entire", message="not generically accessible"
        )
        report.excluded_locus = _locus_upto(sys, n)
        return report
    report.generically_accessible = True
    current = Ideal(sys.reg, gens)
    chain = report.chain = ChainState(k=n, ideal=current)
    chain.record(n, current)
    k = n
    while k < max_k:
        new = _new_step_generators(sys, k + 1, current)
        if not new:
            # the chain is ascending, so one-way containment decides equality
            report.kappa = k
            break
        current = current + Ideal(sys.reg, new)
        k += 1
        chain.record(k, current)
    else:
        report.budget_exhausted = True
    report.excluded_locus = _locus_upto(sys, min(k + 1, max_k))
    if report.kappa is not None:
        report.singular_set = _singular_description(current)
    return report


def algorithm1(sys, max_k=None):
    """Real-radical chain: the first horizon where the radical of the
    per-step minor-coefficient ideal stops growing is the accessibility
    index r*.  Returns (r_star, final ideal, certified)."""
    if max_k is None:
        max_k = default_max_k(sys)
    n = sys.n
    step = _step_ideal(sys, n)
    if step.is_zero_ideal:  # not generically accessible
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
    return None, current, certified


def cumulative_ideal(sys, k):
    """Sum of the minor-coefficient ideals up to horizon k."""
    total = None
    for j in range(1, k + 1):
        step = _step_ideal(sys, j)
        if not step.generators:
            continue
        total = step if total is None else total + step
    return total if total is not None else Ideal(sys.reg, [])


def _point_matrix(sys, x0, k):
    """The k-step accessibility matrix with the state bound to an exact
    rational point; entries depend on inputs (and parameters) only."""
    consts = [RationalFunction(sys.reg.const(v)) for v in x0]
    return walk_matrix(
        sys, consts, k, partial(flow_env, sys.reg), RationalFunction.substitute
    )


def _sample_matrix(sys, x0, values):
    """The k-step accessibility matrix at exact values, k = len(values):
    values[t] binds the parameters and the inputs of step t."""

    def bind(x, t):
        env = dict(values[t])
        env.update(zip(sys.reg.states, x))
        return env

    return walk_matrix(sys, x0, len(values), bind, RationalFunction.evaluate)


# Exact samples `_sampled_full_rank` draws before it gives up.
_SAMPLE_TRIALS = 3


def _sampled_full_rank(sys, x0, k):
    """Certify full rank of the point-pinned matrix by exact sampling.

    The whole recursion is evaluated over the rationals at random
    input/parameter values, so no symbolic expression in the inputs is
    ever built.  The rank at an exact sample bounds the generic rank from
    below: reaching n is a proof, a deficient sample proves nothing and
    the caller falls back to symbolic elimination."""
    rng = random.Random(0x5EED)
    draw = lambda: Fraction(rng.randint(-19, 19), rng.randint(1, 7))
    for _ in range(_SAMPLE_TRIALS):
        point = {p: draw() for p in sys.reg.params}
        values = [{**point, **{u: draw() for u in sys.reg.inputs}} for _ in range(k)]
        try:
            M = _sample_matrix(sys, x0, values)
        except (PoleError, IndeterminateError):
            continue
        if symbolic_rank(M) == sys.n:
            return True
    return False


def point_status(sys, x0, k):
    """Membership of an exact rational point in the k-step non-accessible
    set: does the accessibility matrix pinned to the point stay rank
    deficient for every input sequence?"""
    x0 = tuple(Fraction(v) for v in x0)
    if len(x0) != sys.n:
        raise ValueError("point dimension does not match the state count")
    try:
        if _sampled_full_rank(sys, x0, k):
            rank = sys.n
        else:
            rank = symbolic_rank(_point_matrix(sys, x0, k))
    except (DegenerateDenominatorError, PoleError, ZeroPolynomialError):
        return PointVerdict(point=x0, k=k, in_S_k=False, undefined=True)
    return PointVerdict(point=x0, k=k, in_S_k=rank < sys.n, undefined=False)


def invariance_check(ideal, sys):
    """Certify that the zero set of the ideal is forward invariant: every
    generator composed with the transition map must land back in the ideal
    for every input, that is, over the field of the inputs."""
    bindings = dict(zip(sys.reg.states, sys.phi))
    return all(ideal.contains(g.substitute(bindings).num) for g in ideal.generators)


def backward_analysis(inverse_sys, max_k=None):
    """Backward accessibility of the original system equals forward
    accessibility of the user-supplied time-inverse system."""
    return algorithm2(inverse_sys, max_k=max_k, mode="backward")
