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
    PoleError,
    ZeroPolynomialError,
)
from .ring import (
    _P61,
    RationalFunction,
    _content_in,
    collect_by_class,
    square_free_part,
)
from .system import (
    _numerator_det,
    access_steps,
    bareiss_determinant,
    build_M,
    flow_env,
    jacobians,
    minor_determinants,
    submersivity_check,
    symbolic_rank,
    walk_matrix,
)


@dataclass
class ChainState:
    """Progress of an ideal chain: the current ideal, the ideal at each
    step, and the per-step history as (k, reduced basis) pairs."""

    ideal: Ideal | None = None
    ideals: list = field(default_factory=list)
    history: list = field(default_factory=list)

    def record(self, k, ideal):
        self.ideal = ideal
        self.ideals.append(ideal)
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


def _state_free_denominators(sys):
    """No component denominator of the map uses a state; a polynomial map
    has constant ones."""
    return all(f.den.variables_used().isdisjoint(f.reg.state_indices) for f in sys.phi)


def _step_ideal(sys, k):
    """The minor-coefficient ideal I_{M_k}, built once per model: the
    input-monomial coefficients of the numerators of the reduced n x n
    minors of M_k (`minor_determinants`), for every map."""
    key = ("step", k)
    if key not in sys._cache:
        nums = (d.num for d in minor_determinants(sys, k).values())
        gens = [c for p in nums for c in collect_by_class(p, "input").values()]
        sys._cache[key] = Ideal(sys.reg, gens)
    return sys._cache[key]


def _locus_upto(sys, k):
    """Excluded-locus factors of the entries and minors of M_1..M_k, in
    first-seen order.

    There are none when every component denominator is free of the states
    and has constant content in the inputs, as on a polynomial map.  The
    denominator of each entry and minor then divides a product of
    component denominators shifted along the walk; a product of
    polynomials of content 1 in the inputs has content 1 (Gauss), and so
    has each of its factors."""
    if _state_free_denominators(sys) and all(
        _locus_factor(f.den) is None for f in sys.phi
    ):
        return []
    dens = []
    for j in range(1, k + 1):
        dens += [e.den for row in build_M(sys, j) for e in row]
        dens += [d.den for d in minor_determinants(sys, j).values()]
    return list(dict.fromkeys(f for f in map(_locus_factor, dens) if f is not None))


def _polynomial_map(sys):
    """Every component of the transition map is a polynomial: the chain
    walk then runs on `Polynomial` entries."""
    return all(f.is_polynomial for f in sys.phi)


def _nested_chain(sys):
    """The gate of the nesting lemma (see `algorithm1`, its only caller):
    no component denominator uses a state, and the input-monomial
    coefficients of the numerator of det A (`_numerator_det`, which keeps
    their ideal; see `_reduced_step_generators`) generate <1>, parameters
    counting as generic nonzero constants.  Then det A vanishes
    identically in the inputs at no state."""
    if not _state_free_denominators(sys):
        return False
    det = _numerator_det(jacobians(sys)[0])
    return Ideal(sys.reg, collect_by_class(det, "input").values()).contains_one()


def _reduced_step_generators(sys, k, current, walk=None):
    """The step-k generators new to the chain ideal `current`, from the
    walk of a map whose component denominators use no state, and the walk
    record WalkStep(k, env_{k-1}, A<k-1>, M_k) that the call at k + 1
    resumes from.  A None chain is step n, where the chain starts
    (`algorithm2`, `generic_accessibility`): the walk goes from the start,
    unreduced, and every column set is ranked.

    A polynomial map walks on `Polynomial` entries and takes Bareiss
    determinants; any other walks on `RationalFunction` entries and takes
    `_numerator_det`.  Either way every entry lies in R = K(u(0), ...,
    u(k-1))[x], with K = Q(params) the field of `groebner`: each
    denominator divides a product of shifted component denominators, so
    it uses no state.  The map is polynomial in the states over the field
    of the inputs, so it preserves congruences modulo J * R for every
    ideal J of K[x].

    Without parameters the numerator of each entry and of each minor is
    reduced modulo the chain ideal so far; an entry whose numerator is
    a normal form already is kept, with no gcd.  The basis then has
    constant leading coefficients, so a normal form is congruent to p
    and linear in the input monomials, and reducing P term by term over
    a state-free Q reduces P/Q modulo current * R.  Replacing generators
    by their normal forms leaves the chain unchanged, so reducing at
    every stage is exact, and it keeps expression growth flat.  With free
    parameters the walk runs unreduced: a leading coefficient of the
    basis may be a parameter polynomial, which `reduce(normalize=False)`
    does not invert, and a pseudo-remainder would scale each entry by its
    own unit and change the minors.  The coefficients of its minors are
    reduced once, normalized over K, and the zero ones dropped.

    The chain walks M_k once: `walk` is the record returned at k - 1
    (None walks from the start), and `access_steps` resumes from it.  On
    the reduced walk its M_{k-1} and the next state, phi at its
    environment, were reduced modulo the previous chain ideal; both are
    reduced again modulo `current` before the step.  The normal form
    modulo a Groebner basis is unique, and NF_new(NF_old(p)) = NF_new(p)
    because the old ideal lies in the new, so every entry of M_k equals
    the one a walk from the start reduced modulo `current` gives;
    reducing the carried entries before they are multiplied keeps the
    products small.

    Given a chain, only the column sets that touch the newest input block
    are ranked.  A set C inside the first block A<k-1> * M_{k-1} has the
    minor det A<k-1> * det M_{k-1}[:, C], with det A<k-1> in R.  The old
    minor lies in the step-(k-1) ideal times R, and `current`, the chain
    through step k - 1, contains that ideal, so the minor reduces to 0.
    A map whose denominators use a state may not skip these sets
    (`minor_determinants` ranks them): cancelling against such a
    denominator of det A<k-1> can leave a numerator outside the old
    coefficient ideal.

    A minor P/Q, reduced with Q free of the states, adds the least ideal
    J with P/Q in J * R: the one P's input-monomial coefficients
    generate.  `_numerator_det` gives P * F with F in K[u]: when every
    column shares one denominator d_j, det * prod(d_j), so F = prod(d_j)
    / Q, and otherwise P.  Write P = sum_i v_i(x) * a_i(u), the v_i a
    basis of the K-span of P's coefficients; the a_i are then linearly
    independent, and multiplying by F, injective and K-linear, keeps
    them so.  The coefficients of P * F span the same K-space as P's and
    generate the same ideal, with the same reduced basis.
    """
    n, m = sys.n, sys.m
    # parameter-free: the basis has constant leading coefficients, so the
    # normal form is congruent to p and linear in the input monomials
    reduced = current is not None and not sys.params
    red = partial(current.reduce, normalize=False) if reduced else (lambda p: p)
    if _polynomial_map(sys):
        var, det, entry = sys.reg.var, bareiss_determinant, red
        ev = lambda f, env: red(f.num.substitute(env))
    else:
        var, det = lambda s: RationalFunction(sys.reg.var(s)), _numerator_det
        keep = lambda f, p: f if p == f.num else RationalFunction(p, f.den)
        entry = (lambda f: keep(f, red(f.num))) if reduced else red
        ev = lambda f, env: entry(f.substitute(env))
    start = walk or [var(s) for s in sys.reg.states]
    steps = access_steps(sys, start, partial(flow_env, sys.reg), ev, entry)
    walk = next(step for step in steps if step.t == k)
    M = walk.M

    # Every input-monomial coefficient of a reduced minor is a nonzero
    # normal form, so none of them lies in the chain ideal so far.
    first = 0 if current is None else (k - 1) * m
    gens = []
    for colset in combinations(range(k * m), n):
        if colset[-1] < first:
            continue
        p = red(det([[M[i][j] for j in colset] for i in range(n)]))
        gens.extend(collect_by_class(p, "input").values())
    if current is not None and not reduced:
        gens = [g for g in map(current.reduce, dict.fromkeys(gens)) if not g.is_zero]
    return gens, walk


def _new_step_generators(sys, k, current, walk=None):
    """The step-k generators new to the chain: their nonzero normal forms
    modulo the chain ideal so far (every generator of I_{M_n} at step n,
    where `current` is None), and the walk record (None off the walk).

    A map whose component denominators use no state, with or without
    parameters, takes the walk of `_reduced_step_generators`.  Any other
    takes the step ideal I_{M_k} of the rational engine (`_step_ideal`),
    read off every minor of `minor_determinants`."""
    if _state_free_denominators(sys):
        return _reduced_step_generators(sys, k, current, walk)
    gens = _step_ideal(sys, k).generators
    new = gens if current is None else map(current.reduce, gens)
    return [g for g in new if not g.is_zero], None


def generic_accessibility(sys):
    """Generic accessibility: M_n has generic rank n.  That holds exactly
    when some n x n minor of M_n is nonzero, that is, when the step-n
    minor-coefficient ideal has a generator."""
    return bool(_new_step_generators(sys, sys.n, None)[0])


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
    gens, walk = _new_step_generators(sys, n, None)
    if not gens:
        report.singular_set = SingularSet(
            kind="entire", message="not generically accessible"
        )
        report.excluded_locus = _locus_upto(sys, n)
        return report
    report.generically_accessible = True
    current = Ideal(sys.reg, gens)
    chain = report.chain = ChainState()
    chain.record(n, current)
    k = n
    while k < max_k:
        new, walk = _new_step_generators(sys, k + 1, current, walk)
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
    # left for algorithm1, which reads the chain; never read back here
    sys._cache[("algorithm2", max_k)] = report
    return report


def algorithm1(sys, max_k=None):
    """Real-radical chain: the first horizon where the radical of the
    per-step minor-coefficient ideal stops growing is the accessibility
    index r*.  Returns (r_star, final ideal, certified).

    The nesting lemma.  Suppose no component denominator uses a state,
    and the input-monomial coefficients of the numerator of det A
    generate <1> (`_nested_chain`).  The walk is then defined at every
    state for generic inputs, and det A<k> is nonzero, as a rational
    function of the fresh inputs u(k), at every state.  Where M_k has
    rank n for some inputs, so has its block A<k> * M_k of M_{k+1}, so
    every non-accessible set lies in the one before: S_{k+1} is contained
    in S_k.  By the real Nullstellensatz the per-step ideal then has the
    real radical of the cumulative one, sqrt_R(I_{M_k}) = sqrt_R(I_bar_k),
    with I_bar_k the chain ideal of `algorithm2`.  Under that gate the
    radicals are taken of the ideals of `algorithm2`'s chain, read from
    the report it left on the model (it is run when absent), and no step
    ideal is built; once kappa is found, I_bar_{kappa+1} = I_bar_kappa
    supplies the last comparison.  Free parameters count as generic
    nonzero constants, as everywhere: for `coil`, det A = 1 - b*T -
    a*T^2*u, whose coefficients are not both zero, and for
    `coil_reversed`, det A = -1/(v*a*T^2 + b*T - 1).  Other maps take the
    radical of each step ideal I_{M_k}.
    """
    if max_k is None:
        max_k = default_max_k(sys)
    n = sys.n
    if _nested_chain(sys):
        report = sys._cache.get(("algorithm2", max_k)) or algorithm2(sys, max_k)
        if report.chain is None:  # not generically accessible
            return None, Ideal(sys.reg, []), True
        steps, last = report.chain.ideals, report.kappa
    else:
        step = _step_ideal(sys, n)
        if step.is_zero_ideal:  # not generically accessible
            return None, step, True
        steps = map(partial(_step_ideal, sys), range(n, max(n, max_k) + 1))
        last = None
    radicals = map(radical_heuristic, steps)
    current, certified = next(radicals)
    for k, (nxt, cert) in enumerate(radicals, n):
        certified = certified and cert
        if nxt.equal(current):
            return k, current, certified
        current = nxt
    # on the chain, I_bar_{kappa+1} = I_bar_kappa settles the radicals too
    return last, current, certified


def cumulative_ideal(sys, k):
    """Sum of the step ideals I_{M_j}, j <= k, the tests' reference for the
    chain of `algorithm2`.  Every one comes from the rational engine
    (`_step_ideal`), never from the chain walk it checks.  It builds every
    minor of M_1..M_k: on `fivestep`, k = 5 does not finish in 45 s."""
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


# The prime of the modular full-rank certificate.
_P = _P61


def _residue(c):
    """The image of a rational in F_p; PoleError when p divides its
    denominator."""
    if c.denominator == 1:
        return c.numerator % _P
    d = c.denominator % _P
    if not d:
        raise PoleError("a denominator is divisible by the prime")
    return c.numerator * pow(d, -1, _P) % _P


def _value_mod_p(p, vals):
    """p mod the prime at residues in registry order."""
    total = 0
    for e, c in p.terms.items():
        v = _residue(c)
        for x, n in zip(vals, e):
            if n:
                v = v * pow(x, n, _P) % _P
        total += v
    return total % _P


def _ev_mod_p(f, vals):
    """A RationalFunction mod the prime at residues; PoleError when its
    denominator vanishes there."""
    den = _value_mod_p(f.den, vals)
    if not den:
        raise PoleError("pole: denominator vanishes modulo the prime")
    return _value_mod_p(f.num, vals) * pow(den, -1, _P) % _P


def _matrix_mod_p(sys, x0, params, inputs):
    """M_k mod the prime, k = len(inputs), from the rational state x0:
    params holds the parameter residues and inputs[t] the step-t input
    residues, in registry order."""
    bind = lambda x, t: (*params, *x, *inputs[t])
    x = [_residue(v) for v in x0]
    return walk_matrix(sys, x, len(inputs), bind, _ev_mod_p, lambda v: v % _P)


def _rank_mod_p(rows):
    """Rank over F_p of a matrix of residues."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        if rank == len(rows):
            break
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, _P)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % _P
            if f:
                rows[i] = [(a - f * b) % _P for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _sampled_full_rank(sys, x0, k):
    """Certify full rank of the point-pinned matrix by one seeded sample in
    F_p, p = 2^61 - 1.

    The recursion is walked at seeded residues of the parameters and
    inputs, so no symbolic expression in the inputs is ever built.  Why
    rank n mod p is a proof: reduction mod p is a ring map from the
    rationals whose denominators are units mod p.  Each step of the walk
    checks that the coefficients and the evaluated denominator are such
    units (`_ev_mod_p`), so the F_p matrix is the image of the rational
    matrix M_k(x0, u) at an integer point u of the inputs and parameters.
    A nonzero n x n minor mod p is the image of that minor, which is then
    nonzero at u, so the minor is nonzero over Q(u, params): the rank is n.
    A sample with a non-unit or a deficient rank proves nothing, and the
    caller falls back to symbolic elimination.  A second sample would
    rarely help: a nonzero minor of degree d vanishes at a random point
    with probability at most d/p (Schwartz-Zippel)."""
    rng = random.Random(0x5EED)
    params = [rng.randrange(_P) for _ in sys.reg.params]
    inputs = [[rng.randrange(_P) for _ in range(sys.m)] for _ in range(k)]
    try:
        return _rank_mod_p(_matrix_mod_p(sys, x0, params, inputs)) == sys.n
    except PoleError:
        return False


def point_status(sys, x0, k):
    """Membership of an exact rational point in the k-step non-accessible
    set: does the accessibility matrix pinned to the point stay rank
    deficient for every input sequence?"""
    for v in x0:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"coordinate is a {type(v).__name__}, not int or Fraction")
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
