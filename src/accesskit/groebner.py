"""Ideal arithmetic in the state-variable ring.

Generators are polynomials in the state variables whose coefficients may be
polynomials in the parameters.  All Groebner computations treat parameters
as generic nonzero constants: reductions are fraction-free (pseudo) and the
parameter content of every polynomial is cleared and recorded, so the
resulting bases are bases over the rational-function field in the
parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import prod
from operator import add

from .errors import ResourceBudgetError, VerificationError
from .realroots import RootBox, _gcd, real_roots
from .ring import (
    Polynomial,
    VariableRegistry,
    _addmul_terms,
    _content_in,
    _mul_terms,
    _scale_terms,
    _split,
    divexact,
    grevlex_key,
    poly_gcd,  # unused here; perfbench/tests checks that its tracer rebinds it
    square_free_part,
)

# Budgets: the largest total degree of a new basis element, and the most
# pairs or normal-form steps one computation may take.
_DEGREE_CAP = 64
_STEP_CAP = 20000

# The sign-change witness of `radical_heuristic`: seeded draws, and how many.
_WITNESS_SEED = 0x5EED
_WITNESS_TRIES = 400


def _shift_tuple(reg, proj):
    """Full exponent of reg with the state exponents proj and zeros elsewhere."""
    spos = reg.state_indices
    return (0,) * spos.start + tuple(proj) + (0,) * (reg.arity - spos.stop)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def to_state_ring(p):
    """Compress a state-ring polynomial into the horizon-0 registry.

    The input may live in any registry of the same system family as long as
    no input variable occurs; ideals store their generators in this compact
    form so bases from different shift horizons compare directly.
    """
    reg = p.reg
    base = VariableRegistry(reg.states, reg.inputs, reg.params, horizon=0)
    if reg.key == base.key:
        return p
    k = base.arity
    for i in p.variables_used():
        if i >= k:
            raise ValueError(
                f"polynomial involves input variable {reg.name(i)!r}; "
                "not a state-ring element"
            )
    return Polynomial(base, {e[:k]: c for e, c in p.terms.items()}, _clean=True)


def clear_param_content(p):
    """Remove the parameter-polynomial content of p.

    Returns (primitive polynomial, cleared content polynomial).  The content
    is the gcd of the coefficient polynomials of p viewed in the state ring,
    together with the rational content; its factors encode parameter
    degeneracy conditions (e.g. a sampling step of zero).
    """
    reg = p.reg
    spos = reg.state_indices
    lo, hi = spos.start, spos.stop
    cont = None  # a polynomial in the states alone: rational content only
    if any(any(e[:lo]) or any(e[hi:]) for e in p.terms):
        cont = _content_in(p, spos)
    if cont is None or cont.is_constant:
        prim, c = p.primitive()
        return prim, reg.const(c)
    cont = cont.primitive()[0]
    prim, c = divexact(p, cont).primitive()
    return prim, cont * c


class _GBPoly:
    """Basis element with cached order data.

    Besides the leading state monomial under the sort key `key` and its
    coefficient, it keeps the other state-monomial groups ready to be added
    into a polynomial under reduction: negated and, when the leading
    coefficient is a constant, divided by it.
    """

    __slots__ = ("poly", "lead", "lead_coeff", "sugar", "lc", "tail")

    def __init__(self, poly, key=grevlex_key, sugar=None):
        self.poly = poly
        self.sugar = sugar if sugar is not None else poly.total_degree()
        groups = _split(poly.terms, poly.reg.state_indices)
        self.lead = max(groups, key=key)
        self.lead_coeff = Polynomial(poly.reg, groups.pop(self.lead), _clean=True)
        lc = self.lead_coeff
        self.lc = lc.constant_value() if lc.is_constant else None
        scale = Fraction(-1, self.lc) if self.lc is not None else -1
        self.tail = [(m, _scale_terms(t, scale)) for m, t in groups.items()]


def normal_form(p, basis, key=grevlex_key, normalize=True):
    """Pseudo normal form of p modulo a list of _GBPoly, in the term order
    whose sort key on state exponents is `key`.

    Variables other than the states (parameters, inputs) act as
    coefficients.  Membership in the ideal over the parameter-fraction
    field is preserved: the result is zero iff p reduces to zero.  With
    ``normalize=False`` the content-clearing step is skipped so that the
    result is congruent to p modulo the ideal; this requires every
    reduction step to have a constant leading coefficient (always true in
    the parameter-free case).

    p is held as its state-monomial groups and reduced in place: each step
    takes the largest group, cancels it against the first basis element
    whose leading monomial divides it, and adds the multiple of that
    element's other groups straight into the target groups.
    """
    reg = p.reg
    spos = reg.state_indices
    work = _split(p.terms, spos)
    rem = {}  # irreducible groups; all larger than anything left in work
    steps = 0
    while work:
        steps += 1
        if steps > _STEP_CAP:
            raise ResourceBudgetError(
                "normal-form step budget exceeded", partial=[g.poly for g in basis]
            )
        lead = max(work, key=key)
        coeff = work.pop(lead)
        for g in basis:
            if _divides(g.lead, lead):
                break
        else:
            rem[lead] = coeff
            continue
        shift = tuple(a - b for a, b in zip(lead, g.lead))
        if g.lc is None:
            if not normalize:
                raise ValueError(
                    "congruence-preserving normal form needs constant "
                    "leading coefficients"
                )
            lc = g.lead_coeff.terms
            work = {m: _mul_terms(t, lc) for m, t in work.items()}
            rem = {m: _mul_terms(t, lc) for m, t in rem.items()}
        for m, t in g.tail:
            m = tuple(map(add, m, shift))
            acc = work.setdefault(m, {})
            for r, c in coeff.items():
                _addmul_terms(acc, c, r, t)
            if not acc:
                del work[m]
    out = {}
    for m, t in rem.items():
        for r, c in t.items():
            e = list(r)
            e[spos.start : spos.stop] = m
            out[tuple(e)] = c
    out = Polynomial(reg, out, _clean=True)
    if out.is_zero or not normalize:
        return out
    return clear_param_content(out)[0]


def _spoly(f, g):
    reg = f.poly.reg
    lcm = tuple(max(a, b) for a, b in zip(f.lead, g.lead))
    sf = _shift_tuple(reg, (a - b for a, b in zip(lcm, f.lead)))
    sg = _shift_tuple(reg, (a - b for a, b in zip(lcm, g.lead)))
    tf = Polynomial(reg, _addmul_terms({}, 1, sf, f.poly.terms), _clean=True)
    tg = Polynomial(reg, _addmul_terms({}, 1, sg, g.poly.terms), _clean=True)
    s = g.lead_coeff * tf - f.lead_coeff * tg
    return clear_param_content(s)[0] if not s.is_zero else s


def buchberger(generators, key=grevlex_key):
    """Reduced Groebner basis via Buchberger with sugar selection.

    The generators are an `Ideal`'s: distinct, nonzero, primitive (their
    parameter content cleared) and over one registry.  The term order on
    the states is given by its sort key on state exponents (larger =
    bigger): `grevlex_key` for degrevlex, `tuple` for lex.  Both classic
    pair criteria (coprime leading monomials; chain criterion) are
    applied.  Raises ResourceBudgetError carrying the partial basis when
    the degree or step budget is exceeded.
    """
    seeds = sorted(
        (_GBPoly(g, key) for g in generators),
        key=lambda g: (g.sugar, len(g.poly.terms), key(g.lead)),
    )

    basis = []
    for g in seeds:
        r = g.poly
        if basis:
            r = normal_form(r, basis, key)
            if r.is_zero:
                continue
        basis.append(_GBPoly(r, key))

    # pair (i, j) -> ((sugar, key(lcm)), lcm), formed once
    pairs = {}

    def add_pairs(j):
        g = basis[j]
        for i, f in enumerate(basis[:j]):
            lcm = tuple(map(max, f.lead, g.lead))
            d = sum(lcm)
            sugar = max(f.sugar + d - sum(f.lead), g.sugar + d - sum(g.lead))
            pairs[i, j] = (sugar, key(lcm)), lcm

    for j in range(len(basis)):
        add_pairs(j)

    steps = 0
    while pairs:
        steps += 1
        if steps > _STEP_CAP:
            raise ResourceBudgetError(
                "Groebner pair budget exceeded", partial=[g.poly for g in basis]
            )
        i, j = min(pairs, key=pairs.get)
        (sugar, _), lcm = pairs.pop((i, j))
        # product criterion
        if all(a + b == c for a, b, c in zip(basis[i].lead, basis[j].lead, lcm)):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if (
                _divides(basis[k].lead, lcm)
                and (min(i, k), max(i, k)) not in pairs
                and (min(j, k), max(j, k)) not in pairs
            ):
                skip = True
                break
        if skip:
            continue
        s = _spoly(basis[i], basis[j])
        if s.is_zero:
            continue
        r = normal_form(s, basis, key)
        if r.is_zero:
            continue
        if r.total_degree() > _DEGREE_CAP:
            raise ResourceBudgetError(
                f"Groebner degree budget {_DEGREE_CAP} exceeded",
                partial=[g.poly for g in basis],
            )
        basis.append(_GBPoly(r, key, sugar))
        add_pairs(len(basis) - 1)

    return _interreduce(basis, key)


def _interreduce(basis, key):
    """The reduced basis of a Groebner basis, in increasing order.

    Drop each element whose leading monomial another element's divides (of
    equal leading monomials, the first is kept), then replace each
    remaining element, once, by its normal form modulo the others.  A
    normal form keeps the leading monomial, so the leading monomials never
    change and an element stays reduced once it is reduced (Cox, Little &
    O'Shea, Ideals, Varieties, and Algorithms, section 2.7).
    """
    keep = [
        g
        for i, g in enumerate(basis)
        if not any(
            _divides(h.lead, g.lead) and (h.lead != g.lead or j < i)
            for j, h in enumerate(basis)
            if j != i
        )
    ]
    if len(keep) > 1:
        for i, g in enumerate(keep):
            keep[i] = _GBPoly(normal_form(g.poly, keep[:i] + keep[i + 1 :], key), key)
    return [g.poly for g in sorted(keep, key=lambda g: key(g.lead))]


class Ideal:
    """Finite generator set in the state ring with its reduced degrevlex
    basis, computed once."""

    def __init__(self, reg, generators):
        self.reg = VariableRegistry(reg.states, reg.inputs, reg.params, horizon=0)
        gens = []
        for g in dict.fromkeys(generators):
            g = to_state_ring(g)
            if not g.is_zero:
                gens.append(clear_param_content(g)[0])
        self.generators = tuple(dict.fromkeys(gens))
        self._basis = None
        self._reducers = {}  # registry key -> wrapped basis

    @property
    def is_zero_ideal(self):
        return not self.generators

    def groebner_basis(self):
        """The reduced degrevlex basis, in increasing order."""
        if self._basis is None:
            self._basis = buchberger(list(self.generators))
        return list(self._basis)

    def reduce(self, p, normalize=True):
        """Normal form of p modulo the reduced degrevlex basis.

        p is a Polynomial over any registry with the ideal's states, inputs
        and parameters, at any horizon; everything except the states acts
        as a coefficient.  The basis is lifted to p's registry and wrapped
        once per registry.
        """
        reg = p.reg
        if not reg.compatible(self.reg):
            raise ValueError("reduction across different state rings")
        basis = self._reducers.get(reg.key)
        if basis is None:
            basis = self._reducers[reg.key] = [
                _GBPoly(g.lift(reg)) for g in self.groebner_basis()
            ]
        if not basis:
            return p
        return normal_form(p, basis, normalize=normalize)

    def contains(self, p):
        """Ideal membership over the field of the parameters and inputs."""
        return self.reduce(p).is_zero

    def equal(self, other):
        """True iff the two ideals coincide.  The reduced basis is
        canonical: each element primitive with a positive leading
        coefficient, sorted by leading monomial."""
        return self.groebner_basis() == other.groebner_basis()

    def __add__(self, other):
        """Ideal sum: this ideal's basis and the other's generators."""
        if self.reg.key != other.reg.key:
            raise ValueError("ideal sum across different state rings")
        return Ideal(self.reg, self.groebner_basis() + list(other.generators))

    def contains_one(self):
        gb = self.groebner_basis()
        return any(g.is_constant and not g.is_zero for g in gb)

    def is_zero_dimensional(self):
        """True iff the state variety is finite (over the complex numbers)."""
        gb = self.groebner_basis()
        if any(g.is_constant for g in gb):
            return True  # empty variety
        spos = self.reg.state_indices
        leads = [max(_split(g.terms, spos), key=grevlex_key) for g in gb]
        for axis in range(len(self.reg.states)):
            if not any(
                l[axis] > 0 and all(x == 0 for k, x in enumerate(l) if k != axis)
                for l in leads
            ):
                return False
        return True

    def uses_parameters(self):
        gb = self.groebner_basis()
        for g in gb:
            for i in g.variables_used():
                if g.reg.kind(i) == "parameter":
                    return True
        return False

    def __str__(self):
        if self.is_zero_ideal:
            return "<0>"
        return "<" + ", ".join(str(g) for g in self.generators) + ">"

    def __repr__(self):
        return f"Ideal({self})"


# -- heuristic real-radical reduction -------------------------------------


def _sos_split(g):
    """If g is a sum of even monomials with positive coefficients, return the
    monomial radicals forced to vanish on the real zero set; else None."""
    reg = g.reg
    monos = []
    for e, c in g.terms.items():
        if c <= 0 or any(x % 2 for x in e):
            return None
        support = tuple(1 if x else 0 for x in e)
        if not any(support):
            return None  # positive constant term: no real zeros forced
        monos.append(support)
    return [reg.monomial(s) for s in dict.fromkeys(monos)]


def _is_monomial_set(gens):
    return all(len(g.terms) == 1 for g in gens)


def _radical_of_monomials(gens):
    out = []
    for g in gens:
        (e,) = g.terms
        out.append(g.reg.monomial(tuple(1 if x else 0 for x in e)))
    return out


def _sign_change_witness(q):
    """Look for rational points where q is positive and where it is negative."""
    reg = q.reg
    rng = random.Random(_WITNESS_SEED)
    names = [reg.name(i) for i in q.variables_used()]
    seen_pos = seen_neg = False
    for _ in range(_WITNESS_TRIES):
        point = {
            n: Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for n in names
        }
        v = q.evaluate(point)
        seen_pos = seen_pos or v > 0
        seen_neg = seen_neg or v < 0
        if seen_pos and seen_neg:
            return True
    return False


def radical_heuristic(ideal):
    """Best-effort real-radical reduction.

    Returns (Ideal, certified).  The output J always satisfies
    I <= J <= real-radical(I); `certified` reports whether the pipeline
    established J = real-radical(I).  Sound certification paths: trivial
    ideal, monomial ideals, linear bases, and zero-dimensional ideals with
    rational real points (vanishing ideal reconstruction).  The principal
    square-free case is certified on witness evidence (sign changes plus a
    finite singular locus).
    """
    reg = ideal.reg
    new_gens = []
    for g in ideal.groebner_basis():
        split = _sos_split(g)
        if split is not None:
            new_gens.extend(split)
            continue
        new_gens.append(square_free_part(g))

    J = Ideal(reg, new_gens)
    gb = J.groebner_basis()

    # monomial ideal, <1> included: radical is exact
    if _is_monomial_set(gb):
        R = Ideal(reg, _radical_of_monomials(gb))
        # every S-polynomial of two monomials is zero, so the minimal
        # monomials are already the reduced basis
        R._basis = _interreduce([_GBPoly(g) for g in R.generators], grevlex_key)
        return R, True
    # linear basis: real radical equals the ideal itself
    if all(g.total_degree() <= 1 for g in gb):
        return J, True
    # zero-dimensional: rebuild the vanishing ideal of the real points
    sol = solve_zero_dim(J)
    if sol.status == "points":
        return vanishing_ideal(reg, sol.points), True
    # principal square-free hypersurface: witness-based certification
    if len(gb) == 1 and not J.uses_parameters():
        q = gb[0]
        if square_free_part(q) == q.primitive()[0]:
            sing = Ideal(
                reg,
                [q] + [q.diff(reg.name(i)) for i in sorted(q.variables_used())],
            )
            finite_sing = sing.contains_one() or sing.is_zero_dimensional()
            if finite_sing and _sign_change_witness(q):
                return J, True
    return J, False


# -- zero-dimensional real solving ----------------------------------------


@dataclass
class SolveResult:
    """Outcome of solve_zero_dim.

    status: 'points' (exact rational points), 'not_zero_dimensional',
    'refused' (parameter-dependent), or 'irrational' (real roots exist but
    are not rational; boxes holds (state name, RootBox) pairs for the
    irrational values of the state where solving stopped).
    """

    status: str
    points: list = field(default_factory=list)
    boxes: list = field(default_factory=list)
    message: str = ""


def vanishing_ideal(reg, points):
    """Vanishing ideal of a finite set of rational state points.

    Built one coordinate at a time.  With c_j the distinct values of the
    last coordinate x, L_j(x) their Lagrange basis and P_j the points over
    c_j projected to the other coordinates,
    I(P) = <prod_j (x - c_j)> + sum_j L_j(x) * I(P_j).
    """

    def gens(names, pts):
        if not names:
            return []  # a point of the zero-dimensional space: ideal <0>
        x = reg.var(names[-1])
        fibres = {}
        for pt in pts:
            fibres.setdefault(pt[-1], []).append(pt[:-1])
        out = [prod((x - reg.const(c) for c in fibres), start=reg.one())]
        for c, fibre in fibres.items():
            lagrange = prod(
                ((x - reg.const(d)) * Fraction(1, c - d) for d in fibres if d != c),
                start=reg.one(),
            )
            out.extend(lagrange * g for g in gens(names[:-1], fibre))
        return out

    return Ideal(reg, gens(list(reg.states), list(dict.fromkeys(points))))


def solve_zero_dim(ideal):
    """All real solutions of a zero-dimensional ideal, as exact points.

    Positive-dimensional input is a tagged outcome, not an error; ideals
    whose basis still involves parameters are refused.
    """
    reg = ideal.reg
    if ideal.is_zero_ideal:
        return SolveResult("not_zero_dimensional", message="zero ideal: whole space")
    if ideal.uses_parameters():
        return SolveResult(
            "refused",
            message="basis coefficients depend on symbolic parameters; "
            "bind parameters to rational values first",
        )
    if not ideal.is_zero_dimensional():
        return SolveResult(
            "not_zero_dimensional", message="variety has positive dimension"
        )
    gb = buchberger(ideal.groebner_basis(), key=tuple)
    boxes = []

    def rec(gens, names, partial):
        """Solve the lex basis from the last state up; the solutions as
        dicts, or None once a level has an irrational root."""
        gens = [g for g in gens if not g.is_zero]
        if any(g.is_constant for g in gens):
            return []
        if not names:
            return [dict(partial)]
        last = names[-1]
        li = reg.index(last)
        univ = [g for g in gens if g.variables_used() <= {li}]
        if not univ:
            return None
        # the common roots of the univariate polynomials: those of their gcd
        roots = real_roots(reduce(_gcd, (_coefficients(g, li) for g in univ)))
        irrational = [(last, r) for r in roots if isinstance(r, RootBox)]
        if irrational:
            boxes.extend(irrational)
            return None
        out = []
        for r in roots:
            sub = [g.substitute({last: r}) for g in gens if g not in univ]
            res = rec(sub, names[:-1], {**partial, last: r})
            if res is None:
                return None
            out.extend(res)
        return out

    sols = rec(gb, list(reg.states), {})
    if sols is None:
        return SolveResult(
            "irrational",
            boxes=boxes,
            message="real roots are not all rational; isolating boxes reported",
        )
    points = []
    for s in sols:
        points.append(tuple(s[n] for n in reg.states))
    points = sorted(set(points))
    # exact verification: every point zeroes every generator, identically
    # in any parameters (a raw generator may carry them when the basis
    # does not)
    for pt in points:
        binding = dict(zip(reg.states, pt))
        for g in ideal.generators:
            if not g.substitute(binding).is_zero:
                raise VerificationError(
                    f"solved point {pt} is not a zero of generator {g}"
                )
    return SolveResult("points", points=points)


def _coefficients(g, idx):
    """Coefficient list, constant term first, of g univariate in variable idx."""
    coeffs = [Fraction(0)] * (g.degree_in(idx) + 1)
    for e, c in g.terms.items():
        coeffs[e[idx]] += c
    return coeffs

