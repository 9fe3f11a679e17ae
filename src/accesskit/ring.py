"""Exact sparse multivariate polynomials and rational functions.

The variable set is partitioned into parameters, states and time-indexed
inputs.  Polynomials store a map from exponent tuple to an exact rational
coefficient: an ``int`` when it is integral, else a ``Fraction``, so the
integer arithmetic of most chain polynomials skips ``Fraction``.  Hence
``Fraction(1, c)``, not ``1 / c`` (a float for an int ``c``), is the exact
inverse of a coefficient.  Products and exact divisions run on ints even
when coefficients are not integral: each operand is cleared of denominators
once, and each result coefficient is divided once.  Rational functions keep
a fully reduced numerator/denominator pair whose denominator is primitive
over the integers with a positive leading coefficient, kept by construction
(see `RationalFunction`), so two arithmetic routes to the same value
produce identical representations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, sub

from .errors import (
    DegenerateDenominatorError,
    ExactDivisionError,
    IndeterminateError,
    PoleError,
    UnregisteredVariableError,
    ZeroPolynomialError,
)

PARAM = "parameter"
STATE = "state"
INPUT = "input"


def grevlex_key(exp):
    """Sort key: larger key = larger monomial in graded reverse lex."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


# -- term maps ------------------------------------------------------------
#
# A term map is a plain dict from exponent tuple to a nonzero coefficient:
# an int when integral, else a Fraction (`_q` keeps this form).  Sums and
# products of Fractions may leave an integral Fraction behind; it equals,
# hashes and prints as its int, so only speed depends on the form.


def _q(c):
    """An exact rational in term-map form: its int when integral."""
    return c.numerator if c.denominator == 1 else c


def _coefficient(c):
    """A caller's coefficient in term-map form.  A float is refused: it
    would enter as the binary rational nearest to it, not its decimal."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficients are int or Fraction, not {type(c).__name__}")
    return _q(c)


def _mul_terms(a, b):
    """Product of two term maps.

    Both operands are cleared of denominators first, so the inner loop
    multiplies ints and each output coefficient takes one division; a
    single-term operand is used as it is, since each output term then costs
    one product either way, and a Fraction in either operand sends the
    result through `_q`, which leaves no integral Fraction.
    """
    if len(a) > len(b):
        a, b = b, a
    out = {}
    if len(a) == 1:
        ((e, c),) = a.items()
        _addmul_terms(out, c, e, b)
        if type(c) is int and all(type(v) is int for v in b.values()):
            return out
        return {e: _q(c) for e, c in out.items()}
    a, sa = _int_scale(a)
    b, sb = _int_scale(b)
    for e, c in a.items():
        _addmul_terms(out, c, e, b)
    scale = sa * sb
    if scale == 1:
        return out
    return {e: _q(Fraction(c, scale)) for e, c in out.items()}


def _add_terms(a, b):
    """Sum of two term maps."""
    out = dict(a)
    for e, c in b.items():
        cur = out.get(e)
        if cur is None:
            out[e] = c
        else:
            cur = cur + c
            if cur:
                out[e] = cur
            else:
                del out[e]
    return out


def _addmul_terms(acc, coeff, shift, src):
    """In-place ``acc += coeff * x^shift * src``.  Returns ``acc``.
    Products and substitution go through it."""
    for e, c in src.items():
        es = tuple(map(add, e, shift))
        cur = acc.get(es)
        if cur is None:
            acc[es] = coeff * c
        else:
            cur = cur + coeff * c
            if cur:
                acc[es] = cur
            else:
                del acc[es]
    return acc


def _scale_terms(a, coeff):
    """Every coefficient times a scalar."""
    if not coeff:
        return {}
    return {e: _q(c * coeff) for e, c in a.items()}


def _int_scale(terms):
    """(integer term map, scale): the map times the lcm of its coefficients'
    denominators, and that lcm.  A map of ints is returned as it is."""
    dens = {c.denominator for c in terms.values() if type(c) is not int}
    if not dens:
        return terms, 1
    scale = math.lcm(*dens)
    ints = {e: c.numerator * (scale // c.denominator) for e, c in terms.items()}
    return ints, scale


def _eval_terms(terms, values):
    """Value of a term map at a point given as a tuple of Fractions."""
    total = Fraction(0)
    for e, c in terms.items():
        v = c
        for i, p in enumerate(e):
            if p:
                v = v * values[i] ** p
        total += v
    return total


class VariableRegistry:
    """Ordered variable set: parameters, states, then inputs by time block.

    Input symbols exist for times ``0 .. horizon-1``; extending the horizon
    appends symbols, so exponent tuples of a smaller registry lift by zero
    padding.
    """

    __slots__ = ("params", "states", "inputs", "horizon", "_index")

    def __init__(self, states, inputs=(), params=(), horizon=1):
        self.params = tuple(params)
        self.states = tuple(states)
        self.inputs = tuple(inputs)
        self.horizon = int(horizon)
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        names = list(self.params) + list(self.states)
        for t in range(self.horizon):
            for u in self.inputs:
                names.append(u if t == 0 else f"{u}({t})")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if not self.states:
            raise ValueError("at least one state variable is required")
        self._index = {n: i for i, n in enumerate(names)}
        for u in self.inputs:
            if self.horizon > 0:
                self._index.setdefault(f"{u}(0)", self._index[u])

    @property
    def arity(self):
        return len(self.params) + len(self.states) + len(self.inputs) * self.horizon

    @property
    def key(self):
        return (self.params, self.states, self.inputs, self.horizon)

    def name(self, i):
        p, n, m = len(self.params), len(self.states), len(self.inputs)
        if i < p:
            return self.params[i]
        if i < p + n:
            return self.states[i - p]
        j = i - p - n
        t, r = divmod(j, m)
        base = self.inputs[r]
        return base if t == 0 else f"{base}({t})"

    def names(self):
        return [self.name(i) for i in range(self.arity)]

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnregisteredVariableError(f"unknown variable {name!r}") from None

    def kind(self, i):
        p, n = len(self.params), len(self.states)
        if i < p:
            return PARAM
        if i < p + n:
            return STATE
        return INPUT

    def class_indices(self, kind):
        return [i for i in range(self.arity) if self.kind(i) == kind]

    @property
    def state_indices(self):
        p = len(self.params)
        return range(p, p + len(self.states))

    def with_horizon(self, horizon):
        if horizon == self.horizon:
            return self
        return VariableRegistry(self.states, self.inputs, self.params, horizon)

    def compatible(self, other):
        return (self.params, self.states, self.inputs) == (
            other.params,
            other.states,
            other.inputs,
        )

    # -- constructors -----------------------------------------------------

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = _coefficient(c)
        if not c:
            return Polynomial(self, {}, _clean=True)
        return Polynomial(self, {(0,) * self.arity: c}, _clean=True)

    def var(self, name):
        i = self.index(name)
        e = [0] * self.arity
        e[i] = 1
        return Polynomial(self, {tuple(e): 1}, _clean=True)

    def monomial(self, exp, coeff=1):
        coeff = _coefficient(coeff)
        if not coeff:
            return self.zero()
        return Polynomial(self, {tuple(exp): coeff}, _clean=True)

    def __eq__(self, other):
        return isinstance(other, VariableRegistry) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"VariableRegistry(states={self.states}, inputs={self.inputs}, params={self.params}, horizon={self.horizon})"


def unify(a, b):
    """Lift two polynomials to a common registry (shared base, max horizon)."""
    if a.reg is b.reg or a.reg == b.reg:
        return a, b
    if not a.reg.compatible(b.reg):
        raise UnregisteredVariableError("polynomials over incompatible registries")
    reg = a.reg if a.reg.horizon >= b.reg.horizon else b.reg
    return a.lift(reg), b.lift(reg)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero coefficients, each an ``int``
    when integral and a ``Fraction`` otherwise.
    """

    __slots__ = ("reg", "terms", "_hash")

    def __init__(self, reg, terms, _clean=False):
        self.reg = reg
        if _clean:
            self.terms = terms
        else:
            self.terms = {tuple(e): _coefficient(c) for e, c in terms.items() if c}
        self._hash = None

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if self.is_zero:
            return 0
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, i):
        return max((e[i] for e in self.terms), default=0)

    def variables_used(self):
        used = set()
        for e in self.terms:
            for i, p in enumerate(e):
                if p:
                    used.add(i)
        return used

    def sorted_terms(self):
        """Terms in descending graded-reverse-lex order (canonical)."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def leading(self):
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        e = max(self.terms, key=grevlex_key)
        return e, self.terms[e]

    def lift(self, reg):
        if reg is self.reg:
            return self
        pad = reg.arity - self.reg.arity
        if pad < 0 or not reg.compatible(self.reg):
            raise UnregisteredVariableError("cannot lift to a smaller/incompatible registry")
        if pad == 0:
            return Polynomial(reg, self.terms, _clean=True)
        z = (0,) * pad
        return Polynomial(reg, {e + z: c for e, c in self.terms.items()}, _clean=True)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return self.reg.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = unify(self, other)
        return Polynomial(a.reg, _add_terms(a.terms, b.terms), _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.reg, _scale_terms(self.terms, -1), _clean=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.reg, _scale_terms(self.terms, other), _clean=True)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = unify(self, other)
        return Polynomial(a.reg, _mul_terms(a.terms, b.terms), _clean=True)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = self.reg.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.reg.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        try:
            a, b = unify(self, other)
        except UnregisteredVariableError:
            return False
        return a.terms == b.terms

    def __hash__(self):
        # Equal polynomials may lie in registries of different horizons,
        # and a lift pads only input positions; a constant equals its value.
        if self._hash is None:
            if self.is_constant:
                self._hash = hash(self.constant_value())
            else:
                stop = self.reg.state_indices.stop
                self._hash = hash(
                    frozenset((e[:stop], c) for e, c in self.terms.items())
                )
        return self._hash

    # -- calculus ---------------------------------------------------------

    def diff(self, name):
        i = self.reg.index(name)
        out = {}
        for e, c in self.terms.items():
            p = e[i]
            if p:
                ne = list(e)
                ne[i] = p - 1
                ne = tuple(ne)
                out[ne] = out.get(ne, 0) + c * p
        return Polynomial(self.reg, out)

    def evaluate(self, point):
        """Evaluate at a map name -> Fraction; every used variable required."""
        values = [None] * self.reg.arity
        for name, v in point.items():
            values[self.reg.index(name)] = Fraction(v)
        for i in self.variables_used():
            if values[i] is None:
                raise UnregisteredVariableError(
                    f"no value supplied for {self.reg.name(i)!r}"
                )
        vals = tuple(v if v is not None else Fraction(0) for v in values)
        return _eval_terms(self.terms, vals)

    def substitute(self, bindings):
        """Exact composition; bindings map variable name -> value.

        Values may be Polynomial, RationalFunction, Fraction or int, and
        the result lies in their ring: a RationalFunction when any value is
        one, else a Polynomial.  It lives in the largest registry among the
        values (this one when all values are numbers); unbound variables
        are left in place, under the same name.  A RationalFunction value
        with a constant denominator enters as its numerator (a canonical
        constant denominator is 1), so when every value is a polynomial the
        sum is built in the polynomial ring, without a gcd per term.
        """
        reg = self.reg
        values = {}
        rational = False
        for name, v in bindings.items():
            if isinstance(v, RationalFunction):
                rational = True
                if v.is_polynomial:
                    v = v.num
            values[reg.index(name)] = v
        ring = [
            v for v in values.values() if isinstance(v, (Polynomial, RationalFunction))
        ]
        target = max((v.reg for v in ring), key=lambda r: r.arity, default=reg)
        place = {
            i: target.index(reg.name(i)) for i in self.variables_used() if i not in values
        }

        def shift(e):
            out = [0] * target.arity
            for i, j in place.items():
                out[j] = e[i]
            return tuple(out)

        if any(isinstance(v, RationalFunction) for v in ring):
            total = RationalFunction(target.zero())
            powers = {}
            for e, c in self.terms.items():
                term = target.monomial(shift(e), c)
                for i, v in values.items():
                    n = e[i]
                    if n:
                        if (i, n) not in powers:
                            powers[i, n] = v**n
                        term = term * powers[i, n]
                total = total + term
            return total
        # Polynomial values: every term adds into one term map, and v^n is
        # built from v^(n-1); a number enters as a constant map.  Each
        # coefficient enters in term-map form, as through `monomial`: an
        # integral Fraction, which a sum of Fractions can leave in a map,
        # would otherwise ride into the result.
        unit = {(0,) * target.arity: 1}
        values = {
            i: (v.lift(target).terms if isinstance(v, Polynomial)
                else _scale_terms(unit, v))
            for i, v in values.items()
        }
        powers = {i: [v] for i, v in values.items()}
        acc = {}
        for e, c in self.terms.items():
            prod = unit
            for i, v in values.items():
                n = e[i]
                if n:
                    pw = powers[i]
                    while len(pw) < n:
                        pw.append(_mul_terms(pw[-1], v))
                    prod = pw[n - 1] if prod is unit else _mul_terms(prod, pw[n - 1])
            _addmul_terms(acc, _q(c), shift(e), prod)
        total = Polynomial(target, acc, _clean=True)
        return RationalFunction(total) if rational else total

    # -- normalization helpers -------------------------------------------

    def content(self):
        """Positive rational content (0 for the zero polynomial)."""
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, c.numerator)
            den = den * c.denominator // math.gcd(den, c.denominator)
        return num if den == 1 else Fraction(num, den)

    def signed_content(self):
        """Content carrying the sign of the leading (grevlex) coefficient."""
        if self.is_zero:
            return 0
        c = self.content()
        _, lc = self.leading()
        return c if lc > 0 else -c

    def primitive(self):
        """(primitive part with positive leading coefficient, signed content);
        an integral polynomial's primitive part has int coefficients."""
        c = self.signed_content()
        if type(c) is int:  # every coefficient is integral: divide exactly
            if c == 1 and all(type(v) is int for v in self.terms.values()):
                return self, 1
            return Polynomial(
                self.reg, {e: v // c for e, v in self.terms.items()}, _clean=True
            ), c
        return self * Fraction(1, c), c

    # -- display ----------------------------------------------------------

    def _fmt_monomial(self, e):
        parts = []
        for i, p in enumerate(e):
            if p == 1:
                parts.append(self.reg.name(i))
            elif p:
                parts.append(f"{self.reg.name(i)}^{p}")
        return "*".join(parts)

    def __str__(self):
        if self.is_zero:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            mono = self._fmt_monomial(e)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"


# -- polynomial gcd machinery --------------------------------------------


def _split(terms, positions):
    """Group a term map by its exponents at the given positions.

    Returns {projected exponent: {rest exponent: coefficient}}, where a
    rest exponent is the full exponent with those positions zeroed.  A
    contiguous `range` of positions, such as `state_indices`, is sliced.
    """
    groups = {}
    if type(positions) is range and positions.step == 1:
        lo, hi = positions.start, positions.stop
        zeros = (0,) * (hi - lo)
        for e, c in terms.items():
            groups.setdefault(e[lo:hi], {})[e[:lo] + zeros + e[hi:]] = c
        return groups
    for e, c in terms.items():
        rest = list(e)
        for i in positions:
            rest[i] = 0
        groups.setdefault(tuple(e[i] for i in positions), {})[tuple(rest)] = c
    return groups


def _gcd_all(polys):
    """gcd of nonzero polynomials, stopping at the first constant; a lone
    polynomial is returned as it is."""
    g = None
    for c in polys:
        g = c if g is None else poly_gcd(g, c)
        if g.is_constant:
            break
    return g


def _content_in(p, positions):
    """gcd of the coefficients of p viewed as a polynomial in the variables
    at the given positions: the largest factor of p free of them."""
    return _gcd_all(
        Polynomial(p.reg, t, _clean=True) for t in _split(p.terms, positions).values()
    )


def _pseudo_rem(f, g, i):
    """Pseudo-remainder of f by g in x_i: while deg_i f >= d = deg_i g, f
    becomes lc_i(g)*f - (top_i(f)/x_i^d)*g, where top_i takes the terms of
    largest x_i-degree, so the division is an exact exponent shift."""
    d = g.degree_in(i)

    def top(p):
        k = p.degree_in(i)
        t = {e[:i] + (k - d,) + e[i + 1:]: c for e, c in p.terms.items() if e[i] == k}
        return Polynomial(p.reg, t, _clean=True)

    lc = top(g)
    while not f.is_zero and f.degree_in(i) >= d:
        f = lc * f - top(f) * g
    return f


def _heu_eval(terms, i, xi):
    """Evaluate an integer term dict at variable i = xi."""
    out = {}
    for e, c in terms.items():
        d = e[i]
        if d:
            ne = list(e)
            ne[i] = 0
            ne = tuple(ne)
            c = c * xi**d
        else:
            ne = e
        out[ne] = out.get(ne, 0) + c
    return {e: c for e, c in out.items() if c}


def _heu_genpoly(terms, i, xi):
    """Reconstruct variable i from a xi-adic image (balanced digits)."""
    out = {}
    cur = dict(terms)
    half = xi // 2
    d = 0
    while cur:
        if d > 4000:
            return None
        nxt = {}
        for e, c in cur.items():
            m = c % xi
            if m > half:
                m -= xi
            if m:
                ne = list(e)
                ne[i] = d
                out[tuple(ne)] = m
            c = (c - m) // xi
            if c:
                nxt[e] = c
        cur = nxt
        d += 1
    return out


def _used(terms):
    used = set()
    for e in terms:
        used.update(i for i, x in enumerate(e) if x)
    return used


# A gcd trial division gives up once its quotient has this many terms; the
# trial then reads as "does not divide", and a later gcd rule answers.
_TRIAL_CAP = 20000


def _int_quotient(terms, divisor, cap=None):
    """Quotient of the integer term map ``terms`` by the integer term map
    ``divisor`` over Z, or None when the division is inexact.  With a
    ``cap``, the heap loop also gives up (None) once the quotient has that
    many terms; a one-term divisor takes one pass over ``terms``.

    The quotient of an exact division is the same in every monomial order,
    so the loop divides in lex order (plain tuple comparison), cancelling
    the remainder's lex-smallest monomial first, popped from a heap
    (Monagan & Pearce, JSC 2011) in place of a scan per quotient term: lex
    order is multiplicative, so the smallest term of q*d is the product of
    the smallest terms of q and d, and an exact quotient comes out term by
    term.  A remainder coefficient that the divisor's smallest coefficient
    does not divide proves the division inexact, and so does a quotient
    term outside the degree box an exact quotient lies in: degrees in each
    variable add under multiplication.  The quotient terms increase, so
    the box also bounds the loop.
    """
    if len(divisor) == 1:
        ((ed, cd),) = divisor.items()
        q = {}
        for e, c in terms.items():
            qc, rem = divmod(c, cd)
            s = tuple(map(sub, e, ed))
            if rem or min(s) < 0:
                return None
            q[s] = qc
        return q
    box = tuple(map(sub, map(max, zip(*terms)), map(max, zip(*divisor))))
    if min(box) < 0:
        return None
    r = dict(terms)
    heap = list(r)
    heapify(heap)
    rest = dict(divisor)
    ed = min(rest)
    cd = rest.pop(ed)
    q = {}
    while heap:
        e = heappop(heap)
        c = r.pop(e, None)
        if c is None:  # cancelled after it was pushed
            continue
        if len(q) == cap:
            return None
        qc, rem = divmod(c, cd)
        s = tuple(map(sub, e, ed))
        if rem or any(a < 0 or a > b for a, b in zip(s, box)):
            return None
        q[s] = qc
        # r -= qc * x^s * rest; a key that cancels stays on the heap
        for et, ct in rest.items():
            es = tuple(map(add, et, s))
            cur = r.get(es)
            if cur is None:
                r[es] = -qc * ct
                heappush(heap, es)
            else:
                cur = cur - qc * ct
                if cur:
                    r[es] = cur
                else:
                    del r[es]
    return q


def _divides_int(cand, terms):
    """Whether the integer term map cand divides terms over Z, with the
    trial given up (False) after `_TRIAL_CAP` quotient terms."""
    return _int_quotient(terms, cand, _TRIAL_CAP) is not None


def _heu_gcd(reg, fterms, gterms):
    """Heuristic gcd of integer term dicts; None when inconclusive.

    Intermediate results keep their integer content: after evaluation the
    content carries the gcd's dependence on the outer variables, so only
    the caller may take a primitive part.
    """
    vars_ = _used(fterms) | _used(gterms)
    if not vars_:
        return {(0,) * reg.arity: math.gcd(*(abs(c) for c in fterms.values()),
                                           *(abs(c) for c in gterms.values()))}
    i = max(vars_)
    deg = max(max(e[i] for e in fterms), max(e[i] for e in gterms), 1)
    norm = min(max(abs(c) for c in fterms.values()),
               max(abs(c) for c in gterms.values()))
    xi = 2 * norm + 29
    for _ in range(6):
        if xi.bit_length() * deg > 200000:
            return None
        f1 = _heu_eval(fterms, i, xi)
        g1 = _heu_eval(gterms, i, xi)
        if f1 and g1:
            h1 = _heu_gcd(reg, f1, g1)
            if h1 is not None:
                cand = _heu_genpoly(h1, i, xi)
                if cand and _divides_int(cand, fterms) and _divides_int(
                    cand, gterms
                ):
                    return cand
        xi = xi * 73794 // 27011
    return None


_GCD_CACHE = {}


def poly_gcd(f, g):
    """Full multivariate gcd (primitive, positive leading coefficient)."""
    f, g = unify(f, g)
    reg = f.reg
    if f.is_zero:
        return g.primitive()[0]
    if g.is_zero:
        return f.primitive()[0]
    if f.is_constant or g.is_constant:
        return reg.one()
    # Polynomials equal across horizons are equal keys; the horizon keeps
    # a hit in the caller's registry.
    pair = (f, g) if len(f.terms) <= len(g.terms) else (g, f)
    key = (reg.horizon, *pair)
    hit = _GCD_CACHE.get(key)
    if hit is not None:
        return hit
    out = _smaller_operand_gcd(*pair)
    if out is None:
        out = _monomial_and_heu_gcd(f, g)
    if out is None:
        out = _prs_gcd(f, g)
    if len(_GCD_CACHE) > 4096:
        _GCD_CACHE.clear()
    _GCD_CACHE[key] = out
    return out


def _smaller_operand_gcd(f, g):
    """gcd(f, g) by one of two exact rules, or None; f has no more terms
    than g.

    The primitive part of f is the gcd when it divides g.  Otherwise, when
    one operand uses variables the other lacks, no common factor can use
    them: the gcd is that of the other operand and the first one's
    coefficients in those variables (Geddes, Czapor & Labahn 1992, ch. 7),
    folded until one is constant.
    """
    s = f.primitive()[0]
    if _divides_int(s.terms, _int_scale(g.terms)[0]):
        return s
    uf, ug = _used(f.terms), _used(g.terms)
    for a, b, own in ((g, f, ug - uf), (f, g, uf - ug)):
        if own:
            coeffs = _split(a.terms, tuple(own)).values()
            return _gcd_all([b, *(Polynomial(a.reg, t, _clean=True) for t in coeffs)])
    return None


def _strip_monomial(p):
    """(exponents of p's monomial content, all zeros if none; p over it)."""
    mins = None
    for e in p.terms:
        mins = e if mins is None else tuple(min(a, b) for a, b in zip(mins, e))
        if not any(mins):
            return mins, p
    stripped = Polynomial(
        p.reg,
        {tuple(a - b for a, b in zip(e, mins)): c for e, c in p.terms.items()},
        _clean=True,
    )
    return mins, stripped


def _monomial_and_heu_gcd(f, g):
    reg = f.reg
    fm, f = _strip_monomial(f)
    gm, g = _strip_monomial(g)
    mono = reg.monomial(tuple(map(min, fm, gm)))
    fi = _int_scale(f.terms)[0]
    gi = _int_scale(g.terms)[0]
    if _coprime(fi, gi):  # a constant core shares no variable
        return mono
    cand = _heu_gcd(reg, fi, gi)
    if cand is None:
        return None
    return Polynomial(reg, cand, _clean=True).primitive()[0] * mono


# The prime of the coprimality certificate.
_P61 = 2**61 - 1


def _coprime_point(n):
    """The fixed point at which `_coprime` evaluates, one residue per variable."""
    return [0x9E3779B97F4A7C15 * (j + 1) % _P61 for j in range(n)]


def _coprime(fterms, gterms):
    """True only when the integer term maps f and g are proven coprime.

    Let h = gcd(f, g).  A variable that f or g does not use cannot occur in
    h.  For each variable x_i used by both, the other variables are set to
    a fixed point modulo the prime p = 2^61 - 1.  If the leading
    coefficients of f and g in x_i do not vanish there, neither does h's,
    so h's image keeps its x_i-degree and divides the images of f and g in
    F_p[x_i]; a constant gcd of those images proves deg_i h = 0 (Brown,
    JACM 1971).  False means "not proven", never "not coprime".
    """
    shared = _used(fterms) & _used(gterms)
    if not shared:
        return True
    point = _coprime_point(len(next(iter(fterms))))
    powers = {}
    fimages = _images_mod_p(fterms, shared, point, powers)
    gimages = _images_mod_p(gterms, shared, point, powers)
    for i in shared:
        fi, gi = fimages[i], gimages[i]
        if not fi[-1] or not gi[-1]:
            return False  # a leading coefficient vanishes at the point
        if _gcd_degree_mod_p(fi, gi):
            return False
    return True


def _images_mod_p(terms, shared, point, powers):
    """For each i in shared, the dense image of terms in F_p[x_i] (constant
    term first) with every other variable set to point; ``powers`` caches
    point[j]^k mod p across calls."""
    images = {i: {} for i in shared}
    for e, c in terms.items():
        factors = []
        for j, k in enumerate(e):
            if k:
                a = powers.get((j, k))
                if a is None:
                    a = powers[(j, k)] = pow(point[j], k, _P61)
                factors.append((j, a))
        for i in shared:
            v = c
            for j, a in factors:
                if j != i:
                    v = v * a % _P61
            img = images[i]
            img[e[i]] = (img.get(e[i], 0) + v) % _P61
    return {
        i: [img.get(d, 0) for d in range(max(img) + 1)] for i, img in images.items()
    }


def _gcd_degree_mod_p(a, b):
    """Degree of gcd(a, b) in F_p[x]; dense lists with nonzero tops."""
    while len(b) > 1:
        inv = pow(b[-1], -1, _P61)
        db = len(b) - 1
        a = list(a)
        while len(a) > db:
            q = a.pop() * inv % _P61
            off = len(a) - db
            if q:
                for k in range(db):
                    a[off + k] = (a[off + k] - q * b[k]) % _P61
            while a and not a[-1]:
                a.pop()
        if not a:
            return db
        a, b = b, a
    return 0


def _prs_gcd(f, g):
    """gcd by the primitive remainder sequence in the last variable used
    (Geddes, Czapor & Labahn 1992, ch. 7).  Every divisor is primitive in
    it; a lower-degree f is its own remainder, so the loop swaps."""
    i = max(f.variables_used() | g.variables_used())
    cf, cg = _content_in(f, (i,)), _content_in(g, (i,))
    c = poly_gcd(cf, cg)
    f, g = divexact(f, cf), divexact(g, cg)
    while True:
        r = _pseudo_rem(f, g, i)
        if r.is_zero:
            return (c * g).primitive()[0]
        if not r.degree_in(i):
            return c
        f, g = g, divexact(r, _content_in(r, (i,)))


def divexact(p, d):
    """Exact polynomial division; raises ExactDivisionError on failure.

    The dividend is cleared of denominators and the divisor made integral
    and primitive, so the quotient loop runs on ints: by Gauss's lemma an
    exact quotient over Q of an integral polynomial by a primitive one is
    integral.  Both scales fold into one Fraction, applied to the quotient
    once.  The quotient comes from `_int_quotient`, with no cap.
    """
    p, d = unify(p, d)
    if d.is_zero:
        raise ZeroPolynomialError("division by the zero polynomial")
    if p.is_zero:
        return p
    if d.is_constant:
        c = d.constant_value()
        return p if c == 1 else p * Fraction(1, c)
    pi, sp = _int_scale(p.terms)
    di, sd = _int_scale(d.terms)
    g = math.gcd(*di.values())
    q = _int_quotient(pi, {e: c // g for e, c in di.items()})
    if q is None:
        raise ExactDivisionError("inexact polynomial division")
    if sd != sp * g:
        scale = Fraction(sd, sp * g)
        q = {e: _q(c * scale) for e, c in q.items()}
    return Polynomial(p.reg, q, _clean=True)


def square_free_part(p):
    """Product of the distinct irreducible factors of p (positive leading)."""
    if not isinstance(p, Polynomial):
        raise TypeError("square_free_part expects a Polynomial")
    if p.is_zero:
        raise ZeroPolynomialError("square-free part of the zero polynomial")
    pp, _ = p.primitive()
    h = pp
    for i in sorted(pp.variables_used()):
        h = poly_gcd(h, pp.diff(pp.reg.name(i)))
        if h.is_constant:
            return pp
    return divexact(pp, h).primitive()[0]


def collect_by_class(p, kind):
    """Group terms by the monomial in variables of the given class.

    Returns a map (monomial Polynomial in class variables) -> Polynomial in
    the remaining variables; the products summed over the map reconstruct p.
    """
    reg = p.reg
    positions = reg.class_indices(kind)
    out = {}
    for proj, t in _split(p.terms, positions).items():
        e = [0] * reg.arity
        for i, x in zip(positions, proj):
            e[i] = x
        out[reg.monomial(e)] = Polynomial(reg, t, _clean=True)
    return out


def _canonical(num, den):
    """The pair scaled so that den is primitive with a positive leading
    coefficient; a zero numerator gets the denominator 1."""
    if num.is_zero:
        return num, num.reg.one()
    den, c = den.primitive()
    return (num if c == 1 else num * Fraction(1, c)), den


def _raw(num, den):
    """A RationalFunction holding the pair as given, without a check."""
    out = object.__new__(RationalFunction)
    out.num = num
    out.den = den
    return out


class RationalFunction:
    """Reduced fraction of polynomials whose denominator is primitive with
    integer coefficients and a positive grevlex leading coefficient.

    Only `__init__` and `__truediv__`, where a denominator comes from
    outside, scale one (`_canonical`).  Sums and products keep the form:
    every `poly_gcd` result has it (so a constant gcd is 1), products and
    exact quotients of primitive integer polynomials are primitive (Gauss's
    lemma), grevlex leading coefficients multiply, and a zero sum needs
    equal denominators, whose branch of `__add__` gives (0, 1).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = num.reg.one()
        num, den = unify(num, den)
        if den.is_zero:
            raise ZeroPolynomialError("rational function with zero denominator")
        if not num.is_zero and not den.is_constant:
            g = poly_gcd(num, den)
            if not g.is_constant:
                num = divexact(num, g)
                den = divexact(den, g)
        self.num, self.den = _canonical(num, den)

    # -- helpers ----------------------------------------------------------

    @property
    def reg(self):
        return self.num.reg

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_polynomial(self):
        return self.den.is_constant

    @classmethod
    def _coerce(cls, other, reg):
        if isinstance(other, cls):
            return other
        if isinstance(other, Polynomial):
            return cls(other)
        if isinstance(other, (int, Fraction)):
            return cls(reg.const(other))
        return NotImplemented

    def lift(self, reg):
        return _raw(self.num.lift(reg), self.den.lift(reg))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other, self.reg)
        if other is NotImplemented:
            return NotImplemented
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if d1 == d2:
            num = n1 + n2
            g = poly_gcd(num, d1)
            if g.is_constant:
                return _raw(num, d1)
            return _raw(divexact(num, g), divexact(d1, g))
        d = poly_gcd(d1, d2)
        if d.is_constant:
            return _raw(n1 * d2 + n2 * d1, d1 * d2)
        q2 = divexact(d2, d)
        t = n1 * q2 + n2 * divexact(d1, d)
        g = poly_gcd(t, d)
        if g.is_constant:
            return _raw(t, d1 * q2)
        return _raw(divexact(t, g), divexact(d1, g) * q2)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other, self.reg)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other, self.reg)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return _raw(self.reg.zero(), self.reg.one())
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        g1 = poly_gcd(n1, d2)
        if not g1.is_constant:
            n1 = divexact(n1, g1)
            d2 = divexact(d2, g1)
        g2 = poly_gcd(n2, d1)
        if not g2.is_constant:
            n2 = divexact(n2, g2)
            d1 = divexact(d1, g2)
        return _raw(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other, self.reg)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroPolynomialError("division by zero rational function")
        return self * _raw(*_canonical(other.den, other.num))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("rational function powers must be nonnegative integers")
        return _raw(self.num**n, self.den**n)

    def __eq__(self, other):
        other = self._coerce(other, self.reg)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    # -- calculus ---------------------------------------------------------

    def diff(self, name):
        """Exact partial derivative (quotient rule, normalized)."""
        dn = self.num.diff(name)
        dd = self.den.diff(name)
        return RationalFunction(dn * self.den - self.num * dd, self.den * self.den)

    def substitute(self, bindings):
        """Exact composition, as `Polynomial.substitute`, always returning a
        RationalFunction."""
        num = self.num.substitute(bindings)
        den = None if self.is_polynomial else self.den.substitute(bindings)
        if den is not None and den.is_zero:
            raise DegenerateDenominatorError(
                "substitution produced an identically zero denominator"
            )
        if isinstance(num, Polynomial):
            return RationalFunction(num, den)
        return num if den is None else num / den

    def evaluate(self, point):
        """Exact value at a point; pole and 0/0 are distinct errors."""
        dv = self.den.evaluate(point)
        if dv == 0:
            nv = self.num.evaluate(point)
            if nv == 0:
                raise IndeterminateError(
                    "indeterminate 0/0: numerator and denominator both vanish"
                )
            raise PoleError("pole: denominator vanishes at the evaluation point")
        return self.num.evaluate(point) / dv

    def __str__(self):
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"
