"""Exact real-root finding for univariate polynomials with rational coefficients.

One path finds every root: Sturm bisection isolates the real roots of the
square-free part, and each isolating interval is narrowed until at most one
rational that could be a root is left in it.  Rational roots come out as
exact Fractions, irrational ones as RootBox intervals no wider than 2^-48.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import VerificationError

# Width below which an irrational root's isolating interval is reported.
_BOX_WIDTH = Fraction(1, 2**48)


@dataclass(frozen=True)
class RootBox:
    """Isolating interval for one simple real root (lo < root < hi)."""

    lo: Fraction
    hi: Fraction

    def midpoint(self):
        return (self.lo + self.hi) / 2


def _strip(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deriv(coeffs):
    return [c * i for i, c in enumerate(coeffs)][1:]


def _divmod(a, b):
    """Quotient and remainder of a / b over the rationals (coefficient lists)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [Fraction(0)] * max(len(a) - db, 0)
    while _strip(a) and len(a) - 1 >= db:
        da = len(a) - 1
        c = a[-1] / lb
        q[da - db] = c
        for i in range(db + 1):
            a[da - db + i] -= c * b[i]
    return q, a


def _gcd(a, b):
    a, b = list(a), list(b)
    while _strip(b):
        a, b = b, _divmod(a, b)[1]
    return a


def _sturm_chain(coeffs):
    chain = [list(coeffs), _deriv(coeffs)]
    while _strip(chain[-1]):
        r = [-c for c in _divmod(chain[-2], chain[-1])[1]]
        if not _strip(r):
            break
        chain.append(r)
    return chain


def _sign_changes(chain, x):
    signs = []
    for p in chain:
        v = _eval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    changes = 0
    for i in range(1, len(signs)):
        if signs[i] != signs[i - 1]:
            changes += 1
    return changes


def _ceil_log2(r):
    """The least integer t with 2^t >= r, for a positive Fraction r."""
    t = r.numerator.bit_length() - r.denominator.bit_length()
    return t if Fraction(2) ** t >= r else t + 1


def _root_bound(coeffs):
    """A power of two strictly above the modulus of every root.

    Fujiwara's bound 2·max(|a_(n-i)/a_n|^(1/i), |a_0/(2·a_n)|^(1/n)) with
    each term rounded up to a power of two, doubled once more so that no
    root lies on the bound itself.
    """
    n, lead = len(coeffs) - 1, coeffs[-1]
    exps = []
    for i in range(1, n + 1):
        r = abs(coeffs[n - i] / lead) / (2 if i == n else 1)
        if r:
            exps.append(-(-_ceil_log2(r) // i))
    return Fraction(2) ** (max(exps, default=0) + 2)


def _square_free(coeffs):
    return _divmod(coeffs, _gcd(coeffs, _deriv(coeffs)))[0]


def _primitive_lead(coeffs):
    """|Leading coefficient| of coeffs scaled to a primitive integer polynomial."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    return abs(ints[-1]) // math.gcd(*ints)


def real_roots(coeffs):
    """All distinct real roots of a univariate rational-coefficient polynomial.

    `coeffs` lists coefficients from constant to leading term.  Returns a
    sorted list whose entries are exact Fractions for rational roots and
    RootBox isolating intervals, no wider than 2^-48, for irrational ones.
    The zero polynomial is rejected.
    """
    coeffs = _strip([Fraction(c) for c in coeffs])
    if not coeffs:
        raise ValueError("zero polynomial has every point as a root")
    sf = _square_free(coeffs)
    a = _primitive_lead(sf)
    chain = _sturm_chain(sf)
    bound = _root_bound(sf)
    roots = []
    stack = [(-bound, bound)]
    # Invariant: no interval end on the stack is a root of sf, so each
    # Sturm count is the number of roots strictly inside the interval.
    while stack:
        lo, hi = stack.pop()
        n = _sign_changes(chain, lo) - _sign_changes(chain, hi)
        if n == 1:
            roots.append(_refine(sf, lo, hi, a))
        elif n > 1:
            mid = (lo + hi) / 2
            if _eval(sf, mid) == 0:
                roots.append(mid)
                sf = _deflate(sf, mid)
                chain = _sturm_chain(sf)
            stack.append((lo, mid))
            stack.append((mid, hi))
    return sorted(roots, key=lambda r: r.lo if isinstance(r, RootBox) else r)


def _bisect(sf, lo, hi, width):
    """Halve the isolating interval (lo, hi) of a simple root of sf until it
    is narrower than width; a midpoint that is the root is returned as is."""
    up = _eval(sf, lo) > 0
    while hi - lo >= width:
        mid = (lo + hi) / 2
        v = _eval(sf, mid)
        if v == 0:
            return mid
        if (v > 0) == up:
            lo = mid
        else:
            hi = mid
    return RootBox(lo, hi)


def _refine(sf, lo, hi, a):
    """The one root of sf in (lo, hi): a Fraction if rational, else a RootBox.

    A rational root p/q of sf has q | a, and two distinct rationals with
    denominators at most a lie at least 1/a^2 apart.  Once the interval is
    narrower than 1/(2a^2), the only rational in it that can be the root is
    the one nearest its midpoint with denominator at most a.
    """
    box = _bisect(sf, lo, hi, Fraction(1, 2 * a * a))
    if not isinstance(box, RootBox):
        return box
    cand = box.midpoint().limit_denominator(a)
    if box.lo < cand < box.hi and _eval(sf, cand) == 0:
        return cand
    return _bisect(sf, box.lo, box.hi, _BOX_WIDTH)


def _deflate(coeffs, root):
    """Divide by (x - root) exactly."""
    q, r = _divmod(coeffs, [-root, Fraction(1)])
    if r:
        raise VerificationError(f"deflation by a non-root {root}")
    return q
